package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"

	"rapidmrc/internal/runner"
)

// Runner is one experiment driver; it writes its report to w.
type Runner func(w io.Writer, cfg Config) error

// registry maps experiment ids (table1, fig1, fig2a, ... table2) to
// drivers. Wrappers adapt the typed drivers to the uniform signature.
var registry = map[string]Runner{
	"table1": func(w io.Writer, cfg Config) error { return Table1(w) },
	"fig1":   func(w io.Writer, cfg Config) error { _, err := Figure1(w, cfg); return err },
	"fig2a":  func(w io.Writer, cfg Config) error { _, err := Figure2a(w, cfg); return err },
	"fig2b":  func(w io.Writer, cfg Config) error { _, err := Figure2b(w, cfg); return err },
	"fig2c":  func(w io.Writer, cfg Config) error { _, err := Figure2c(w, cfg); return err },
	"fig3":   func(w io.Writer, cfg Config) error { _, err := Figure3(w, cfg); return err },
	"fig4":   func(w io.Writer, cfg Config) error { _, err := Figure4(w, cfg); return err },
	"fig5a":  func(w io.Writer, cfg Config) error { _, err := Figure5a(w, cfg); return err },
	"fig5b":  func(w io.Writer, cfg Config) error { _, err := Figure5b(w, cfg); return err },
	"fig5c":  func(w io.Writer, cfg Config) error { _, err := Figure5c(w, cfg); return err },
	"fig5d":  func(w io.Writer, cfg Config) error { _, err := Figure5d(w, cfg); return err },
	"fig5e":  func(w io.Writer, cfg Config) error { _, err := Figure5e(w, cfg); return err },
	"fig6":   func(w io.Writer, cfg Config) error { _, err := Figure6(w, cfg); return err },
	"fig7":   func(w io.Writer, cfg Config) error { _, err := Figure7(w, cfg); return err },
	"table2": func(w io.Writer, cfg Config) error { _, err := Table2(w, cfg); return err },
	// Extensions beyond the paper's evaluation: the §6 future-PMU
	// ablation, the §5.3 dynamic-repartitioning vision, use case (iv)
	// global-MRC prediction, and the curve tiers judged by the partitions
	// they choose.
	"ext-pmubuffer":   func(w io.Writer, cfg Config) error { _, err := ExtPMUBuffer(w, cfg); return err },
	"ext-dynamic":     func(w io.Writer, cfg Config) error { _, err := ExtDynamic(w, cfg); return err },
	"ext-globalmrc":   func(w io.Writer, cfg Config) error { _, err := ExtGlobalMRC(w, cfg); return err },
	"ext-replacement": func(w io.Writer, cfg Config) error { _, err := ExtReplacement(w, cfg); return err },
	"ext-tiers":       func(w io.Writer, cfg Config) error { _, _, err := ExtTiers(w, cfg); return err },
}

// Names returns the registered experiment ids, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id.
func Run(id string, w io.Writer, cfg Config) error {
	r, ok := registry[id]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", id, Names())
	}
	return r(w, cfg)
}

// RunAll executes every experiment, writing reports in stable id order.
// The experiments themselves run on the bounded worker pool
// (cfg.Parallel workers; 0 = one per CPU) with each report buffered so
// concurrent drivers never interleave output; an error in any driver
// cancels the unstarted remainder.
func RunAll(w io.Writer, cfg Config) error {
	return RunAllContext(context.Background(), w, cfg)
}

// RunAllContext is RunAll with cancellation: a cancelled ctx stops
// scheduling new experiments.
func RunAllContext(ctx context.Context, w io.Writer, cfg Config) error {
	ids := Names()
	bufs := make([]bytes.Buffer, len(ids))
	err := runner.ForEach(ctx, cfg.Parallel, len(ids), func(i int) error {
		if err := Run(ids[i], &bufs[i], cfg); err != nil {
			return fmt.Errorf("%s: %w", ids[i], err)
		}
		return nil
	})
	// Flush what completed, in order, even on error: partial sweeps are
	// still useful and the failure is reported after them.
	for i, id := range ids {
		if bufs[i].Len() == 0 {
			continue
		}
		fmt.Fprintf(w, "\n================= %s =================\n\n", id)
		if _, werr := w.Write(bufs[i].Bytes()); werr != nil {
			return werr
		}
	}
	return err
}
