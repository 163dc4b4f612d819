// Command mrcbench is the benchmark of record for this repository. It
// runs one workload through the public entry points — the rapidmrc
// facade, the mrcd service handler on a loopback HTTP server, and the
// platform's real-MRC sweep — checks every output against an oracle, and
// prints each metric by name with its unit, sample count and direction.
// The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": 81, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (run.sh builds the command first):
//
//	bash cmd/mrcbench/run.sh --workload online_zoo --seed 1 --seconds 15 --trace 0
//	bash cmd/mrcbench/run.sh --workload mrcd_tiers --trace 1 --spans spans.json
//	bash cmd/mrcbench/run.sh --workload mrcd_exact --record runs/parent/1.json
//	bash cmd/mrcbench/run.sh -compare runs/parent/*.json runs/change/*.json
//
// --trace 0 prints the end-to-end metrics, measured with tracing off;
// --trace 1 prints the per-layer metrics from a second, traced pass over
// the same operations. See README.md for the workloads, the metrics and
// their bounds, and the paired comparison rule.
//
// Exit status: 0 when every check passed, 1 when a check failed (or,
// with -compare, a metric regressed), 2 when the run could not be made.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("mrcbench", flag.ContinueOnError)
	cfg := config{}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: online_zoo, mrcd_exact, mrcd_tiers or realmrc_sweep")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "how long the timed loop runs (it always completes one full pass)")
	traceFlag := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced pass instead of the end-to-end metrics")
	fs.BoolVar(&cfg.quick, "quick", false, "small sizes, for tests")
	spans := fs.String("spans", "", "with --trace 1, write the spans as JSON to this file")
	record := fs.String("record", "", "write the full run record (metrics, model values, host) as JSON to this file")
	compare := fs.Bool("compare", false, "compare run records: parent files (or a directory) first, then change files")
	benchPath := fs.String("benchmark", "BENCHMARK.json", "BENCHMARK.json holding the bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareMain(fs.Args(), *benchPath)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "mrcbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = *traceFlag == 1
	if cfg.seconds < 0 {
		fmt.Fprintln(os.Stderr, "mrcbench: --seconds must not be negative")
		return 2
	}

	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrcbench:", err)
		return 2
	}
	if *spans != "" && res.spans != nil {
		if err := res.spans.writeSpans(*spans); err != nil {
			fmt.Fprintln(os.Stderr, "mrcbench:", err)
			return 2
		}
	}
	if *record != "" {
		if err := writeRecord(*record, res); err != nil {
			fmt.Fprintln(os.Stderr, "mrcbench:", err)
			return 2
		}
	}
	if err := report(res); err != nil {
		fmt.Fprintln(os.Stderr, "mrcbench:", err)
		return 2
	}
	return exitCode(res)
}

func exitCode(res *result) int {
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints the run's identity, a metric table, the model values,
// any check failure, and last the one-line JSON result.
func report(res *result) error {
	m := res.Meta
	fmt.Printf("mrcbench workload=%s seed=%d trace=%t quick=%t commit=%s go=%s nproc=%d gomaxprocs=%d cpu=%q wall_s=%.1f ref_ms=%.4g\n",
		m.Workload, m.Seed, m.Trace, m.Quick, m.Commit, m.GoVersion, m.NProc, m.GoMaxProcs, m.CPU, m.WallS, m.RefMs)
	fmt.Printf("sizes %+v\n", m.Sizes)
	defs := endToEnd
	if m.Trace {
		defs = perLayer
	}
	// "value" is host-normalized where "measured" is shown (see calib.go).
	fmt.Printf("%-32s %14s %14s  %-11s %8s  %s\n", "metric", "value", "measured", "unit", "samples", "better")
	for _, d := range defs {
		v := res.Metrics[d.name]
		raw := ""
		if v.Raw != 0 {
			raw = fmt.Sprintf("%.6g", v.Raw)
		}
		fmt.Printf("%-32s %14.6g %14s  %-11s %8d  %s\n", d.name, v.Value, raw, v.Unit, v.Samples, v.Better)
	}
	fmt.Printf("%-32s %14.6g %14s  %-11s %8d  %s\n", "failed_frac", ratio(float64(res.Failed), float64(res.Attempted)), "", "ratio", res.Attempted, "lower")
	for _, k := range sortedKeys(res.Model) {
		fmt.Printf("model %s=%.17g\n", k, res.Model[k])
	}
	fmt.Printf("digest %s\n", res.Digest)
	for _, c := range res.Checks {
		fmt.Fprintln(os.Stderr, "check failed:", c)
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v := res.Metrics[d.name]
		metrics[d.name] = map[string]any{"value": v.Value, "unit": v.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

func writeRecord(path string, res *result) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding record: %w", err)
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("writing record: %w", err)
		}
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing record: %w", err)
	}
	return nil
}
