// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated platform. Each driver writes a
// human-readable report (tables, data series, rough ASCII plots) to an
// io.Writer and returns the underlying data for programmatic checks.
//
// Instruction counts are in simulated units: one simulated instruction
// stands for workload.Scale (=1000) of the paper's. Quick mode shrinks
// slices and logs so the full suite runs in seconds; full mode uses the
// paper's 160k/1600k log sizes.
package experiments

import (
	"context"
	"sort"
	"sync"

	"rapidmrc/internal/core"
	"rapidmrc/internal/cpu"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/platform"
	"rapidmrc/internal/pmu"
	"rapidmrc/internal/runner"
	"rapidmrc/internal/workload"
)

// Config controls the experiment drivers.
type Config struct {
	// Seed drives workloads and PMU artifacts.
	Seed int64
	// Quick shrinks run lengths for fast benchmarks and CI; full mode
	// reproduces the paper's parameters.
	Quick bool
	// Apps restricts per-application experiments to a subset (nil = all
	// 30 in Table 2 order).
	Apps []string
	// Parallel bounds the worker pools the drivers sweep on (per-app
	// evaluations, per-size real-MRC runs): 0 means one worker per CPU,
	// 1 runs serially.
	Parallel int
}

// cpuComplex is a shorthand for the default execution mode in drivers.
var cpuComplex = cpu.Complex

// apps resolves the application list.
func (c Config) apps() []string {
	if len(c.Apps) > 0 {
		return c.Apps
	}
	return workload.Names()
}

// realCfg returns the real-MRC measurement parameters.
func (c Config) realCfg(mode cpu.Mode) platform.RealMRCConfig {
	rc := platform.DefaultRealMRCConfig()
	rc.Mode = mode
	rc.Seed = c.Seed
	rc.Workers = c.Parallel
	if c.Quick {
		rc.SkipInstructions = 600_000
		rc.SliceInstructions = 300_000
	}
	return rc
}

// warmSkip returns the instructions a fresh machine runs before its
// probing period, so that the capture sees the application past its
// start-up.
func (c Config) warmSkip() uint64 {
	if c.Quick {
		return 600_000
	}
	return 2_000_000
}

// entries returns the trace log length.
func (c Config) entries() int {
	if c.Quick {
		return 48_000
	}
	return 160_000
}

// longEntries returns the long (10×) trace log length (Figure 4a,
// Table 2 column j).
func (c Config) longEntries() int { return 10 * c.entries() }

// AppEval bundles everything measured about one application: the real
// curve, the RapidMRC curve (raw and v-offset-matched at the real curve's
// 8-color point, as §5.2.1 does), and the Table 2 statistics.
type AppEval struct {
	Name string
	// Real is the offline exhaustively measured MRC.
	Real []float64
	// Calc is the raw RapidMRC curve; CalcShifted is Calc transposed to
	// the real curve's 8-color point.
	Calc        []float64
	CalcShifted []float64
	// Shift is the v-offset applied (Table 2 column h).
	Shift float64
	// Distance is the mean MPKI distance after shifting (column i).
	Distance float64
	// DistanceLong is the distance with the 10× log (column j);
	// 0 if not measured.
	DistanceLong float64
	// LogCycles is the trace capture time (column a).
	LogCycles uint64
	// CalcCycles is the modeled MRC computation time (column b).
	CalcCycles uint64
	// CaptureInstr is the application progress during capture (column c).
	CaptureInstr uint64
	// ConvertedFrac is the prefetch-conversion fraction of the log
	// (column e).
	ConvertedFrac float64
	// WarmupFrac is the log fraction used for warmup (column f).
	WarmupFrac float64
	// AutoWarmup reports whether the stack filled before the static
	// fallback.
	AutoWarmup bool
	// StackHitRate is column g.
	StackHitRate float64
	// Dropped counts overlap-lost events during capture.
	Dropped int
}

// probe is one probing period captured on a fresh machine: its log,
// corrected for prefetch repetitions, and the capture's statistics.
type probe struct {
	lines []mem.Line
	stats pmu.TraceStats
	// converted counts the log entries the correction rewrote.
	converted int
}

// captureWarm boots app on a fresh machine with opt's Mode and
// TraceBuffer, the L3 attached and c.Seed seeding both the workload and
// the machine, runs c.warmSkip() instructions, captures an n-entry
// probing period through an appending sink, and corrects the log.
func (c Config) captureWarm(app workload.Config, opt platform.Options, n int) probe {
	opt.L3Enabled, opt.Seed = true, c.Seed
	m := platform.NewMachine(workload.New(app, c.Seed), opt)
	m.RunInstructions(c.warmSkip())
	p := probe{lines: make([]mem.Line, 0, n)}
	p.stats = m.CollectTrace(n, pmu.SinkFunc(func(l mem.Line) { p.lines = append(p.lines, l) }))
	p.converted = core.CorrectPrefetchRepetitions(p.lines)
	return p
}

// curve computes the probing period's raw curve with the default engine
// configuration.
func (p probe) curve() (*core.Result, error) {
	return core.Compute(p.lines, p.stats.Instructions, core.DefaultConfig())
}

// EvalApp measures one application end to end.
func EvalApp(name string, cfg Config) (*AppEval, error) {
	app, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}

	var (
		wg      sync.WaitGroup
		real    []float64
		p       probe
		res     *core.Result
		resLong *core.Result
		calcErr error
		longErr error
	)
	opt := platform.Options{Mode: cpu.Complex}
	wg.Add(2)
	go func() {
		defer wg.Done()
		real = platform.RealMRC(app, cfg.realCfg(cpu.Complex))
	}()
	go func() {
		defer wg.Done()
		p = cfg.captureWarm(app, opt, cfg.entries())
		res, calcErr = p.curve()
	}()
	if !cfg.Quick {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resLong, longErr = cfg.captureWarm(app, opt, cfg.longEntries()).curve()
		}()
	}
	wg.Wait()
	if calcErr != nil {
		return nil, calcErr
	}

	realMRC := core.NewMRC(real)
	shifted := res.MRC.Clone()
	shift := shifted.Transpose(7, realMRC.At(8))

	ev := &AppEval{
		Name:          name,
		Real:          real,
		Calc:          res.MRC.MPKI,
		CalcShifted:   shifted.MPKI,
		Shift:         shift,
		Distance:      core.Distance(shifted, realMRC),
		LogCycles:     p.stats.Cycles,
		CalcCycles:    res.ModelCycles,
		CaptureInstr:  p.stats.Instructions,
		ConvertedFrac: float64(p.converted) / float64(len(p.lines)),
		WarmupFrac:    float64(res.WarmupEntries) / float64(len(p.lines)),
		AutoWarmup:    res.AutoWarmup,
		StackHitRate:  res.StackHitRate,
		Dropped:       p.stats.Dropped,
	}
	if resLong != nil && longErr == nil {
		sl := resLong.MRC.Clone()
		sl.Transpose(7, realMRC.At(8))
		ev.DistanceLong = core.Distance(sl, realMRC)
	}
	return ev, nil
}

// EvalApps evaluates a set of applications on the bounded worker pool,
// preserving order. The first failing evaluation cancels the remaining
// (unstarted) ones.
func EvalApps(names []string, cfg Config) ([]*AppEval, error) {
	out := make([]*AppEval, len(names))
	err := runner.ForEach(context.Background(), cfg.Parallel, len(names), func(i int) error {
		ev, err := EvalApp(names[i], cfg)
		out[i] = ev
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// colorAxis returns 1..16 as floats for series output.
func colorAxis() []float64 {
	x := make([]float64, 16)
	for i := range x {
		x[i] = float64(i + 1)
	}
	return x
}

// sortedCopy returns a sorted copy of v (helper for summaries).
func sortedCopy(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	sort.Float64s(out)
	return out
}
