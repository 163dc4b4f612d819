package platform

import (
	"rapidmrc/internal/color"
	"rapidmrc/internal/cpu"
	"rapidmrc/internal/runner"
	"rapidmrc/internal/workload"
)

// RealMRCConfig parameterizes the exhaustive offline MRC measurement of
// §5.2.1: run the application once per possible partition size, measuring
// L2 MPKI with the PMU counters over an execution slice.
type RealMRCConfig struct {
	// Mode is the processor mode for the runs (Figure 5e varies this).
	Mode cpu.Mode
	// L3Enabled attaches the victim cache.
	L3Enabled bool
	// SkipInstructions fast-forwards each run before measuring, placing
	// the slice at a chosen execution point (the paper uses the
	// 10-billion-instruction mark; instruction counts here are in
	// simulated units, 1:workload.Scale against the paper's).
	SkipInstructions uint64
	// SliceInstructions is the measurement slice length.
	SliceInstructions uint64
	// MaxColors is the number of partition sizes to measure (16).
	MaxColors int
	// Seed seeds each run identically so all sizes see the same stream.
	Seed int64
	// Workers bounds the worker pool running the per-size simulations:
	// 0 means one worker per CPU (runtime.GOMAXPROCS), 1 runs serially,
	// n > 1 uses a pool of n. Goroutine count is bounded by the pool
	// size, never by MaxColors.
	Workers int
	// PerMachine forces the legacy strategy of running one full
	// simulation per partition size, each regenerating the reference
	// stream. The default (false) is the shared-stream fan-out, which
	// generates every chunk of the stream once and replays it through all
	// partition-size machines — bit-identical results (property-tested),
	// one generator pass instead of MaxColors.
	PerMachine bool
}

// DefaultRealMRCConfig returns the settings used throughout the
// reproduction: measure at the scaled 10-G-instruction mark over a scaled
// 1-G-instruction slice.
func DefaultRealMRCConfig() RealMRCConfig {
	return RealMRCConfig{
		Mode:              cpu.Complex,
		L3Enabled:         true,
		SkipInstructions:  2_000_000,
		SliceInstructions: 1_000_000,
		MaxColors:         color.NumColors,
		Seed:              1,
	}
}

// RealMRC measures the real MRC of an application across partition sizes
// 1..MaxColors and returns MPKI per size (index 0 = one color). By default
// the sizes share one generated reference stream (see sweep.go); set
// cfg.PerMachine to run each size as its own full simulation. Both
// strategies produce bit-identical curves.
func RealMRC(app workload.Config, cfg RealMRCConfig) []float64 {
	if cfg.MaxColors == 0 {
		cfg.MaxColors = color.NumColors
	}
	if cfg.PerMachine {
		return RealMRCPerMachine(app, cfg)
	}
	return realMRCShared(app, cfg, sweepChunkRefs)
}

// RealMRCPerMachine is the one-simulation-per-partition-size strategy:
// cfg.MaxColors machines on the worker pool, each regenerating the full
// reference stream. It is the reference implementation the shared-stream
// sweep is property-tested against, and the pre-fan-out baseline the
// BenchmarkRealMRCSweep speedup is measured from.
func RealMRCPerMachine(app workload.Config, cfg RealMRCConfig) []float64 {
	if cfg.MaxColors == 0 {
		cfg.MaxColors = color.NumColors
	}
	mpki := make([]float64, cfg.MaxColors)
	runner.All(cfg.Workers, cfg.MaxColors, func(k int) {
		m := NewMachine(workload.New(app, cfg.Seed), Options{
			Mode:      cfg.Mode,
			Colors:    color.First(k + 1),
			L3Enabled: cfg.L3Enabled,
			Seed:      cfg.Seed,
		})
		if cfg.SkipInstructions > 0 {
			m.RunInstructions(cfg.SkipInstructions)
		}
		m.ResetMetrics()
		m.RunInstructions(cfg.SliceInstructions)
		mpki[k] = m.Metrics().MPKI()
	})
	return mpki
}

// MissRateTimeline runs the application at a fixed partition size and
// returns the L2 MPKI of consecutive intervals — the raw material of
// Figure 2a and of online phase detection.
func MissRateTimeline(app workload.Config, colors int, intervals int, intervalInstr uint64, cfg RealMRCConfig) []float64 {
	m := NewMachine(workload.New(app, cfg.Seed), Options{
		Mode:      cfg.Mode,
		Colors:    color.First(colors),
		L3Enabled: cfg.L3Enabled,
		Seed:      cfg.Seed,
	})
	out := make([]float64, intervals)
	for i := range out {
		m.ResetMetrics()
		m.RunInstructions(intervalInstr)
		out[i] = m.Metrics().MPKI()
	}
	return out
}

// IntervalMetrics is MissRateTimeline returning the full interval metrics
// (instructions, cycles, misses) instead of MPKI only — Table 2's phase
// length column needs the cycle counts.
func IntervalMetrics(app workload.Config, colors int, intervals int, intervalInstr uint64, cfg RealMRCConfig) []Metrics {
	m := NewMachine(workload.New(app, cfg.Seed), Options{
		Mode:      cfg.Mode,
		Colors:    color.First(colors),
		L3Enabled: cfg.L3Enabled,
		Seed:      cfg.Seed,
	})
	out := make([]Metrics, intervals)
	for i := range out {
		m.ResetMetrics()
		m.RunInstructions(intervalInstr)
		out[i] = m.Metrics()
	}
	return out
}

// MissRateTimelines measures timelines for every partition size (Figure 2a
// plots all 16). Like RealMRC it defaults to the shared-stream fan-out;
// cfg.PerMachine selects one independent run per size on the bounded pool.
func MissRateTimelines(app workload.Config, intervals int, intervalInstr uint64, cfg RealMRCConfig) [][]float64 {
	if cfg.MaxColors == 0 {
		cfg.MaxColors = color.NumColors
	}
	if cfg.PerMachine {
		return MissRateTimelinesPerMachine(app, intervals, intervalInstr, cfg)
	}
	return missRateTimelinesShared(app, intervals, intervalInstr, cfg, sweepChunkRefs)
}

// MissRateTimelinesPerMachine runs one independent timeline measurement
// per partition size on the bounded pool — the reference implementation
// for the shared-stream equivalence property test.
func MissRateTimelinesPerMachine(app workload.Config, intervals int, intervalInstr uint64, cfg RealMRCConfig) [][]float64 {
	if cfg.MaxColors == 0 {
		cfg.MaxColors = color.NumColors
	}
	out := make([][]float64, cfg.MaxColors)
	runner.All(cfg.Workers, cfg.MaxColors, func(i int) {
		out[i] = MissRateTimeline(app, i+1, intervals, intervalInstr, cfg)
	})
	return out
}
