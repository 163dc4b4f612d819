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
// 1..MaxColors and returns MPKI per size (index 0 = one color). The sizes
// share one generated reference stream (see sweep.go); the result is
// bit-identical to RealMRCPerMachine's one full simulation per size.
func RealMRC(app workload.Config, cfg RealMRCConfig) []float64 {
	if cfg.MaxColors == 0 {
		cfg.MaxColors = color.NumColors
	}
	return realMRCShared(app, cfg, sweepChunkRefs)
}

// RealMRCPerMachine is the one-simulation-per-partition-size strategy:
// cfg.MaxColors machines on the worker pool, each regenerating the full
// reference stream. It is the reference implementation the shared-stream
// sweep is property-tested against and that mrcbench's realmrc_sweep
// workload checks its first shared sweep against bit for bit; the
// benchsuite rows realmrc_sweep_permachine and realmrc_sweep_shared time
// the two strategies side by side.
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

// IntervalMetrics runs the application at a fixed partition size and
// returns the metrics (instructions, cycles, misses) of consecutive
// intervals: Table 2's phase length column needs the cycle counts, and
// their MPKI is one size's miss-rate timeline.
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
// plots all 16). Like RealMRC it runs the shared-stream fan-out; its
// one-run-per-size oracle is in the tests.
func MissRateTimelines(app workload.Config, intervals int, intervalInstr uint64, cfg RealMRCConfig) [][]float64 {
	if cfg.MaxColors == 0 {
		cfg.MaxColors = color.NumColors
	}
	return missRateTimelinesShared(app, intervals, intervalInstr, cfg, sweepChunkRefs)
}
