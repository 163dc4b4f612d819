package core

import (
	"errors"
	"math"
	"strconv"

	"rapidmrc/internal/mem"
)

// Config parameterizes MRC computation.
type Config struct {
	// StackLines is the LRU stack capacity — the paper limits it to the
	// L2 size in lines (15,360) because the MRC is only consumed at L2
	// partition granularity (§3.2).
	StackLines int
	// Points is the number of MRC points (16 partition sizes).
	Points int
	// LinesPerPoint is the size step between points (960 lines = one
	// color).
	LinesPerPoint int
	// GroupSize is the range-list group size.
	GroupSize int
	// StaticWarmupFrac is the warmup fraction used when the stack never
	// fills (§5.2.1 uses one half of the trace log).
	StaticWarmupFrac float64
	// FixedWarmupEntries, when ≥ 0, bypasses the warmup policy and uses
	// exactly this many leading entries for warmup — the knob behind the
	// warmup-length study of Figure 5b. Negative means "use the policy".
	FixedWarmupEntries int
	// CostFixed and CostPerWalk parameterize the modeled calculation
	// time: cycles = entries×CostFixed + walks×CostPerWalk, calibrated
	// against Table 2 column b.
	CostFixed   uint64
	CostPerWalk uint64
}

// DefaultConfig returns the paper's configuration on the POWER5 geometry.
func DefaultConfig() Config {
	return Config{
		StackLines:         15360,
		Points:             16,
		LinesPerPoint:      960,
		GroupSize:          DefaultGroupSize,
		StaticWarmupFrac:   0.5,
		FixedWarmupEntries: -1,
		CostFixed:          190,
		CostPerWalk:        10,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.StackLines <= 0 {
		return errors.New("core: StackLines = " + strconv.Itoa(c.StackLines))
	}
	if c.Points <= 0 || c.LinesPerPoint <= 0 {
		return errors.New("core: " + strconv.Itoa(c.Points) + " points × " +
			strconv.Itoa(c.LinesPerPoint) + " lines invalid")
	}
	if c.Points*c.LinesPerPoint > c.StackLines {
		return errors.New("core: " + strconv.Itoa(c.Points) + " points × " +
			strconv.Itoa(c.LinesPerPoint) + " lines exceeds stack capacity " +
			strconv.Itoa(c.StackLines))
	}
	if c.StaticWarmupFrac < 0 || c.StaticWarmupFrac >= 1 {
		return errors.New("core: StaticWarmupFrac = " + strconv.FormatFloat(c.StaticWarmupFrac, 'g', -1, 64))
	}
	return nil
}

// MRC is a miss rate curve: MPKI at each partition size, index 0 = one
// unit (color).
type MRC struct {
	MPKI []float64
}

// NewMRC wraps a point slice.
func NewMRC(points []float64) *MRC { return &MRC{MPKI: points} }

// Clone returns a deep copy.
func (m *MRC) Clone() *MRC {
	out := make([]float64, len(m.MPKI))
	copy(out, m.MPKI)
	return &MRC{MPKI: out}
}

// At returns the MPKI at the given size (1-based number of colors).
func (m *MRC) At(colors int) float64 { return m.MPKI[colors-1] }

// Transpose vertically shifts the whole curve so that point refIdx
// (0-based) equals target — the v-offset correction of §3.2, which uses
// the measured miss rate of the currently configured partition size. It
// returns the shift applied. The shift is uniform, preserving shape,
// except that points the shift would push below zero are clamped at 0:
// a negative MPKI is non-physical and would corrupt downstream consumers
// (partition.ChoosePair sums curve points when sizing splits).
func (m *MRC) Transpose(refIdx int, target float64) float64 {
	// A non-finite target would smear NaN/Inf across every point; refuse
	// to move the curve rather than corrupt it.
	if math.IsNaN(target) || math.IsInf(target, 0) {
		return 0
	}
	shift := target - m.MPKI[refIdx]
	for i := range m.MPKI {
		m.MPKI[i] += shift
		if m.MPKI[i] < 0 {
			m.MPKI[i] = 0
		}
	}
	return shift
}

// Distance is the similarity metric of §5.2.1: the mean absolute MPKI
// difference over all points. The curves must have equal length.
func Distance(a, b *MRC) float64 {
	if len(a.MPKI) != len(b.MPKI) {
		panic("core: distance between " + strconv.Itoa(len(a.MPKI)) + "- and " +
			strconv.Itoa(len(b.MPKI)) + "-point curves")
	}
	sum := 0.0
	for i := range a.MPKI {
		sum += math.Abs(a.MPKI[i] - b.MPKI[i])
	}
	return sum / float64(len(a.MPKI))
}

// Result is the output of Compute.
type Result struct {
	// MRC is the calculated curve, before any v-offset transposition.
	MRC *MRC
	// Hist is the stack distance histogram over recorded references;
	// Hist[d] counts references at 1-based distance d (Hist[0] unused).
	Hist []uint64
	// InfMisses counts recorded references beyond stack capacity or cold.
	InfMisses uint64
	// WarmupEntries is how many leading log entries warmed the stack.
	WarmupEntries int
	// AutoWarmup reports whether the stack filled (automatic policy) as
	// opposed to falling back to the static fraction.
	AutoWarmup bool
	// Recorded is the number of references contributing to Hist.
	Recorded int
	// StackHitRate is the fraction of recorded references found on the
	// stack (Table 2 column g).
	StackHitRate float64
	// Instructions is the effective instruction count used for MPKI
	// normalization (scaled to the recorded portion of the log).
	Instructions uint64
	// ModelCycles is the modeled MRC calculation time in processor
	// cycles (Table 2 column b).
	ModelCycles uint64
}

// newStack builds the stack Compute simulates with: the production
// stack, counting walks only when cfg prices them. It is a package
// variable so the equivalence test can swap in the paper-era walking
// variant and pin that both stacks produce identical curves and modeled
// cycle counts.
var newStack = func(cfg Config) Stack {
	return NewStackFor(cfg, cfg.StackLines)
}

// EffectiveInstructions prorates the application progress over the whole
// log to the recorded (post-warmup) portion, for MPKI normalization. It
// is exported for the sampled engine, which must normalize exactly as
// the exact paths do.
func EffectiveInstructions(instructions uint64, recorded, consumed int) uint64 {
	eff := uint64(float64(instructions) * float64(recorded) / float64(consumed))
	if eff == 0 {
		eff = 1
	}
	return eff
}

// CurveFromHist integrates a stack-distance histogram into the MRC:
// Miss(size) = references with distance > size, plus infinite, normalized
// to MPKI. Shared by the batch computation and the sampled engine's
// snapshots (which replicate its operation order over weights), so all
// paths are identical by construction at this stage.
func CurveFromHist(hist []uint64, inf, instrEff uint64, cfg Config) []float64 {
	mpki := make([]float64, cfg.Points)
	// Suffix sums over the histogram, evaluated at each point boundary.
	misses := inf
	bound := cfg.Points * cfg.LinesPerPoint
	for d := cfg.StackLines; d > bound; d-- {
		misses += hist[d]
	}
	for p := cfg.Points - 1; p >= 0; p-- {
		hi := (p + 1) * cfg.LinesPerPoint
		// misses currently holds Miss(hi); record it, then absorb the
		// band (hi-LinesPerPoint..hi] for the next (smaller) point.
		mpki[p] = 1000 * float64(misses) / float64(instrEff)
		for d := hi; d > hi-cfg.LinesPerPoint; d-- {
			misses += hist[d]
		}
	}
	return mpki
}

// Compute runs Mattson's algorithm over a corrected trace log and builds
// the MRC. instructions is the application progress during the probing
// period (used for MPKI normalization, prorated to the recorded portion).
// It is the serial oracle every streaming and sampled path is pinned
// bit-identical to.
func Compute(trace []mem.Line, instructions uint64, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(trace) == 0 {
		return nil, errors.New("core: empty trace log")
	}
	stack := newStack(cfg)
	hist := make([]uint64, cfg.StackLines+1)
	var inf, hits uint64

	// Warmup: process entries without recording until the stack fills;
	// if it has not filled by the static fraction, stop warming there —
	// such workloads have small working sets and the static warmup is
	// adequate (§5.2.1). A non-negative FixedWarmupEntries overrides the
	// policy with an exact length.
	staticLimit := int(float64(len(trace)) * cfg.StaticWarmupFrac)
	fixed := cfg.FixedWarmupEntries >= 0
	if fixed {
		staticLimit = min(cfg.FixedWarmupEntries, len(trace)-1)
	}
	warm := 0
	auto := false
	for warm < len(trace) {
		if !fixed && stack.Full() {
			auto = true
			break
		}
		if warm >= staticLimit {
			break
		}
		stack.Reference(trace[warm])
		warm++
	}

	recorded := 0
	for _, line := range trace[warm:] {
		d := stack.Reference(line)
		recorded++
		if d == Infinite {
			inf++
			continue
		}
		hits++
		hist[d]++
	}
	if recorded == 0 {
		return nil, errors.New("core: warmup consumed the entire " + strconv.Itoa(len(trace)) + "-entry trace")
	}

	// Effective instructions: the probing period covers the full log;
	// the histogram covers the post-warmup portion.
	instrEff := EffectiveInstructions(instructions, recorded, len(trace))
	mpki := CurveFromHist(hist, inf, instrEff, cfg)

	return &Result{
		MRC:           &MRC{MPKI: mpki},
		Hist:          hist,
		InfMisses:     inf,
		WarmupEntries: warm,
		AutoWarmup:    auto,
		Recorded:      recorded,
		StackHitRate:  float64(hits) / float64(recorded),
		Instructions:  instrEff,
		ModelCycles:   uint64(len(trace))*cfg.CostFixed + stack.Walks()*cfg.CostPerWalk,
	}, nil
}
