// Package approx provides analytical O(histogram) MRC estimators — the
// fast path that lets a million-tenant service avoid paying for a full
// Mattson simulation per curve. Instead of maintaining an LRU stack
// (O(log G) per reference), the capture side maintains a reuse-time
// histogram (one last-access table lookup per reference), and the curve
// is produced analytically from the histogram in one pass:
//
//   - CheFagin applies the characteristic-time approximation of Che's
//     LRU model (Fagin's independent-reference working-set model in the
//     form popularized by Berthet, arXiv:1705.10738): the cache size
//     occupied after time T is the expected number of distinct lines
//     touched in a window of length T, c(T) = Σ_{t≤T} P(reuse > t); the
//     miss ratio at size C is the reuse-time tail evaluated at the
//     characteristic time T(C) solving c(T) = C.
//   - FullyAssociative is the analytical fully-associative cache model in
//     the style of Gysi et al. (arXiv:2001.01653): each reuse time t is
//     mapped to its expected stack distance c(t), synthesizing a stack
//     distance histogram that is integrated through the exact
//     core.CurveFromHist pipeline.
//
// Every estimate carries a per-curve uncertainty score in [0, 1]; the
// tiered Policy serves the analytical curve only while the score (and
// the cross-estimator disagreement) stay under a threshold, escalating
// to full simulation otherwise. Estimates are property-tested to be
// monotone non-increasing with bounded miss ratios, and cross-validated
// against the simulated MRC over the workload zoo (experiments
// ext-tiers), with error broken down by curve-shape class.
package approx

import (
	"errors"
	"strconv"

	"rapidmrc/internal/core"
	"rapidmrc/internal/mem"
)

// Histogram geometry: reuse times up to fineSpan×StackLines are recorded
// at single-reference resolution; beyond that, coarse buckets of
// coarseWidth references extend the domain to roughly
// fineSpan×StackLines + coarseBuckets×coarseWidth references. Reuse
// times beyond the domain land in the overflow counter and surface in
// the uncertainty score — they cannot be resolved analytically.
const (
	fineSpan      = 2
	coarseWidth   = 512
	coarseBuckets = 4096
)

// Profile is the capture-side summary the estimators consume: a bucketed
// reuse-time histogram over the recorded (post-warmup) portion of a
// probing period. Reuse time is the number of references between two
// successive accesses to the same cache line — O(1) to maintain per
// reference, unlike the stack distance, which requires simulation.
type Profile struct {
	cfg core.Config
	// fine[t-1] counts recorded references with reuse time exactly t,
	// for t in [1, len(fine)].
	fine []uint64
	// coarse[b] counts recorded references with reuse time in
	// (len(fine)+b×coarseWidth, len(fine)+(b+1)×coarseWidth].
	coarse []uint64
	// over counts recorded references whose reuse time exceeds the
	// histogram domain; cold counts recorded first-touch references
	// (infinite reuse time). Both are misses at every modeled size.
	over, cold uint64
	// recorded and consumed mirror core.Result: histogram coverage vs
	// total references fed (warmup included).
	recorded, consumed int
}

// Estimate is one analytical MRC with its trustworthiness score.
type Estimate struct {
	// Estimator names the model that produced the curve.
	Estimator string
	// MRC is the curve in MPKI, directly comparable to the simulated
	// core.Result.MRC (same points, same normalization).
	MRC *core.MRC
	// MissRatio is the curve as per-trace-reference miss ratios, one per
	// point, each in [0, 1] and non-increasing with size.
	MissRatio []float64
	// Uncertainty scores the estimate in [0, 1]: 0 is a smooth,
	// fully-resolved curve; values near 1 mean the analytical model is
	// extrapolating (reuse mass beyond the histogram domain) or sitting
	// on a cliff of the reuse distribution, where the fluid
	// approximation is known to smear knees.
	Uncertainty float64
	// Recorded and InstrEff carry the normalization basis (references
	// behind the curve and effective instructions), so a served estimate
	// can be reported like a simulated result.
	Recorded int
	InstrEff uint64
}

// Estimator turns a reuse-time profile into an analytical MRC.
// instructions is the application progress over the profile's consumed
// window, prorated to the recorded portion exactly as core.Compute does.
type Estimator interface {
	Name() string
	Estimate(p *Profile, instructions uint64) (*Estimate, error)
}

// ErrNoSamples rejects estimating from a profile whose warmup consumed
// everything fed — the analytical analogue of a still-warming stream.
var ErrNoSamples = errors.New("approx: profile has no recorded references (still warming)")

// Shape classifies a curve for error reporting: the cross-validation
// breaks mean absolute error down by these classes.
type Shape uint8

const (
	// ShapeFlat curves lose less than a quarter of their height across
	// the modeled sizes — the analytical models' easy case.
	ShapeFlat Shape = iota
	// ShapeKnee curves concentrate at least half of their total drop at
	// a single size boundary — the cliff case the fluid approximation
	// smears.
	ShapeKnee
	// ShapeSteep curves decline substantially and gradually across many
	// sizes.
	ShapeSteep
)

// String implements fmt.Stringer.
func (s Shape) String() string {
	switch s {
	case ShapeFlat:
		return "flat"
	case ShapeKnee:
		return "knee"
	case ShapeSteep:
		return "steep"
	}
	return "shape(" + strconv.Itoa(int(s)) + ")"
}

// Shapes lists the classes in declaration order, for stable reports.
func Shapes() []Shape { return []Shape{ShapeFlat, ShapeKnee, ShapeSteep} }

// flatDropFrac and kneeConcentration are the classification boundaries:
// a curve is flat when it loses less than flatDropFrac of its height
// end to end, and a declining curve is a knee when one size boundary
// carries at least kneeConcentration of the total drop.
const (
	flatDropFrac      = 0.25
	kneeConcentration = 0.5
)

// ClassifyShape assigns a curve (MPKI or miss ratio — the classification
// is scale-free) to its shape class. Degenerate curves (empty, or
// non-positive height) classify as flat.
func ClassifyShape(curve []float64) Shape {
	if len(curve) < 2 {
		return ShapeFlat
	}
	top := curve[0]
	drop := top - curve[len(curve)-1]
	if top <= 0 || drop <= 0 || drop/top < flatDropFrac {
		return ShapeFlat
	}
	maxStep := 0.0
	for i := 1; i < len(curve); i++ {
		if s := curve[i-1] - curve[i]; s > maxStep {
			maxStep = s
		}
	}
	if maxStep/drop >= kneeConcentration {
		return ShapeKnee
	}
	return ShapeSteep
}

// Sampler is the cheap capture-side collector: it maintains a
// last-access table (an open-addressed lastTable) and the bucketed
// reuse-time histogram at O(1) per reference, mirroring the engine's
// warmup policy (record only once the distinct-line count has filled the
// modeled stack, or past the static fraction of the probing period). It is the analytical tier's
// replacement for feeding a Mattson stack. A Sampler is not safe for
// concurrent use.
type Sampler struct {
	cfg         core.Config
	target      int
	staticLimit int
	fixed       bool

	last lastTable

	fine       []uint64
	coarse     []uint64
	over, cold uint64

	consumed int
	recorded int
	warm     int
	warming  bool
	auto     bool
}

// NewSampler returns a sampler expecting a probing period of target
// references, with the warmup policy parameterized exactly as
// sample.NewEngine's at full rate (and core.Compute's over a
// target-entry trace).
func NewSampler(cfg core.Config, target int) (*Sampler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sampler{
		cfg:    cfg,
		fine:   make([]uint64, fineSpan*cfg.StackLines),
		coarse: make([]uint64, coarseBuckets),
		fixed:  cfg.FixedWarmupEntries >= 0,
	}
	s.last.alloc(minLastSlots)
	if err := s.Reset(target); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset returns the sampler to its initial state with a new probing
// period length, retaining its allocations for reuse.
func (s *Sampler) Reset(target int) error {
	if target <= 0 {
		return errors.New("approx: sampler target " + strconv.Itoa(target) + " must be positive")
	}
	s.target = target
	s.staticLimit = int(float64(target) * s.cfg.StaticWarmupFrac)
	if s.fixed {
		s.staticLimit = s.cfg.FixedWarmupEntries
		if s.staticLimit >= target {
			s.staticLimit = target - 1
		}
	}
	s.last.reset()
	clear(s.fine)
	clear(s.coarse)
	s.over, s.cold = 0, 0
	s.consumed, s.recorded, s.warm = 0, 0, 0
	s.warming = true
	s.auto = false
	return nil
}

// Warming reports whether the sampler is still inside warmup; estimates
// from its profile fail until warmup ends.
func (s *Sampler) Warming() bool { return s.warming }

// Feed consumes one corrected cache-line reference.
//
//rapidmrc:hotpath
func (s *Sampler) Feed(line mem.Line) {
	if s.warming {
		// Warmup ends when the distinct-line count fills the modeled
		// stack (the automatic policy) or at the static fraction of the
		// probing period, whichever first — the same policy the
		// simulation engines apply.
		if (!s.fixed && s.last.n >= s.cfg.StackLines) || s.warm >= s.staticLimit {
			s.warming = false
			s.auto = !s.fixed && s.last.n >= s.cfg.StackLines
		} else {
			s.last.touch(line, uint64(s.consumed))
			s.consumed++
			s.warm++
			return
		}
	}
	prev, seen := s.last.touch(line, uint64(s.consumed))
	if !seen {
		s.cold++
	} else {
		t := s.consumed - int(prev) // reuse time in references, >= 1
		switch {
		case t <= len(s.fine):
			s.fine[t-1]++
		case t <= len(s.fine)+coarseBuckets*coarseWidth:
			s.coarse[(t-len(s.fine)-1)/coarseWidth]++
		default:
			s.over++
		}
	}
	s.consumed++
	s.recorded++
}

// WarmupEntries returns the number of leading references used for
// warmup so far.
func (s *Sampler) WarmupEntries() int { return s.warm }

// AutoWarmup reports whether warmup ended through the automatic policy.
func (s *Sampler) AutoWarmup() bool { return s.auto }

// view returns a Profile that shares the sampler's live histogram
// instead of copying it. It is valid only until the next Feed or Reset,
// so it never leaves this package: Assess reads it synchronously and
// returns estimates that hold no reference to it.
func (s *Sampler) view() *Profile {
	return &Profile{
		cfg:      s.cfg,
		fine:     s.fine,
		coarse:   s.coarse,
		over:     s.over,
		cold:     s.cold,
		recorded: s.recorded,
		consumed: s.consumed,
	}
}

// Profile snapshots the sampler's histogram. The copy is independent:
// the sampler may keep feeding afterwards.
func (s *Sampler) Profile() *Profile {
	p := s.view()
	p.fine = append([]uint64(nil), s.fine...)
	p.coarse = append([]uint64(nil), s.coarse...)
	return p
}

// ProfileTrace builds a profile from a whole corrected trace in one call
// — the batch counterpart of feeding a Sampler, used by the benchsuite's
// estimator rows.
func ProfileTrace(trace []mem.Line, cfg core.Config) (*Profile, error) {
	if len(trace) == 0 {
		return nil, errors.New("approx: empty trace")
	}
	s, err := NewSampler(cfg, len(trace))
	if err != nil {
		return nil, err
	}
	for _, l := range trace {
		s.Feed(l)
	}
	// The sampler goes out of scope here, so its histogram needs no copy.
	return s.view(), nil
}
