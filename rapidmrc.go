// Package rapidmrc approximates L2 miss rate curves (MRCs) online, the
// technique of Tam, Azimi, Soares & Stumm, "RapidMRC: Approximating L2
// Miss Rate Curves on Commodity Systems for Online Optimizations"
// (ASPLOS 2009).
//
// An MRC gives the L2 miss rate (in misses per kilo-instruction, MPKI) an
// application would have at every possible cache allocation. RapidMRC
// obtains it online in three steps:
//
//  1. Capture: the PMU's continuous data-address sampling is configured to
//     record the address of every L1-D miss — the L2 access stream — into
//     a trace log for a short probing period (~160k entries).
//  2. Compute: the log is corrected for prefetch-induced repetitions and
//     fed through a Mattson LRU stack simulator (with the range-list
//     optimization), yielding a stack-distance histogram and from it the
//     curve.
//  3. Transpose: the curve is vertically shifted to match the measured
//     miss rate at the currently configured cache size.
//
// Since this library targets commodity machines it cannot assume POWER5
// hardware; it ships with a faithful simulated platform (see NewSystem)
// that reproduces the PMU's sampling artifacts, the page-coloring
// partitioning mechanism, and 30 synthetic applications standing in for
// the paper's SPEC workloads. The Engine (step 2) is hardware-independent
// and consumes any trace of cache-line addresses.
//
// The typical workflow is one call:
//
//	curve, stats, trace, err := rapidmrc.Online("mcf", rapidmrc.WithSeed(42))
//
// after which curve can size cache partitions:
//
//	a, b := rapidmrc.ChoosePartition(curveA, curveB, 16)
package rapidmrc

import (
	"errors"

	"rapidmrc/internal/approx"
	"rapidmrc/internal/core"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/service"
)

// errEmptyTrace rejects a computation over a trace with no entries.
var errEmptyTrace = errors.New("rapidmrc: empty trace")

// ErrStreamClosed is returned by Stream.Feed and Stream.Snapshot after
// Close has finalized the stream (its engine has been recycled into the
// shared pool). Dispatch with errors.Is.
var ErrStreamClosed = service.ErrStreamClosed

// enginePool recycles stream engines across every facade workflow:
// Engine streams, the batch Compute entry points (and through them
// Online), System.Stream, and the Manager's recomputations all draw
// from and return to this pool, so repeated probing periods reset and
// reuse the ~stack-sized engine state instead of reallocating it.
var enginePool = service.NewEnginePool(0)

// Colors is the number of partition colors (and MRC points) on the
// modeled platform.
const Colors = 16

// TraceEntries is the paper's default probing-period length: the trace
// log holds 160k entries, roughly 10× the LRU stack size (§5.2.3).
const TraceEntries = 160_000

// Curve is a miss rate curve: MPKI at each partition size. Index 0 is one
// color.
type Curve struct {
	MPKI []float64
}

// At returns the MPKI at a 1-based number of colors. An out-of-range
// colors is clamped to the curve's domain [1, len(MPKI)] — asking for the
// miss rate beyond the largest modeled size returns the largest size's
// value (the curve is flat past the cache capacity) rather than
// panicking; an empty curve returns 0.
func (c *Curve) At(colors int) float64 {
	if len(c.MPKI) == 0 {
		return 0
	}
	return c.MPKI[clampIndex(colors-1, len(c.MPKI))]
}

// clampIndex confines a 0-based index to [0, n).
func clampIndex(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// Clone returns a deep copy.
func (c *Curve) Clone() *Curve {
	out := make([]float64, len(c.MPKI))
	copy(out, c.MPKI)
	return &Curve{MPKI: out}
}

// Transpose shifts the whole curve so point refColors matches the
// measured MPKI there (the v-offset correction, §3.2) and returns the
// shift applied. Points the shift would push below zero are clamped at 0.
// An out-of-range refColors is clamped to the curve's domain like
// Curve.At; transposing an empty curve is a no-op returning 0.
func (c *Curve) Transpose(refColors int, measured float64) float64 {
	if len(c.MPKI) == 0 {
		return 0
	}
	m := core.MRC{MPKI: c.MPKI}
	return m.Transpose(clampIndex(refColors-1, len(c.MPKI)), measured)
}

// Distance is the curve similarity metric of §5.2.1: mean absolute MPKI
// difference across all points.
func Distance(a, b *Curve) float64 {
	return core.Distance(&core.MRC{MPKI: a.MPKI}, &core.MRC{MPKI: b.MPKI})
}

// Trace is one captured probing period.
type Trace struct {
	// Lines is the logged L2 access trace (cache-line addresses), after
	// any hardware artifacts, before correction.
	Lines []uint64
	// Instructions is the application's progress during the capture,
	// used to normalize the curve to MPKI.
	Instructions uint64
	// Cycles is the wall-clock cost of the capture in CPU cycles
	// (Table 2 column a).
	Cycles uint64
	// Dropped and Stale count the hardware sampling artifacts observed.
	Dropped, Stale int
}

// Stats describes one MRC computation.
type Stats struct {
	// Converted is the number of log entries rewritten by the prefetch
	// repetition correction (Table 2 column e).
	Converted int
	// WarmupEntries and AutoWarmup describe the warmup policy outcome.
	WarmupEntries int
	AutoWarmup    bool
	// StackHitRate is the fraction of recorded references found on the
	// LRU stack (Table 2 column g).
	StackHitRate float64
	// ComputeCycles is the modeled MRC calculation cost (column b).
	ComputeCycles uint64
	// Shift is the v-offset applied by workflows that transpose
	// (0 until Transpose is called).
	Shift float64
	// Captured, Dropped, Stale and CaptureCycles describe the probing
	// period for streaming workflows (System.Stream), where no Trace is
	// materialized to carry them; Engine.Compute leaves them zero — its
	// input Trace holds the capture metadata.
	Captured      int
	Dropped       int
	Stale         int
	CaptureCycles uint64
	// SamplingRate, BandLow/BandHigh, and EffSamples describe the
	// spatial-sampling tier when the curve came from a sampled engine
	// (WithSamplingRate): the effective sampling rate, the per-point
	// confidence band around the curve at 95%, and the effective
	// (Kish) sample count behind it. Zero/nil for unsampled computations.
	// Workflows that transpose shift the band together with the curve.
	SamplingRate      float64
	BandLow, BandHigh []float64
	EffSamples        float64
}

// fromEpoch translates a session snapshot into the facade's raw
// (untransposed) curve and statistics, confidence band included when the
// session sampled; a failed snapshot passes its error through.
func fromEpoch(ep *service.Epoch, err error) (*Curve, *Stats, error) {
	if err != nil {
		return nil, nil, err
	}
	res := ep.Result
	return &Curve{MPKI: res.MRC.MPKI}, &Stats{
		Converted:     ep.Converted,
		WarmupEntries: res.WarmupEntries,
		AutoWarmup:    res.AutoWarmup,
		StackHitRate:  res.StackHitRate,
		ComputeCycles: res.ModelCycles,
		SamplingRate:  ep.SamplingRate,
		BandLow:       ep.BandLow,
		BandHigh:      ep.BandHigh,
		EffSamples:    ep.EffSamples,
	}, nil
}

// Engine computes curves from traces. The zero value is not usable; use
// NewEngine.
type Engine struct {
	cfg             core.Config
	correct         bool
	approxThreshold float64
}

// EngineOption customizes an Engine.
type EngineOption func(*Engine)

// WithStackLines overrides the LRU stack capacity (default: the L2 size
// in lines, 15,360).
func WithStackLines(n int) EngineOption {
	return func(e *Engine) { e.cfg.StackLines = n }
}

// WithoutCorrection disables the prefetch-repetition rewrite, for
// studying its effect.
func WithoutCorrection() EngineOption {
	return func(e *Engine) { e.correct = false }
}

// WithStaticWarmup overrides the fallback warmup fraction (default 0.5).
func WithStaticWarmup(frac float64) EngineOption {
	return func(e *Engine) { e.cfg.StaticWarmupFrac = frac }
}

// WithApproxThreshold sets the uncertainty score above which
// Engine.Estimate escalates from the analytical estimators to the full
// simulation (default approx.DefaultThreshold, 0.35). A threshold <= 0
// disables the analytical tier: every Estimate call simulates.
func WithApproxThreshold(t float64) EngineOption {
	return func(e *Engine) { e.approxThreshold = t }
}

// spec is the profiling session an Engine workflow opens.
func (e *Engine) spec(target int) service.TenantConfig {
	return service.TenantConfig{Engine: e.cfg, Target: target, NoCorrection: !e.correct}
}

// NewEngine returns an Engine with the paper's defaults.
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{cfg: core.DefaultConfig(), correct: true, approxThreshold: approx.DefaultThreshold}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Stream is the incremental form of Engine.Compute: references are fed
// one at a time — through the streaming prefetch-repetition corrector and
// into the incremental Mattson engine — and the curve can be snapshotted
// at any point mid-stream. Memory is O(stack), independent of the stream
// length: nothing of the trace is retained.
//
// Feeding a whole trace and taking a final Snapshot produces results
// bit-identical to Engine.Compute over the same trace (given the same
// target length and instruction count); the property tests pin this
// equivalence. A Stream is not safe for concurrent use.
//
// Streams draw their engine from the shared pool; Close recycles it.
// An abandoned (never closed) stream is still collected normally — its
// engine is simply not reused.
type Stream struct {
	sess *service.Session
}

// NewStream returns a stream expecting a probing period of targetEntries
// references — the length the warmup policy's static fallback is a
// fraction of (batch Compute reads it from len(trace); a stream must be
// told up front).
func (e *Engine) NewStream(targetEntries int) (*Stream, error) {
	sess, err := enginePool.Open(e.spec(targetEntries))
	if err != nil {
		return nil, err
	}
	return &Stream{sess: sess}, nil
}

// Feed consumes one raw logged cache-line address. It fails with
// ErrStreamClosed once the stream has been closed.
func (s *Stream) Feed(line uint64) error {
	if s.sess.Closed() {
		return ErrStreamClosed
	}
	s.sess.Feed([]uint64{line})
	return nil
}

// Close finalizes the stream and recycles its engine into the shared
// pool; subsequent Feed and Snapshot calls fail with ErrStreamClosed.
// Closing an already-closed stream is a no-op.
func (s *Stream) Close() error {
	s.sess.Close()
	return nil
}

// Entries returns the number of references fed so far (0 once closed).
func (s *Stream) Entries() int { return s.sess.Consumed() }

// Warming reports whether the stream is still inside the warmup phase;
// snapshots fail until it ends. A closed stream is not warming.
func (s *Stream) Warming() bool { return s.sess.Warming() }

// Snapshot builds the raw (untransposed) curve from everything fed so far
// — the epoch-based mid-stream read. instructions is the application's
// progress over the fed portion of the probing period, used for MPKI
// normalization. The stream may keep feeding afterwards; the snapshot is
// an independent copy. It fails while warmup has consumed everything fed.
func (s *Stream) Snapshot(instructions uint64) (*Curve, *Stats, error) {
	return fromEpoch(s.sess.Snapshot(instructions))
}

// Compute corrects the trace and runs the stack algorithm, returning the
// raw (untransposed) curve.
func (e *Engine) Compute(t *Trace) (*Curve, *Stats, error) {
	return profileTrace(e.spec(0), t)
}

// EstimateStats describes one tiered estimation: which tier produced the
// curve and the signals the decision was made on.
type EstimateStats struct {
	// Tier is "analytical" (the curve came from an O(histogram) estimator)
	// or "simulated" (the request escalated to the full stack algorithm).
	Tier string
	// Reason explains a simulated tier ("disabled", "warming",
	// "uncertain", "disagreement"); empty for an analytical serve.
	Reason string
	// Estimator names the analytical model behind an analytical curve
	// ("che"); empty when simulated.
	Estimator string
	// Uncertainty is the primary estimator's trustworthiness score in
	// [0, 1]; Disagreement is the cross-estimator consistency signal as a
	// fraction of the curve height.
	Uncertainty  float64
	Disagreement float64
	// Compute carries the full simulation's statistics when the tier
	// escalated; nil for an analytical serve (no simulation ran).
	Compute *Stats
}

// Estimate is the tiered form of Compute: the trace is reduced to a
// reuse-time histogram (O(1) per reference — no LRU stack) and the curve
// comes from the Che/Fagin characteristic-time estimator, two to three
// orders of magnitude cheaper than the stack algorithm. The estimate is
// returned only when its uncertainty score and its disagreement with a
// second analytical model are within the engine's threshold
// (WithApproxThreshold); otherwise Estimate transparently falls back to
// the exact computation, and the returned stats say which tier ran and
// why. The curve is raw (untransposed) either way, directly comparable
// to Compute's.
func (e *Engine) Estimate(t *Trace) (*Curve, *EstimateStats, error) {
	if t == nil || len(t.Lines) == 0 {
		return nil, nil, errEmptyTrace
	}
	smp, err := approx.NewSampler(e.cfg, len(t.Lines))
	if err != nil {
		return nil, nil, err
	}
	var corr core.StreamCorrector
	for _, l := range t.Lines {
		line := mem.Line(l)
		if e.correct {
			line = corr.Feed(line)
		}
		smp.Feed(line)
	}
	pol := approx.NewPolicy(approx.PolicyConfig{Threshold: e.approxThreshold})
	primary, _, d := approx.Assess(pol, smp, t.Instructions, false)
	st := &EstimateStats{
		Tier:         d.Tier.String(),
		Reason:       d.Reason,
		Uncertainty:  d.Uncertainty,
		Disagreement: d.Disagreement,
	}
	if d.Tier == approx.TierAnalytical {
		st.Estimator = primary.Estimator
		return &Curve{MPKI: primary.MRC.MPKI}, st, nil
	}
	curve, cs, err := e.Compute(t)
	if err != nil {
		return nil, nil, err
	}
	st.Compute = cs
	return curve, st, nil
}

// profileTrace opens a session for spec with the trace length as its
// target, feeds it the whole trace and snapshots it — which reproduces
// the batch computation bit-identically, pinned by the stream-vs-batch
// property tests — then recycles the engine.
func profileTrace(spec service.TenantConfig, t *Trace) (*Curve, *Stats, error) {
	if t == nil || len(t.Lines) == 0 {
		return nil, nil, errEmptyTrace
	}
	spec.Target = len(t.Lines)
	sess, err := enginePool.Open(spec)
	if err != nil {
		return nil, nil, err
	}
	defer sess.Close()
	sess.Feed(t.Lines)
	return fromEpoch(sess.Snapshot(t.Instructions))
}
