// Package sample implements SHARDS-style spatial sampling for the MRC
// engine: references are filtered by a hash of their cache-line address
// before they reach the Mattson stack, so a probing period costs a
// fraction of the full simulation while the curve stays statistically
// faithful (Waldspurger et al., "SHARDS"; surveyed in Byrne,
// arXiv:1804.01972).
//
// The filter is threshold-based over Buckets hash buckets: a reference is
// kept iff hash(line) mod Buckets < T, giving sampling rate R = T/Buckets.
// Spatial (per-address) sampling preserves reuse structure — every
// occurrence of a sampled line is kept, so its reuse distances are
// observed exactly, just over a subsampled address population. Observed
// distances are scaled by 1/R back into the full-stack domain and
// histogram counts carry weight 1/R, so the standard CurveFromHist-style
// integration applies unchanged.
//
// The rate stays fixed for the whole probing period, as the paper's
// single probing period does (§3); SHARDS' fixed-size (s_max) variant,
// which halves the rate mid-stream, is not implemented.
//
// Every snapshot carries a confidence band at DefaultLevel, derived from
// the effective sample size (Kish: (Σw)²/Σw²) of the weighted miss
// proportion at each curve point.
//
// Engine is the repository's only streaming engine: exact profiling is
// the engine at rate 1.0 (a zero Config), where the filter passes every
// reference and Feed skips the hash. At that rate a final snapshot is
// bit-identical to core.Compute over the same trace — same histogram,
// curve, warmup outcome, stack hit rate, and modeled cycles — and the
// bands collapse to the curve (no sampling error); the property tests in
// engine_test.go and sample_test.go pin this.
package sample

import (
	"errors"
	"math"
	"strconv"

	"rapidmrc/internal/core"
	"rapidmrc/internal/mem"
)

// Buckets is the hash-space size the threshold is expressed in (the
// SHARDS modulus P). 2²⁴ buckets make the coarsest non-zero rate ~6e-8,
// far below any useful setting, while keeping the filter a mask-and-
// compare.
const Buckets = 1 << 24

const bucketMask = Buckets - 1

// DefaultLevel is the confidence level every band is built at.
const DefaultLevel = 0.95

// zScore is the two-sided normal quantile for DefaultLevel.
const zScore = 1.96

// Config parameterizes the sampler. The zero value is exact profiling:
// NewEngine reads a zero Rate as 1.0.
type Config struct {
	// Rate is the target sampling rate in (0, 1]: the fraction of the
	// cache-line address space whose references are kept. 1.0 keeps
	// everything (bit-identical to core.Compute).
	Rate float64
}

// Validate reports configuration errors. Rates outside (0, 1] and
// non-finite values are rejected here — the single validation point the
// facade options, the daemon flags, and the service Register path all
// route through.
func (c Config) Validate() error {
	if math.IsNaN(c.Rate) || c.Rate <= 0 || c.Rate > 1 {
		return &RateError{Rate: c.Rate}
	}
	return nil
}

// Normalize resolves the default NewEngine applies: a zero Rate becomes
// 1.0. Two configurations that normalize alike build engines that behave
// identically, so a pool keys on the normalized form.
func (c Config) Normalize() Config {
	if c.Rate == 0 {
		c.Rate = 1
	}
	return c
}

// RateError reports a sampling rate outside (0, 1] or non-finite.
type RateError struct{ Rate float64 }

func (e *RateError) Error() string {
	return "sample: rate " + strconv.FormatFloat(e.Rate, 'g', -1, 64) + " outside (0, 1]"
}

// hashLine spreads a cache-line address over the hash space: the
// splitmix64 finalizer, whose avalanche keeps stride-heavy synthetic
// address streams from aliasing into one bucket region. Below full rate
// it runs once per captured reference — before the filter rejects — so
// it shares Feed's allocation-free pin.
//
//rapidmrc:hotpath
func hashLine(l mem.Line) uint64 {
	x := uint64(l)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Bands is the confidence band attached to one snapshot's curve: for
// each MRC point, Low and High bound the MPKI at DefaultLevel. The band
// derives from the normal approximation to the weighted miss proportion,
// with the variance scaled by the Kish effective sample size (Σw)²/Σw²,
// which is the recorded count under the engine's single fixed weight. At
// rate 1.0 the band has zero width: the trace was exhaustive, there is
// no sampling error to bound.
type Bands struct {
	// Low and High are the per-point MPKI bounds (Low clamped at 0).
	Low, High []float64
	// EffSamples is the Kish effective sample size behind the bounds.
	EffSamples float64
	// Rate is the effective sampling rate: the configured rate quantized
	// onto the bucket grid.
	Rate float64
}

// Width returns the mean band width in MPKI — the scalar the escalation
// policies compare against a threshold.
func (b Bands) Width() float64 {
	if len(b.Low) == 0 {
		return 0
	}
	sum := 0.0
	for i := range b.Low {
		sum += b.High[i] - b.Low[i]
	}
	return sum / float64(len(b.Low))
}

// Shift moves the bounds in place by a transposition's v-offset, so the
// band keeps bracketing the shifted curve, clamping at zero as
// core.MRC.Transpose does.
func (b Bands) Shift(v float64) {
	for _, bound := range [][]float64{b.Low, b.High} {
		for i := range bound {
			bound[i] += v
			if bound[i] < 0 {
				bound[i] = 0
			}
		}
	}
}

// Engine is the incremental form of core.Compute: it consumes every
// captured reference, keeps the hash-selected fraction (all of them at
// rate 1.0), maintains the LRU stack, the warmup policy and the weighted
// stack-distance histogram as references arrive, and produces epoch
// snapshots whose curves carry confidence bands. Memory is O(StackLines)
// — no portion of the trace is retained. It is the engine the service
// pool recycles (reset-and-reuse). Not safe for concurrent use.
//
// At rate 1.0, feeding a trace and taking a final Snapshot is
// bit-identical to core.Compute over the same trace as long as target
// equals the trace length: the warmup policy's static fallback is a
// fraction of the probing-period length, which the batch path reads from
// len(trace) and the streaming path must be told up front.
type Engine struct {
	cfg  core.Config
	scfg Config

	staticLimit int
	fixed       bool

	threshold uint64  // keep iff hash & bucketMask < threshold
	rate      float64 // threshold / Buckets
	weight    float64 // 1 / rate

	stack *core.MarkerStack
	histW []float64 // weighted histogram over [1, StackLines]
	infW  float64
	hitsW float64
	sumW  float64 // Σw over recorded references
	sumW2 float64 // Σw² over recorded references

	consumed int // every reference fed, sampled or not
	post     int // references fed after warmup ended, sampled or not
	sampled  int // references passing the hash filter
	warm     int // sampled references consumed by warmup
	recorded int // sampled post-warmup references
	warming  bool
	auto     bool

	bands Bands // from the latest Snapshot
}

// NewEngine returns an engine expecting a probing period of target
// captured entries (the pre-filter count). target drives the static
// warmup fallback exactly as len(trace) does in core.Compute; feeding
// more or fewer entries is allowed (snapshots prorate over what was
// actually consumed). A zero scfg profiles exactly (rate 1.0).
func NewEngine(cfg core.Config, scfg Config, target int) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	scfg = scfg.Normalize()
	if err := scfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:   cfg,
		scfg:  scfg,
		fixed: cfg.FixedWarmupEntries >= 0,
		histW: make([]float64, cfg.StackLines+1),
	}
	// The stack only ever sees the sampled fraction of the address
	// space, so its capacity scales with the rate: distances are scaled
	// back by 1/rate, and a scaled distance beyond StackLines is an
	// infinite miss regardless — a full-size stack would spend memory
	// and walk time tracking lines whose distances cannot matter.
	rate := float64(initialThreshold(scfg.Rate)) / Buckets
	capacity := int(math.Round(float64(cfg.StackLines) * rate))
	if capacity < 1 {
		capacity = 1
	}
	// It counts range-list walks only when cfg.CostPerWalk prices them.
	e.stack = core.NewStackFor(cfg, capacity)
	if err := e.Reset(target); err != nil {
		return nil, err
	}
	return e, nil
}

// initialThreshold quantizes a configured rate onto the bucket grid.
func initialThreshold(rate float64) uint64 {
	t := uint64(math.Round(rate * Buckets))
	if t < 1 {
		t = 1
	}
	if t > Buckets {
		t = Buckets
	}
	return t
}

// Reset returns the engine to its initial state with a new
// probing-period target, retaining the stack and histogram allocations —
// the pool's reset-and-reuse entry point.
func (e *Engine) Reset(target int) error {
	if target <= 0 {
		return errors.New("sample: stream target " + strconv.Itoa(target))
	}
	e.threshold = initialThreshold(e.scfg.Rate)
	e.rate = float64(e.threshold) / Buckets
	e.weight = 1 / e.rate
	e.stack.Reset()
	clear(e.histW)
	e.infW, e.hitsW, e.sumW, e.sumW2 = 0, 0, 0, 0
	e.consumed, e.post, e.sampled, e.warm, e.recorded = 0, 0, 0, 0, 0
	e.warming = true
	e.auto = false
	e.setStaticLimit(target)
	return nil
}

// setStaticLimit sizes the warmup budget of a probing period of target
// captured entries for the rate. The budget counts
// stack references, which arrive at ~rate× the captured stream, so the
// static fraction scales with the rate (exact at rate 1.0, where this is
// core.Compute's computation).
func (e *Engine) setStaticLimit(target int) {
	sampledTarget := int(math.Round(float64(target) * e.rate))
	if sampledTarget < 1 {
		sampledTarget = 1
	}
	e.staticLimit = int(float64(sampledTarget) * e.cfg.StaticWarmupFrac)
	if e.fixed {
		e.staticLimit = int(math.Round(float64(e.cfg.FixedWarmupEntries) * e.rate))
		if e.staticLimit >= sampledTarget {
			e.staticLimit = sampledTarget - 1
		}
	}
}

// Config returns the compute configuration — the pool's matching key.
func (e *Engine) Config() core.Config { return e.cfg }

// SampleConfig returns the normalized sampling configuration — the
// second half of the pool's matching key.
func (e *Engine) SampleConfig() Config { return e.scfg }

// Rate returns the effective sampling rate: the configured rate
// quantized onto the bucket grid.
func (e *Engine) Rate() float64 { return e.rate }

// Consumed returns the number of references fed so far (pre-filter).
func (e *Engine) Consumed() int { return e.consumed }

// Sampled returns the number of references kept by the filter so far.
func (e *Engine) Sampled() int { return e.sampled }

// Warming reports whether the engine is still inside warmup.
func (e *Engine) Warming() bool { return e.warming }

// Feed consumes one captured reference. The hash filter runs first; a
// rejected reference costs one hash and one compare. At full rate the
// filter passes everything, so the hash is skipped. A kept reference
// follows core.Compute's warmup policy exactly, then records its stack
// distance scaled by the weight 1/rate.
//
//rapidmrc:hotpath
func (e *Engine) Feed(line mem.Line) {
	e.consumed++
	if e.threshold != Buckets && hashLine(line)&bucketMask >= e.threshold {
		if !e.warming {
			e.post++
		}
		return
	}
	e.sampled++
	if e.warming {
		if !e.fixed && e.stack.Full() {
			e.auto = true
			e.warming = false
		} else if e.warm >= e.staticLimit {
			e.warming = false
		} else {
			e.stack.Reference(line)
			e.warm++
			return
		}
	}
	e.post++
	d := e.stack.Reference(line)
	e.recorded++
	if e.threshold == Buckets {
		// Full rate: every weight is exactly 1 and a distance is its own
		// histogram index.
		e.sumW++
		e.sumW2++
		if d == core.Infinite {
			e.infW++
			return
		}
		e.hitsW++
		e.histW[d]++
		return
	}
	w := e.weight
	e.sumW += w
	e.sumW2 += w * w
	if d == core.Infinite {
		e.infW += w
		return
	}
	idx := int(float64(d)*w + 0.5)
	if idx > e.cfg.StackLines {
		// Scaled beyond the modeled capacity: the stack holds
		// round(StackLines×rate) lines, which can round up, so a scaled
		// distance can still pass StackLines. A miss at every size.
		e.infW += w
		return
	}
	if idx < 1 {
		idx = 1
	}
	e.hitsW += w
	e.histW[idx] += w
}

// Snapshot builds the curve from everything consumed so far, with its
// confidence band (readable via Bands until the next Snapshot).
// instructions is the application's progress over the consumed portion
// of the probing period; MPKI normalization prorates over all
// post-warmup references — sampled or not — so the time window matches
// core.Compute's. The stream may keep feeding after a snapshot; the
// snapshot is an independent copy. It fails while warmup has consumed
// every sampled reference.
func (e *Engine) Snapshot(instructions uint64) (*core.Result, error) {
	if e.recorded == 0 {
		return nil, errors.New("sample: warmup consumed all " +
			strconv.Itoa(e.sampled) + " sampled of " + strconv.Itoa(e.consumed) +
			" entries fed so far at rate " + strconv.FormatFloat(e.rate, 'g', 4, 64))
	}
	instrEff := core.EffectiveInstructions(instructions, e.post, e.consumed)
	mpki, missW := curveFromWeightedHist(e.histW, e.infW, instrEff, e.cfg)
	hist := make([]uint64, len(e.histW))
	for d, w := range e.histW {
		hist[d] = uint64(w + 0.5)
	}
	e.bands = e.deriveBands(mpki, missW, instrEff)
	return &core.Result{
		MRC:           &core.MRC{MPKI: mpki},
		Hist:          hist,
		InfMisses:     uint64(e.infW + 0.5),
		WarmupEntries: e.warm,
		AutoWarmup:    e.auto,
		Recorded:      e.recorded,
		StackHitRate:  e.hitsW / e.sumW,
		Instructions:  instrEff,
		ModelCycles:   uint64(e.warm+e.recorded)*e.cfg.CostFixed + e.stack.Walks()*e.cfg.CostPerWalk,
	}, nil
}

// Bands returns the confidence band of the most recent Snapshot. The
// zero value is returned before the first snapshot.
func (e *Engine) Bands() Bands { return e.bands }

// curveFromWeightedHist is core.CurveFromHist over the weighted
// histogram, replicating its operation order exactly so that integer-
// valued weights (rate 1.0) reproduce the serial curve bit for bit. It
// additionally returns the weighted miss sum at each point, the
// numerator of the band's miss proportion.
func curveFromWeightedHist(hist []float64, inf float64, instrEff uint64, cfg core.Config) (mpki, missW []float64) {
	mpki = make([]float64, cfg.Points)
	missW = make([]float64, cfg.Points)
	misses := inf
	bound := cfg.Points * cfg.LinesPerPoint
	for d := cfg.StackLines; d > bound; d-- {
		misses += hist[d]
	}
	for p := cfg.Points - 1; p >= 0; p-- {
		hi := (p + 1) * cfg.LinesPerPoint
		missW[p] = misses
		mpki[p] = 1000 * misses / float64(instrEff)
		for d := hi; d > hi-cfg.LinesPerPoint; d-- {
			misses += hist[d]
		}
	}
	return mpki, missW
}

// deriveBands builds the confidence band for one snapshot.
func (e *Engine) deriveBands(mpki, missW []float64, instrEff uint64) Bands {
	b := Bands{
		Low:  make([]float64, len(mpki)),
		High: make([]float64, len(mpki)),
		Rate: e.rate,
	}
	if e.threshold == Buckets {
		// Exhaustive trace: the curve is the measurement.
		copy(b.Low, mpki)
		copy(b.High, mpki)
		b.EffSamples = float64(e.recorded)
		return b
	}
	ess := e.sumW * e.sumW / e.sumW2
	b.EffSamples = ess
	for p := range mpki {
		phat := missW[p] / e.sumW
		se := math.Sqrt(phat * (1 - phat) / ess)
		half := zScore * 1000 * se * e.sumW / float64(instrEff)
		b.Low[p] = mpki[p] - half
		if b.Low[p] < 0 {
			b.Low[p] = 0
		}
		b.High[p] = mpki[p] + half
	}
	return b
}
