package core

import (
	"errors"
	"strconv"

	"rapidmrc/internal/mem"
)

// StreamCorrector is the streaming form of CorrectPrefetchRepetitions: it
// rewrites stale-SDAR repetition runs into ascending cache lines one entry
// at a time, with O(1) state and no lookahead, so corrected lines can flow
// straight into a StreamEngine as the PMU records them.
//
// It reproduces the batch rewrite exactly, including its edge behaviour:
// the entry that breaks a run is emitted verbatim and becomes the
// comparison base for its successor, but is never compared against the
// (rewritten) run tail it follows — so a raw value that happens to equal
// the last synthesized line does not seed a spurious run.
//
// The zero value is ready to use.
type StreamCorrector struct {
	havePrev  bool
	prev      mem.Line // last raw value eligible to seed a run
	inRun     bool
	base      mem.Line // first (genuine) sample of the current run
	k         mem.Line // next ascending offset to synthesize
	converted int
}

// Feed consumes one raw logged line and returns the corrected line to push
// onto the LRU stack.
func (c *StreamCorrector) Feed(line mem.Line) mem.Line {
	if !c.havePrev {
		c.havePrev = true
		c.prev = line
		return line
	}
	if c.inRun {
		if line == c.base {
			out := c.base + c.k
			c.k++
			c.converted++
			return out
		}
		// Run broken: emit verbatim; this entry seeds the next comparison.
		c.inRun = false
		c.prev = line
		return line
	}
	if line == c.prev {
		// A repetition starts a run: the first entry (prev) was the
		// genuine sample, this one becomes base+1.
		c.inRun = true
		c.base = line
		c.k = 2
		c.converted++
		return line + 1
	}
	c.prev = line
	return line
}

// Converted returns the number of entries rewritten so far (Table 2
// column e reports this as a percentage of the log).
func (c *StreamCorrector) Converted() int { return c.converted }

// Reset returns the corrector to its initial state.
func (c *StreamCorrector) Reset() { *c = StreamCorrector{} }

// StreamEngine is the incremental form of Compute: it consumes corrected
// references one at a time, maintaining the LRU stack, the running warmup
// policy, and the stack-distance histogram as the references arrive, and
// can produce an epoch snapshot of the curve at any point mid-stream.
// Memory is O(StackLines) — no portion of the trace is retained.
//
// Equivalence guarantee: feeding a trace through Feed and taking a final
// Snapshot yields results bit-identical to Compute over the same trace
// (curve, histogram, warmup outcome, stack hit rate, ModelCycles), as long
// as target equals the trace length — the warmup policy's static fallback
// is a fraction of the probing-period length, which the batch path reads
// from len(trace) and the streaming path must be told up front. The
// property tests in stream_test.go pin this.
//
// A StreamEngine is not safe for concurrent use.
type StreamEngine struct {
	cfg         Config
	target      int
	staticLimit int
	fixed       bool

	stack     Stack
	hist      []uint64
	inf, hits uint64

	consumed int
	warm     int
	recorded int
	warming  bool
	auto     bool
}

// NewStreamEngine returns an engine expecting a probing period of target
// entries. target drives the static warmup fallback (StaticWarmupFrac of
// the period) exactly as len(trace) does in Compute; feeding more or fewer
// entries than target is allowed (snapshots prorate over what was actually
// consumed), but only an exactly-target stream is guaranteed bit-identical
// to the batch path.
func NewStreamEngine(cfg Config, target int) (*StreamEngine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &StreamEngine{
		cfg:   cfg,
		stack: newStack(cfg.StackLines, cfg.GroupSize),
		hist:  make([]uint64, cfg.StackLines+1),
		fixed: cfg.FixedWarmupEntries >= 0,
	}
	if err := e.Reset(target); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset returns the engine to its initial state with a new probing-period
// target, retaining the stack's and histogram's allocations — the
// reset-and-reuse entry point of the service engine pool. A reset engine
// behaves bit-identically to a newly constructed one with the same
// configuration and target; the pool property tests pin this.
func (e *StreamEngine) Reset(target int) error {
	if target <= 0 {
		return errors.New("core: stream target " + strconv.Itoa(target))
	}
	e.target = target
	e.stack.Reset()
	clear(e.hist)
	e.inf, e.hits = 0, 0
	e.consumed, e.warm, e.recorded = 0, 0, 0
	e.warming = true
	e.auto = false
	e.staticLimit = e.cfg.staticWarmupLimit(target)
	return nil
}

// Config returns the configuration the engine was built with — the
// matching key a pool uses to decide whether a retained engine can serve
// a request.
func (e *StreamEngine) Config() Config { return e.cfg }

// Feed consumes one corrected reference: during warmup it only primes the
// stack; afterwards it records the stack distance into the histogram.
// Warmup ends the moment the stack fills (automatic policy) or the static
// limit is reached, mirroring the batch loop's per-entry checks.
func (e *StreamEngine) Feed(line mem.Line) {
	e.consumed++
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
	d := e.stack.Reference(line)
	e.recorded++
	if d == Infinite {
		e.inf++
		return
	}
	e.hits++
	e.hist[d]++
}

// Consumed returns the number of references fed so far.
func (e *StreamEngine) Consumed() int { return e.consumed }

// Recorded returns the number of post-warmup references recorded so far.
func (e *StreamEngine) Recorded() int { return e.recorded }

// Warming reports whether the engine is still inside the warmup phase
// (true until the first recorded reference's preconditions are met).
func (e *StreamEngine) Warming() bool { return e.warming }

// Target returns the expected probing-period length.
func (e *StreamEngine) Target() int { return e.target }

// Snapshot builds the curve from everything consumed so far — the
// epoch-based mid-stream read. instructions is the application's progress
// over the consumed portion of the probing period; MPKI is prorated to the
// recorded (post-warmup) part exactly as in Compute. The stream may keep
// feeding after a snapshot; the snapshot is an independent copy.
//
// It fails if warmup has consumed everything fed so far.
func (e *StreamEngine) Snapshot(instructions uint64) (*Result, error) {
	if e.recorded == 0 {
		return nil, errors.New("core: warmup consumed all " + strconv.Itoa(e.consumed) + " entries fed so far")
	}
	instrEff := EffectiveInstructions(instructions, e.recorded, e.consumed)
	hist := make([]uint64, len(e.hist))
	copy(hist, e.hist)
	return &Result{
		MRC:           &MRC{MPKI: CurveFromHist(e.hist, e.inf, instrEff, e.cfg)},
		Hist:          hist,
		InfMisses:     e.inf,
		WarmupEntries: e.warm,
		AutoWarmup:    e.auto,
		Recorded:      e.recorded,
		StackHitRate:  float64(e.hits) / float64(e.recorded),
		Instructions:  instrEff,
		ModelCycles:   uint64(e.consumed)*e.cfg.CostFixed + e.stack.Walks()*e.cfg.CostPerWalk,
	}, nil
}
