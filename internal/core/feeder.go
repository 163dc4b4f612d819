package core

import (
	"errors"
	"strconv"

	"rapidmrc/internal/mem"
)

// Feeder is the StreamEngine-compatible face of ComputeParallel: it
// accepts corrected references one at a time and serves mid-stream
// snapshots, exposing the same Feed/Consumed/Recorded/Warming/Target/
// Snapshot surface and the same warmup semantics as StreamEngine.
//
// Unlike StreamEngine — which folds each reference into O(StackLines)
// state as it arrives — the Feeder buffers the references and runs the
// chunked parallel computation at Snapshot time. That is the inherent
// trade of the PARDA decomposition: chunk boundaries can only be
// reconciled once the chunks exist, so memory is O(consumed) and each
// snapshot costs a full (parallel) recompute rather than an O(points)
// read-out. Use it when snapshots are taken once or twice per probing
// period and trace throughput is the bottleneck; use StreamEngine when
// snapshots are frequent or memory is tight.
//
// Warming() is answered incrementally (a running first-touch count stands
// in for the serial stack's Full() signal: before the stack fills, every
// miss is a first touch — see replayStack), so it stays
// O(1) per Feed and agrees with StreamEngine.Warming after every call.
// A Feeder is not safe for concurrent use.
type Feeder struct {
	cfg     Config
	target  int
	workers int

	refs []mem.Line

	staticLimit int
	fixed       bool
	warming     bool
	warm        int
	coldN       int
	auto        bool
	seen        *lineTable // first-touch tracking, only while warming
}

// NewFeeder returns a feeder expecting a probing period of target entries
// (the length the static warmup fallback is a fraction of, exactly as in
// NewStreamEngine) that will snapshot with up to workers concurrent
// chunk passes (runner.Workers semantics).
func NewFeeder(cfg Config, target, workers int) (*Feeder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if target <= 0 {
		return nil, errors.New("core: stream target " + strconv.Itoa(target))
	}
	f := &Feeder{
		cfg:   cfg,
		refs:  make([]mem.Line, 0, target),
		fixed: cfg.FixedWarmupEntries >= 0,
	}
	if err := f.Reset(target, workers); err != nil {
		return nil, err
	}
	return f, nil
}

// Reset returns the feeder to its initial state with a new target and
// worker count, retaining the reference buffer's and first-touch table's
// allocations — the reset-and-reuse entry point of the service engine
// pool. A reset feeder behaves bit-identically to a newly constructed one
// with the same configuration, target, and workers.
func (f *Feeder) Reset(target, workers int) error {
	if target <= 0 {
		return errors.New("core: stream target " + strconv.Itoa(target))
	}
	f.target = target
	f.workers = workers
	f.refs = f.refs[:0]
	f.warming = true
	f.warm, f.coldN = 0, 0
	f.auto = false
	if f.seen == nil {
		f.seen = newLineTable(1024)
	} else {
		f.seen.reset()
	}
	f.staticLimit = f.cfg.staticWarmupLimit(target)
	return nil
}

// Config returns the configuration the feeder was built with — the
// matching key a pool uses to decide whether a retained feeder can serve
// a request.
func (f *Feeder) Config() Config { return f.cfg }

// Workers returns the configured chunk-pass worker count.
func (f *Feeder) Workers() int { return f.workers }

// Feed consumes one corrected reference. It mirrors StreamEngine.Feed's
// warmup bookkeeping: warmup ends the moment the (virtual) stack fills or
// the static limit is reached, observed on the first reference past the
// boundary.
func (f *Feeder) Feed(line mem.Line) {
	f.refs = append(f.refs, line)
	if !f.warming {
		return
	}
	if !f.fixed && f.coldN >= f.cfg.StackLines {
		f.auto = true
		f.warming = false
		f.seen = nil
		return
	}
	if f.warm >= f.staticLimit {
		f.warming = false
		f.seen = nil
		return
	}
	if _, ok := f.seen.touch(line, 0, 0); !ok {
		f.coldN++
	}
	f.warm++
}

// Consumed returns the number of references fed so far.
func (f *Feeder) Consumed() int { return len(f.refs) }

// Recorded returns the number of post-warmup references so far.
func (f *Feeder) Recorded() int {
	if f.warming {
		return 0
	}
	return len(f.refs) - f.warm
}

// Warming reports whether the feeder is still inside the warmup phase.
func (f *Feeder) Warming() bool { return f.warming }

// Target returns the expected probing-period length.
func (f *Feeder) Target() int { return f.target }

// Snapshot runs the chunked parallel computation over everything fed so
// far. instructions is the application's progress over the consumed
// portion; MPKI is prorated to the recorded part exactly as in
// StreamEngine.Snapshot, and the result is bit-identical to it given the
// same feed sequence. It fails while warmup has consumed everything fed.
func (f *Feeder) Snapshot(instructions uint64) (*Result, error) {
	if f.warming {
		return nil, errors.New("core: warmup consumed all " +
			strconv.Itoa(len(f.refs)) + " entries fed so far")
	}
	res, err := compute(f.refs, instructions, f.cfg, f.target, f.workers)
	if err == errAllWarmup {
		// Unreachable when the incremental warmup tracking is correct (the
		// property tests pin Warming ≡ StreamEngine.Warming), kept as a
		// defensive translation.
		return nil, errors.New("core: warmup consumed all " +
			strconv.Itoa(len(f.refs)) + " entries fed so far")
	}
	return res, err
}
