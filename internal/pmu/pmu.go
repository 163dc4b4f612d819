// Package pmu models the POWER5 performance monitoring unit as RapidMRC
// uses it: event counters, the sampled data address register (SDAR) with
// continuous data sampling, and counter-overflow exceptions configured to
// fire on every L1-D miss during a probing period.
//
// The model includes the two documented infidelities of the real hardware
// (§3.1.1 of the paper), because RapidMRC's evaluation is largely about
// coping with them:
//
//   - Overlap loss: with multiple L1-D misses in flight on an out-of-order
//     core, the later miss may never update the SDAR — after the exception
//     flush it re-issues and hits, so the event vanishes from the trace.
//   - Prefetch staleness: hardware prefetch bursts do not update the SDAR,
//     so the exception handler re-records the previous value, producing
//     runs of identical entries in the log.
package pmu

import (
	"math/rand"

	"rapidmrc/internal/mem"
)

// Counters holds the free-running event counters the platform exposes.
// All counts are demand traffic; prefetch fills are counted separately.
type Counters struct {
	// L1DMisses counts load/store misses in the L1 data cache — the SDAR
	// selection criterion RapidMRC programs.
	L1DMisses uint64
	// L2Accesses counts demand accesses reaching the L2 (L1-D load
	// misses, store write-throughs, and L1-I misses).
	L2Accesses uint64
	// L2Misses counts demand L2 misses; MPKI is computed from this.
	L2Misses uint64
	// PrefetchFills counts lines installed in the L2 by the prefetcher.
	PrefetchFills uint64
}

// TraceStats describes one completed probing period.
type TraceStats struct {
	// Captured is the number of entries delivered to the sink.
	Captured int
	// Dropped counts L1-D misses lost to overlap (no log entry at all).
	Dropped int
	// Stale counts log entries recorded while the SDAR held a stale value
	// because a prefetch burst was in flight; these appear as repeats.
	Stale int
	// Instructions and Cycles are the application progress during the
	// probing period, for MPKI normalization and overhead reporting.
	Instructions uint64
	Cycles       uint64
}

// Sink consumes sampled line addresses as the PMU records them: the
// exception handler's log append (§3.1), or whatever a consumer does in
// its place. The PMU calls Sample synchronously from the overflow
// exception path (or the trace-buffer drain), so a sink sees entries in
// exactly the order the log would hold them; it must not re-enter the
// PMU.
type Sink interface {
	Sample(line mem.Line)
}

// Stopper is a Sink that may end the probing period before the log is
// full. The PMU asks it after every entry it delivers; once Stopped
// reports true, so does TraceFull, and a capture loop ends after the
// current step.
type Stopper interface {
	Sink
	Stopped() bool
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(line mem.Line)

// Sample implements Sink.
func (f SinkFunc) Sample(line mem.Line) { f(line) }

// PMU is the per-core monitoring unit. It is not safe for concurrent use.
type PMU struct {
	rng      *rand.Rand
	counters Counters

	sdar      mem.Line
	sdarValid bool
	staleLeft int

	tracing    bool
	target     int
	captured   int
	sink       Sink
	stopper    Stopper // sink as a Stopper, nil when it is not one
	ended      bool    // the stopper ended the period
	tstats     TraceStats
	startInstr uint64
	startCyc   uint64

	// bufferSize > 1 enables the "future PMU" of §6: samples accumulate
	// in a hardware trace buffer and the overflow exception fires only
	// when the buffer fills, amortizing its cost; the buffer captures
	// every in-flight access, so overlap drops and stale-SDAR
	// repetitions do not occur.
	bufferSize int
	buffered   int
}

// New returns a PMU whose stochastic artifacts are driven by seed.
func New(seed int64) *PMU {
	return &PMU{rng: rand.New(rand.NewSource(seed)), bufferSize: 1}
}

// SetTraceBuffer configures the trace-buffer depth. Depth 1 (the
// default) is the real POWER5: a single SDAR register and an exception on
// every qualifying event, with the overlap and staleness artifacts of
// §3.1.1. Depth > 1 models the hardware the paper wishes for in §6: the
// exception cost is paid once per full buffer and the buffer records
// every access faithfully.
func (p *PMU) SetTraceBuffer(depth int) {
	if depth < 1 {
		depth = 1
	}
	p.bufferSize = depth
}

// Counters returns a copy of the counter block.
func (p *PMU) Counters() Counters { return p.counters }

// OnL2Access records one demand L2 access and whether it missed.
//
//rapidmrc:hotpath
func (p *PMU) OnL2Access(miss bool) {
	p.counters.L2Accesses++
	if miss {
		p.counters.L2Misses++
	}
}

// OnPrefetchFill records a prefetcher-installed L2 line and marks the SDAR
// busy for the burst: the next burstLen qualifying events will record a
// stale SDAR value instead of their own address.
//
//rapidmrc:hotpath
func (p *PMU) OnPrefetchFill(burstLen int) {
	p.counters.PrefetchFills += uint64(burstLen)
	if burstLen > p.staleLeft {
		p.staleLeft = burstLen
	}
}

// StartTrace arms continuous data sampling with an overflow threshold of
// one, targeting n log entries, and streams every recorded entry into
// sink: the memory cost of a probing period is the sink's own state, a
// log only if the sink keeps one. Both the per-event-exception mode and
// the §6 trace-buffer mode deliver through the sink. sink must not be
// nil; a sink that is also a Stopper can end the period early. instr and
// cycles timestamp the start.
func (p *PMU) StartTrace(sink Sink, n int, instr, cycles uint64) {
	p.tracing = true
	p.target = n
	p.captured = 0
	p.sink = sink
	p.stopper, _ = sink.(Stopper)
	p.ended = false
	p.tstats = TraceStats{}
	p.startInstr = instr
	p.startCyc = cycles
	p.buffered = 0
}

// record delivers one sampled entry to the sink.
//
//rapidmrc:hotpath
func (p *PMU) record(line mem.Line) {
	p.captured++
	p.sink.Sample(line)
	if p.stopper != nil && p.stopper.Stopped() {
		p.ended = true
	}
}

// TraceFull reports whether the log has reached its target length, or
// the sink has ended the period.
func (p *PMU) TraceFull() bool { return p.tracing && (p.captured >= p.target || p.ended) }

// FinishTrace disarms sampling and returns the probing period's stats.
// instr and cycles timestamp the end. It may be called before the target
// is reached, as it is once a Stopper sink ends the period.
func (p *PMU) FinishTrace(instr, cycles uint64) TraceStats {
	p.tracing = false
	p.tstats.Captured = p.captured
	p.tstats.Instructions = instr - p.startInstr
	p.tstats.Cycles = cycles - p.startCyc
	p.sink, p.stopper = nil, nil
	return p.tstats
}

// OnL1DMiss processes one qualifying event. line is the physical line that
// missed; overlapped says the core had another miss in flight;
// dropPermille is the loss probability for overlapped events (from the
// core's timing). It returns whether an overflow exception was raised —
// the caller charges its cycle cost while tracing.
//
//rapidmrc:hotpath
func (p *PMU) OnL1DMiss(line mem.Line, overlapped bool, dropPermille uint64) (exception bool) {
	p.counters.L1DMisses++

	if p.bufferSize > 1 {
		// Future-PMU path: the buffer records the true address of every
		// event; the exception amortizes over the buffer depth.
		if !p.tracing || p.captured >= p.target {
			return false
		}
		p.record(line)
		p.buffered++
		if p.buffered >= p.bufferSize || p.captured >= p.target {
			p.buffered = 0
			return true
		}
		return false
	}

	if overlapped && dropPermille > 0 && uint64(p.rng.Intn(1000)) < dropPermille {
		// The in-flight miss re-issues as a hit after the flush: no SDAR
		// update, no overflow, no log entry.
		if p.tracing {
			p.tstats.Dropped++
		}
		return false
	}

	if p.staleLeft > 0 {
		// Prefetch burst in flight: SDAR keeps its old value.
		p.staleLeft--
		if p.tracing {
			p.tstats.Stale++
		}
	} else {
		p.sdar = line
		p.sdarValid = true
	}

	if !p.tracing || p.captured >= p.target {
		return false
	}
	rec := p.sdar
	if !p.sdarValid {
		// Nothing sampled yet since power-on; hardware would expose
		// whatever the register held. Record the line itself.
		rec = line
	}
	p.record(rec)
	return true
}
