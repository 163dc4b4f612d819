package platform

import (
	"fmt"
	"math"

	"rapidmrc/internal/mem"
)

// The machine reads its own workload through a ring of readAheadDepth
// buffers of readAheadBatch refs each (64 KiB per buffer), allocated once
// per machine on first use. While RunInstructions, RunRefs or
// CollectTrace runs, a producer goroutine fills free buffers from the
// generator and queues them in stream order, so generating the next batch
// overlaps stepping the current one on a second CPU. An external Step
// refills inline from the same queue: it first drains the batches an
// earlier run left queued, then reads the generator itself.
//
// The generator's output does not depend on machine state, so the
// reference sequence the machine consumes is the same whichever side
// generated a batch; only the generator's own position runs ahead, by up
// to readAheadDepth batches. A bounded run generates no more than it may
// step: RunRefs budgets its producer in refs, RunInstructions in the
// instructions the refs retire.
const (
	// readAheadBatch is one read-ahead buffer, in refs. 1,024-ref batches
	// left the pipeline visibly less effective: the per-batch handoff is
	// paid more often and the two sides stall on each other more.
	readAheadBatch = 4096
	// readAheadDepth is the number of buffers in the ring: one being
	// stepped, the rest filled or being filled ahead of it. The ring
	// takes 1 MiB per machine. Once the generator and the machine cost
	// about the same per ref, a deeper ring absorbs their batch-to-batch
	// jitter: rapidmrc.Online over the zoo ran about 8% faster at 16
	// than at 4 on a 2-CPU Xeon.
	readAheadDepth = 16
	// unbounded is the budget of a run whose length is not known up
	// front, such as a capture.
	unbounded = math.MaxUint64
)

// span is a stretch of the stream measured both ways: its refs and the
// instructions they retire, each ref its Gap plus itself.
type span struct{ refs, instr uint64 }

func (s *span) add(refs []mem.Ref) {
	s.refs += uint64(len(refs))
	for _, r := range refs {
		s.instr += uint64(r.Gap) + 1
	}
}

// batch is one filled read-ahead buffer: refs[:n] are the next n refs of
// the stream, and size measures them. n < len(refs) means the stream
// ended after them. A non-nil fault is a panic the generator raised on
// the producer, re-raised by the machine when it reaches that point of
// the stream.
type batch struct {
	refs  []mem.Ref
	n     int
	size  span
	fault any
}

// readAhead is the machine's buffer ring and batch queue. Every buffer is
// at any time in exactly one place: free, queued in full, held by the
// producer while it fills it, or being stepped by the machine — so
// neither channel ever holds more than readAheadDepth items and no send
// on them blocks.
type readAhead struct {
	free chan []mem.Ref
	full chan batch
	// stop and done belong to the running producer; both are nil when
	// none runs.
	stop chan struct{}
	done chan struct{}
	// made measures the batches producers queued and taken those the
	// machine took off the queue, so made minus taken is what is queued
	// while no producer runs. made belongs to the running producer until
	// done closes.
	made, taken span
}

func newReadAhead() *readAhead {
	ra := &readAhead{
		free: make(chan []mem.Ref, readAheadDepth),
		full: make(chan batch, readAheadDepth),
	}
	for i := 0; i < readAheadDepth; i++ {
		ra.free <- make([]mem.Ref, readAheadBatch)
	}
	return ra
}

// produce fills free buffers from gen in stream order until the batches
// it queued reach need in refs or in instructions, stop closes or the
// stream ends, then closes done. It touches only gen, ra.made and the
// buffers it takes from free.
func (ra *readAhead) produce(gen mem.Generator, need span, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		// A pending stop wins over a free buffer, so stopping does not
		// wait for a batch nobody asked for.
		select {
		case <-stop:
			return
		default:
		}
		var buf []mem.Ref
		select {
		case <-stop:
			return
		case buf = <-ra.free:
		}
		b := fillBatch(gen, buf)
		if b.fault != nil {
			ra.free <- buf
		}
		ra.full <- b
		ra.made.refs += b.size.refs
		ra.made.instr += b.size.instr
		if b.fault != nil || b.n < len(buf) || b.size.refs >= need.refs || b.size.instr >= need.instr {
			return
		}
		need.refs -= b.size.refs
		need.instr -= b.size.instr
	}
}

// fillBatch reads the next batch of gen into buf, capturing a generator
// panic so that it reaches the machine's goroutine instead of killing the
// process from the producer's.
func fillBatch(gen mem.Generator, buf []mem.Ref) (b batch) {
	defer func() {
		if p := recover(); p != nil {
			b = batch{fault: p}
		}
	}()
	b.refs, b.n = buf, mem.ReadBatch(gen, buf)
	b.size.add(buf[:b.n])
	return b
}

// readAhead returns the machine's ring, allocating it on first use.
func (m *Machine) readAhead() *readAhead {
	if m.ra == nil {
		m.ra = newReadAhead()
	}
	return m.ra
}

// refill makes the next batch of the stream current: the oldest queued
// batch if there is one or a producer runs, otherwise one read inline.
func (m *Machine) refill() {
	if m.ended {
		panic(m.endOfStream())
	}
	ra := m.readAhead()
	if m.refBuf != nil {
		ra.free <- m.refBuf
		m.refBuf = nil
	}
	var b batch
	if ra.stop != nil {
		b = <-ra.full
	} else {
		select {
		case b = <-ra.full:
		default:
			b = batch{refs: <-ra.free}
			b.n = mem.ReadBatch(m.gen, b.refs)
		}
	}
	ra.taken.refs += b.size.refs
	ra.taken.instr += b.size.instr
	if b.fault != nil {
		panic(b.fault)
	}
	m.refBuf, m.refPos, m.refLen = b.refs, 0, b.n
	m.taken += uint64(b.n)
	m.ended = b.n < len(b.refs)
	if b.n == 0 {
		panic(m.endOfStream())
	}
}

// endOfStream is the panic value for a machine whose generator has run
// dry: the synthetic workloads are infinite, so running past the end of a
// finite stream is a bug in the caller or the generator.
func (m *Machine) endOfStream() string {
	return fmt.Sprintf("platform: generator %q ended after %d refs", m.gen.Name(), m.taken)
}

// startReadAhead starts the producer for a run that consumes at most
// limit.refs more refs or retires at most limit.instr more instructions,
// whichever it reaches first, and reports whether it did. The producer
// generates at most the batches limit needs beyond the rest of the current
// batch and those already queued. A run those already cover, or a stream
// known to have ended, stays inline. A caller that gets true must call
// stopReadAhead before it returns, on every path.
func (m *Machine) startReadAhead(limit span) bool {
	var ahead span
	ahead.add(m.refBuf[m.refPos:m.refLen])
	if m.ra != nil {
		ahead.refs += m.ra.made.refs - m.ra.taken.refs
		ahead.instr += m.ra.made.instr - m.ra.taken.instr
	}
	if m.ended || limit.refs <= ahead.refs || limit.instr <= ahead.instr {
		return false
	}
	ra := m.readAhead()
	ra.stop, ra.done = make(chan struct{}), make(chan struct{})
	go ra.produce(m.gen, span{limit.refs - ahead.refs, limit.instr - ahead.instr}, ra.stop, ra.done)
	return true
}

// stopReadAhead stops the producer and waits for it to exit. The batches
// it filled stay queued, in order, for the next run or Step.
func (m *Machine) stopReadAhead() {
	ra := m.ra
	close(ra.stop)
	<-ra.done
	ra.stop, ra.done = nil, nil
}
