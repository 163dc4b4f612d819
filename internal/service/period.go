package service

import "rapidmrc/internal/mem"

// feedChunk is the number of log entries a period hands its feeder at a
// time: 32 KiB of trace, about 0.4 ms of engine work.
const feedChunk = 4096

// feedDepth is how many chunks a feeder may have queued; the capture
// blocks on a full queue until the feeder takes one. The feeder needs
// well under half the capture's time per chunk, so the queue only
// absorbs scheduling jitter; 8 chunks (256 KiB of trace) do that, and a
// stalled capture never waits long for the feeder to catch up.
const feedDepth = 8

// Period is one probing period as RunPeriod feeds it into a session: a
// capture step that logs the entries, and the epochs it is cut into.
type Period struct {
	// Capture runs on the calling goroutine and hands every logged entry,
	// in order, to rec.Sample (rec is a pmu.Sink). Once rec.Stopped
	// reports true it ends the capture after the current machine step; a
	// PMU trace into rec ends by itself.
	Capture func(rec *Recorder)
	// Keep > 0 keeps the whole log, allocated for Keep entries: RunPeriod
	// returns it, and the feeder reads slices of it, never a copy. Zero
	// streams the period through chunk buffers the feeder drops.
	Keep int
	// EpochEntries > 0 with OnEpoch set ends an epoch at every entry
	// whose count is a multiple of EpochEntries.
	EpochEntries int
	// Clock returns the application's progress over the first n
	// entries. The capture reads it when it logs an epoch's last entry.
	Clock func(n int) uint64
	// OnEpoch receives each epoch's snapshot on the feeder goroutine,
	// once the session holds exactly the epoch's entries; an epoch whose
	// snapshot fails, inside warmup, is skipped. Returning true ends the
	// period there. The capture waits at every epoch's last entry for
	// the verdict, so a period ends at the same entry however the two
	// goroutines are scheduled.
	OnEpoch func(ep *Epoch) (stop bool)
}

// Recorder is a running period's capture side: it logs entries, hands
// them to the feeder in chunks, and cuts the epochs.
type Recorder struct {
	log     []uint64 // entries from sent on are not handed off yet
	sent    int
	keep    bool
	logged  int
	every   int // epoch length; 0 cuts no epochs
	next    int // the entry count that ends the next epoch
	clock   func(n int) uint64
	stopped bool
	f       *feeder
}

// Sample logs one entry; at an epoch's last entry it hands the epoch
// over and waits for its verdict.
func (r *Recorder) Sample(line mem.Line) {
	r.log = append(r.log, uint64(line))
	r.logged++
	switch {
	case r.logged == r.next:
		r.next += r.every
		r.handoff(chunk{epoch: true, instr: r.clock(r.logged)})
		stop, ok := <-r.f.verdicts
		r.stopped = r.stopped || stop || !ok
	case len(r.log)-r.sent == feedChunk || len(r.log) == cap(r.log):
		r.handoff(chunk{})
	}
}

// Stopped reports whether the period has ended: an epoch's verdict
// stopped it, or the feeder failed.
func (r *Recorder) Stopped() bool { return r.stopped }

// handoff sends the entries logged since the last handoff as c.
func (r *Recorder) handoff(c chunk) {
	c.lines = r.log[r.sent:len(r.log):len(r.log)]
	r.sent = len(r.log)
	if !r.keep && len(r.log) == cap(r.log) {
		r.log, r.sent = make([]uint64, 0, feedChunk), 0
	}
	if !r.f.send(c) {
		r.stopped = true
	}
}

// RunPeriod runs p's capture on the calling goroutine while one feeder
// goroutine feeds the session chunk by chunk and takes p's epoch
// snapshots; it returns once the session holds every entry the capture
// logged, with the log when p.Keep > 0. Without OnEpoch the capture never
// waits for the feeder, beyond a full queue. A panic in the capture or on
// the feeder is re-raised on the caller's goroutine, after the feeder
// has exited.
func (s *Session) RunPeriod(p Period) []uint64 {
	r := &Recorder{keep: p.Keep > 0, clock: p.Clock, f: startFeeder(s, p.OnEpoch)}
	defer r.f.stop() // also when the capture panics
	if p.EpochEntries > 0 && p.OnEpoch != nil {
		r.every, r.next = p.EpochEntries, p.EpochEntries
	}
	size := feedChunk
	if r.keep {
		size = p.Keep
	}
	r.log = make([]uint64, 0, size)
	p.Capture(r)
	if r.sent < len(r.log) {
		r.handoff(chunk{})
	}
	r.f.finish()
	if !r.keep {
		return nil
	}
	return r.log
}

// chunk is one handoff: lines to feed, and at an epoch's last entry the
// progress the capture stamped there.
type chunk struct {
	lines []uint64
	epoch bool
	instr uint64
}

// feeder feeds a session on its own goroutine, chunk by chunk, in the
// order the chunks are sent, and snapshots at each epoch. The goroutine
// exits once stop is called and the queue is drained, or as soon as
// feeding, snapshotting or the epoch callback panics; the panic is kept
// for finish to re-raise on the caller's goroutine.
type feeder struct {
	chunks chan chunk
	// verdicts carries each epoch's stop verdict to the capture, which
	// waits for it, and is closed when the goroutine exits.
	verdicts chan bool
	// fault is a panic raised on the feeder, read only once verdicts is
	// closed.
	fault   any
	stopped bool
}

func startFeeder(sess *Session, onEpoch func(*Epoch) bool) *feeder {
	f := &feeder{chunks: make(chan chunk, feedDepth), verdicts: make(chan bool, 1)}
	go f.run(sess, onEpoch)
	return f
}

func (f *feeder) run(sess *Session, onEpoch func(*Epoch) bool) {
	defer close(f.verdicts)
	defer func() { f.fault = recover() }()
	for c := range f.chunks {
		sess.Feed(c.lines)
		if c.epoch {
			ep, err := sess.Snapshot(c.instr)
			f.verdicts <- err == nil && onEpoch(ep)
		}
	}
}

// send queues one chunk and reports whether the feeder is still alive.
// After a feeder panic the chunk is dropped: finish re-raises the panic
// once the capture ends. The capture takes every verdict before it
// sends again, so the only thing send can receive is the close.
func (f *feeder) send(c chunk) bool {
	select {
	case f.chunks <- c:
		return true
	case <-f.verdicts:
		return false
	}
}

// stop closes the queue and waits for the goroutine to exit. Calling it
// again is a no-op.
func (f *feeder) stop() {
	if f.stopped {
		return
	}
	f.stopped = true
	close(f.chunks)
	for range f.verdicts {
	}
}

// finish stops the feeder and re-raises a panic it recovered.
func (f *feeder) finish() {
	f.stop()
	if f.fault != nil {
		panic(f.fault)
	}
}
