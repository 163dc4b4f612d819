package platform

import (
	"fmt"

	"rapidmrc/internal/color"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/runner"
	"rapidmrc/internal/workload"
)

// The shared-stream sweep: the exhaustive measurements of §5.2.1 run the
// *identical* deterministic reference stream once per partition size —
// sixteen full simulations per application, fifteen of which regenerate a
// stream that was already computed. The fan-out replay below generates
// each chunk of the stream once and steps every partition-size machine
// over it. Per-machine state (caches, mapper, PMU randomness, timing)
// stays fully independent, and because each machine sees exactly the refs
// its private generator would have produced, the results are bit-identical
// to the per-machine runs (property-tested in sweep_test.go).
//
// The machines do not step refs but events. The L1-D is virtually indexed
// and virtually tagged, is never reached by physical-side events, and its
// replacement state depends only on the stream, so its outcomes are one
// more shared function of the stream: a leader L1 simulates it once per
// chunk, and the chunk is compacted to the refs that reach the L2 — L1-D
// load misses and every store. An L1 load hit does nothing on a machine
// but retire its instructions at the base CPI, and Core.Advance is linear
// (Advance(a); Advance(b) leaves the core exactly as Advance(a+b)), so a
// machine advances straight to each event's absolute instruction position
// and its PMU, translation, L2, L3 and prefetcher see what StepRef would
// have shown them, in the same order and at the same instruction counts.

// sweepChunkRefs is the number of refs generated per chunk. Every machine
// reads a chunk's events, so they should stay in the host's caches: 64 Ki
// refs make at most 1.5 MiB of 24-byte events, 0.2–0.9 MiB at the L2-bound
// shares of the bundled workloads (0.14–0.58). One pool dispatch per chunk
// is still spread over 16 × 64 Ki machine refs; 32 Ki- to 256 Ki-ref
// chunks swept equally fast on a 2-CPU Xeon, and the smaller the chunk,
// the smaller the sweep's two buffers.
const sweepChunkRefs = 1 << 16

// eventKind says what an L2-bound ref does on a machine.
type eventKind uint8

const (
	// loadMiss is a load that missed the L1-D.
	loadMiss eventKind = iota
	// storeMiss is a store that missed the L1-D: a PMU qualifying event
	// plus a write-through to the L2.
	storeMiss
	// storeHit is a store that hit the L1-D: a write-through only.
	storeHit
)

// event is one L2-bound ref of the shared stream.
type event struct {
	vline mem.Line
	// instr is the absolute instruction count after the ref, so a sweep
	// can cut a chunk at any ref without compacting it again.
	instr uint64
	kind  eventKind
}

// sweepChunk is one generated piece of the stream and its events.
type sweepChunk struct {
	// refs[:n] are the chunk's refs; n < len(refs) means the stream ended
	// after them.
	refs []mem.Ref
	n    int
	// fault is a panic the generator raised while the chunk was built,
	// re-raised on the sweep's goroutine when it reaches the chunk.
	fault any
	evs   []event
	// end is the absolute instruction count after refs[n-1].
	end uint64
}

// sharedSweep replays one generator's stream through a set of machines.
type sharedSweep struct {
	gen     mem.Generator
	ms      []*Machine
	workers int

	// l1 is the leader L1-D simulation.
	l1 *l1d

	// cur is the chunk being stepped: refs[:pos] and evs[:ev] of it are
	// consumed. next is the other buffer; ready, set by every step, says
	// the step built the chunk after cur into it.
	cur, next *sweepChunk
	ready     bool
	pos, ev   int
	// instr is the instruction count every machine has reached: machines
	// advance by Gap+1 instructions per ref and all consume the same
	// stream, so one counter stands for all of them.
	instr uint64
	// taken counts the refs of every chunk made current so far.
	taken uint64
}

// newSharedSweep returns a sweep over gen that generates chunkRefs refs
// at a time (sweepChunkRefs outside tests).
func newSharedSweep(gen mem.Generator, ms []*Machine, workers, chunkRefs int) *sharedSweep {
	newChunk := func() *sweepChunk {
		return &sweepChunk{refs: make([]mem.Ref, chunkRefs), evs: make([]event, 0, chunkRefs)}
	}
	// cur starts as a consumed, full chunk, so the first step builds one.
	cur := newChunk()
	cur.n = chunkRefs
	return &sharedSweep{
		gen:     gen,
		ms:      ms,
		workers: workers,
		l1:      newL1D(),
		cur:     cur,
		next:    newChunk(),
		pos:     chunkRefs,
	}
}

// build generates the chunk whose first ref follows instruction start,
// runs the leader L1 over it and compacts it to its events, looking each
// ref up as Machine.StepRef does.
func (s *sharedSweep) build(c *sweepChunk, start uint64) {
	b := fillBatch(s.gen, c.refs)
	c.n, c.fault = b.n, b.fault
	c.evs = c.evs[:0]
	instr := start
	for _, r := range c.refs[:c.n] {
		instr += uint64(r.Gap) + 1
		vline := mem.LineOf(r.Addr)
		switch r.Kind {
		case mem.Load:
			if !s.l1.load(vline) {
				c.evs = append(c.evs, event{vline: vline, instr: instr, kind: loadMiss})
			}
		case mem.Store:
			kind := storeMiss
			if s.l1.store(vline) {
				kind = storeHit
			}
			c.evs = append(c.evs, event{vline: vline, instr: instr, kind: kind})
		}
	}
	c.end = instr
}

// nextChunk makes the chunk after cur current, building it here unless a
// step already built it on the pool. It panics, as a machine does, when
// the stream has ended or the generator panicked. An empty chunk is short:
// the sweep steps nothing from it and panics on the next call.
func (s *sharedSweep) nextChunk() {
	if s.cur.n < len(s.cur.refs) {
		panic(s.endOfStream())
	}
	if !s.ready {
		s.build(s.next, s.cur.end)
	}
	s.cur, s.next = s.next, s.cur
	s.pos, s.ev = 0, 0
	if s.cur.fault != nil {
		panic(s.cur.fault)
	}
	s.taken += uint64(s.cur.n)
}

// endOfStream is the panic value for a sweep whose generator has run dry,
// worded as Machine.endOfStream.
func (s *sharedSweep) endOfStream() string {
	return fmt.Sprintf("platform: generator %q ended after %d refs", s.gen.Name(), s.taken)
}

// runUntil advances every machine to at least target instructions — the
// same stopping rule as Machine.RunInstructions, so the machines consume
// exactly the refs their own RunInstructions calls would have.
func (s *sharedSweep) runUntil(target uint64) {
	for s.instr < target {
		if s.pos == s.cur.n {
			s.nextChunk()
		}
		// The largest prefix of the chunk's remaining refs every machine
		// still steps: a machine steps a ref iff its instruction count is
		// below the target before consuming it.
		c := s.cur
		pos, cut := s.pos, s.instr
		for pos < c.n && cut < target {
			cut += uint64(c.refs[pos].Gap) + 1
			pos++
		}
		ev := s.ev
		for ev < len(c.evs) && c.evs[ev].instr <= cut {
			ev++
		}
		evs := c.evs[s.ev:ev]
		s.pos, s.ev, s.instr = pos, ev, cut

		// A step that consumes the rest of a full chunk and still falls
		// short of the target builds the next chunk as task 0 of its own
		// pool call, alongside the machines.
		tasks, lead := len(s.ms), 0
		if pos == c.n && cut < target && c.n == len(c.refs) {
			tasks, lead = tasks+1, 1
		}
		runner.All(s.workers, tasks, func(k int) {
			if k < lead {
				s.build(s.next, c.end)
				return
			}
			s.ms[k-lead].stepEvents(evs, cut)
		})
		s.ready = lead == 1
	}
}

// resetMetrics starts a new measurement interval on every machine.
func (s *sharedSweep) resetMetrics() {
	for _, m := range s.ms {
		m.ResetMetrics()
	}
}

// newSweepMachines builds one machine per partition size 1..n, all wired
// to the shared generator (which only the sweep driver steps).
func newSweepMachines(gen mem.Generator, n int, cfg RealMRCConfig) []*Machine {
	ms := make([]*Machine, n)
	for k := range ms {
		ms[k] = NewMachine(gen, Options{
			Mode:      cfg.Mode,
			Colors:    color.First(k + 1),
			L3Enabled: cfg.L3Enabled,
			Seed:      cfg.Seed,
		})
	}
	return ms
}

// realMRCShared measures the real MRC with the shared-stream fan-out:
// one generator pass, cfg.MaxColors machines, chunks of chunkRefs refs.
func realMRCShared(app workload.Config, cfg RealMRCConfig, chunkRefs int) []float64 {
	gen := workload.New(app, cfg.Seed)
	ms := newSweepMachines(gen, cfg.MaxColors, cfg)
	sw := newSharedSweep(gen, ms, cfg.Workers, chunkRefs)
	if cfg.SkipInstructions > 0 {
		sw.runUntil(cfg.SkipInstructions)
	}
	sw.resetMetrics()
	sw.runUntil(sw.instr + cfg.SliceInstructions)

	mpki := make([]float64, len(ms))
	for k, m := range ms {
		mpki[k] = m.Metrics().MPKI()
	}
	return mpki
}

// missRateTimelinesShared measures per-size miss-rate timelines with the
// shared-stream fan-out: the interval boundaries land on the same refs as
// IntervalMetrics' per-machine RunInstructions calls.
func missRateTimelinesShared(app workload.Config, intervals int, intervalInstr uint64, cfg RealMRCConfig, chunkRefs int) [][]float64 {
	gen := workload.New(app, cfg.Seed)
	ms := newSweepMachines(gen, cfg.MaxColors, cfg)
	sw := newSharedSweep(gen, ms, cfg.Workers, chunkRefs)

	out := make([][]float64, len(ms))
	for i := range out {
		out[i] = make([]float64, intervals)
	}
	for j := 0; j < intervals; j++ {
		sw.resetMetrics()
		sw.runUntil(sw.instr + intervalInstr)
		for k, m := range ms {
			out[k][j] = m.Metrics().MPKI()
		}
	}
	return out
}

// SweepHalves splits the shared sweep into its two halves so that the
// benchmark suite can time them apart on one stream: Lead is the leader's
// work per chunk, Step one machine's.
type SweepHalves struct{ sw *sharedSweep }

// NewSweepHalves returns the halves of a sweep over gen.
func NewSweepHalves(gen mem.Generator) *SweepHalves {
	return &SweepHalves{sw: newSharedSweep(gen, nil, 1, sweepChunkRefs)}
}

// Lead generates the next chunk of the stream, runs the leader L1 over it
// and compacts it to events. It returns the chunk's ref count.
func (h *SweepHalves) Lead() int {
	c := h.sw.next
	h.sw.build(c, c.end)
	return c.n
}

// Step steps m over the events of the chunk Lead built last. m must have
// stepped every earlier chunk of the same stream, and nothing else.
func (h *SweepHalves) Step(m *Machine) {
	c := h.sw.next
	m.stepEvents(c.evs, c.end)
}
