package platform

import (
	"rapidmrc/internal/cache"
	"rapidmrc/internal/color"
	"rapidmrc/internal/cpu"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/pmu"
	"rapidmrc/internal/prefetch"
)

// Options configures one Machine (one hardware context running one
// workload).
type Options struct {
	// Mode is the processor execution mode (complex / no-prefetch /
	// simplified). The zero value is cpu.Simplified; most callers want
	// cpu.Complex.
	Mode cpu.Mode
	// Colors is the page colors the workload may occupy. Zero means all.
	Colors color.Set
	// L3Enabled attaches the off-chip victim cache (§5.3 disables it for
	// two of the three multiprogrammed workloads).
	L3Enabled bool
	// Seed drives all stochastic elements (workload via its own seed, PMU
	// artifacts).
	Seed int64
	// SharedL2 and SharedL3, when non-nil, are used instead of private
	// caches — co-scheduled machines pass the same pointers.
	SharedL2 *cache.Cache
	SharedL3 *cache.Cache
	// Alloc, when non-nil, is the shared physical frame allocator for
	// co-scheduled machines.
	Alloc *color.Allocator
	// TraceBuffer sets the PMU trace-buffer depth. Zero or one is the
	// real POWER5 (exception per event, lossy); larger values model the
	// future PMU of §6 (amortized exceptions, lossless capture).
	TraceBuffer int
}

// Machine simulates one hardware context: a core with private L1-D,
// page-coloring address translation, a (possibly shared) L2, an optional
// victim L3, a per-core stream prefetcher, and a PMU.
//
// A Machine is not safe for concurrent use, but independent Machines may
// run on different goroutines as long as they share no caches. Its run
// loops read the workload on one extra goroutine of their own, which
// exits before they return (readahead.go).
type Machine struct {
	gen    mem.Generator
	core   *cpu.Core
	pmu    *pmu.PMU
	mapper *color.Mapper
	l2     *cache.Cache
	l3     *cache.Cache
	pf     *prefetch.Prefetcher
	// l1d sits behind a pointer: embedded, its 2 KiB slowed the shared
	// sweep's 16 machines, which never touch it, by about 8%.
	l1d *l1d

	l3Enabled bool

	// Baselines for interval metrics.
	baseInstr, baseCycles uint64
	baseCounters          pmu.Counters

	// Trace-log pollution state: the exception handler appends 8-byte
	// entries to a log in the application's own address space, dirtying
	// one line every 16 entries (§5.2.3 notes the log pollutes the L2 and
	// is incorporated into the measured curves).
	logNext    mem.Line
	logPending int

	// Reference read-ahead (readahead.go): Step pulls refs from the
	// current batch, refBuf[refPos:refLen], and takes the next queued or
	// freshly read batch when it runs dry. taken counts the refs of every
	// batch taken so far; ended records that the last one was short, i.e.
	// the generator's stream has ended.
	ra             *readAhead
	refBuf         []mem.Ref
	refPos, refLen int
	taken          uint64
	ended          bool
}

// logRegionBase places the trace log far above any workload region.
const logRegionBase mem.Line = 1 << 40

// logEntriesPerLine is how many 8-byte log entries fit one 128-byte line.
const logEntriesPerLine = mem.LineSize / 8

// NewMachine builds a machine running gen.
func NewMachine(gen mem.Generator, opt Options) *Machine {
	spec := Power5()
	if opt.Colors == 0 {
		opt.Colors = color.All
	}
	alloc := opt.Alloc
	if alloc == nil {
		alloc = color.NewAllocator()
	}
	l2 := opt.SharedL2
	if l2 == nil {
		l2 = cache.New(spec.L2)
	}
	l3 := opt.SharedL3
	if l3 == nil && opt.L3Enabled {
		l3 = cache.New(spec.L3)
	}
	p := pmu.New(opt.Seed ^ 0x5eed)
	if opt.TraceBuffer > 1 {
		p.SetTraceBuffer(opt.TraceBuffer)
	}
	return &Machine{
		gen:       gen,
		core:      cpu.New(opt.Mode),
		pmu:       p,
		mapper:    color.NewMapperWith(alloc, opt.Colors),
		l1d:       newL1D(),
		l2:        l2,
		l3:        l3,
		l3Enabled: opt.L3Enabled && l3 != nil,
		pf:        prefetch.New(opt.Mode.Prefetch),
		logNext:   logRegionBase,
	}
}

// Generator returns the workload driving this machine. The machine reads
// the generator ahead of its own progress, by up to readAheadDepth batches
// of readAheadBatch refs, and during a run a producer goroutine may be
// reading it; callers must not step or reset it directly.
func (m *Machine) Generator() mem.Generator { return m.gen }

// Core exposes the execution core (read-only use intended).
func (m *Machine) Core() *cpu.Core { return m.core }

// PMU exposes the performance monitoring unit.
func (m *Machine) PMU() *pmu.PMU { return m.pmu }

// nextRef returns the next reference of the machine's own workload,
// taking the next batch when the current one runs dry.
func (m *Machine) nextRef() mem.Ref {
	if m.refPos >= m.refLen {
		m.refill()
	}
	r := m.refBuf[m.refPos]
	m.refPos++
	return r
}

// Step executes one memory reference and the non-memory instructions
// preceding it. It reads the generator inline when no batch is queued;
// the run methods below read it on a producer goroutine instead.
func (m *Machine) Step() { m.StepRef(m.nextRef()) }

// StepRefs executes a slice of references in order, for callers that
// generate the stream themselves and drive the machine with StepRef.
//
//rapidmrc:hotpath
func (m *Machine) StepRefs(refs []mem.Ref) {
	for _, r := range refs {
		m.StepRef(r)
	}
}

// stepEvents executes a compacted stretch of the shared stream (see
// sweep.go): for each L2-bound event it retires the instructions up to the
// event's absolute position, then does what StepRef does for that ref
// after its L1-D lookup; it then retires the instructions up to cut. The
// refs between events are L1 load hits, which only retire instructions,
// and Core.Advance is linear, so the machine ends bit-identical to one
// stepping every ref with StepRef — apart from its own L1-D, which the
// sweep's leader L1 stands in for and which stays untouched.
//
//rapidmrc:hotpath
func (m *Machine) stepEvents(evs []event, cut uint64) {
	for _, e := range evs {
		m.core.Advance(e.instr - m.core.Instructions())
		pline := m.mapper.PhysLine(e.vline)
		switch e.kind {
		case loadMiss:
			m.onL1DMiss(pline)
			m.l2Demand(pline, false, true, true)
		case storeMiss:
			m.onL1DMiss(pline)
			m.l2Demand(pline, true, false, false)
		case storeHit:
			m.l2Demand(pline, true, false, false)
		}
	}
	m.core.Advance(cut - m.core.Instructions())
}

// StepRef executes one externally supplied memory reference and the
// non-memory instructions preceding it. A machine driven by StepRef must
// not also be driven by Step/RunRefs/RunInstructions: those consume the
// machine's own generator, and mixing the two interleaves streams.
//
//rapidmrc:hotpath
func (m *Machine) StepRef(ref mem.Ref) {
	m.core.Advance(uint64(ref.Gap) + 1)

	vline := mem.LineOf(ref.Addr)
	switch ref.Kind {
	case mem.Load:
		if m.l1d.load(vline) {
			return
		}
		pline := m.mapper.PhysLine(vline)
		m.onL1DMiss(pline)
		m.l2Demand(pline, false, true, true)
	case mem.Store:
		// The L1-D is store-through, no-allocate: a store updates the L1
		// only if the line is already present and always proceeds to the
		// L2. Only a store that misses the L1-D is a PMU qualifying
		// event; store-hit write-throughs are the L2 traffic the trace
		// never sees (§3.1).
		pline := m.mapper.PhysLine(vline)
		if !m.l1d.store(vline) {
			m.onL1DMiss(pline)
		}
		// Store write-throughs do not train the stream prefetchers —
		// POWER5 streams are load-side.
		m.l2Demand(pline, true, false, false)
	case mem.IFetch:
		// Instruction fetches are not modeled; generators do not emit
		// them (the paper's traces exclude them too).
	}
}

// onL1DMiss routes a qualifying event through the PMU, charging the
// overflow exception and appending to the in-memory trace log when a
// probing period is active.
//
//rapidmrc:hotpath
func (m *Machine) onL1DMiss(pline mem.Line) {
	overlapped := m.core.MissOverlapsPrevious()
	if m.pmu.OnL1DMiss(pline, overlapped, m.core.Timing.OverlapDropPermille) {
		m.core.Exception()
		m.logAppend()
	}
}

// logAppend models the exception handler writing one 8-byte log entry;
// every 16th entry dirties a fresh line of the log, which passes through
// the L2 like any store and pollutes the partition under measurement.
//
//rapidmrc:hotpath
func (m *Machine) logAppend() {
	m.logPending++
	if m.logPending < logEntriesPerLine {
		return
	}
	m.logPending = 0
	pline := m.mapper.PhysLine(m.logNext)
	m.logNext++
	m.l2Demand(pline, true, false, false)
}

// l2Demand performs one demand L2 access. stall says whether the core
// waits for the data (loads stall; write-through stores drain from the
// store queue without stalling). train feeds the access to the stream
// prefetcher — all application demand traffic trains it, hits included,
// since hits on previously prefetched lines are what keep a stream
// running ahead; the PMU's own log writes do not.
//
//rapidmrc:hotpath
func (m *Machine) l2Demand(pline mem.Line, dirty, stall, train bool) {
	res := m.l2.Access(pline, dirty)
	m.pmu.OnL2Access(!res.Hit)
	if res.Hit {
		if stall {
			m.core.Stall(m.core.Timing.L2HitCycles)
		}
	} else {
		latency := m.core.Timing.MemCycles
		if m.l3Enabled {
			if present, _ := m.l3.Invalidate(pline); present {
				latency = m.core.Timing.L3HitCycles
			}
		}
		if stall {
			m.core.Stall(latency)
		}
		if res.Evicted && m.l3Enabled {
			m.l3.Insert(res.Victim, res.VictimDirty)
		}
	}

	if !train {
		return
	}
	// Fills go straight into the L2 and leave the SDAR stale for the
	// duration of the burst.
	targets := m.pf.Observe(pline)
	if len(targets) == 0 {
		return
	}
	m.pmu.OnPrefetchFill(len(targets))
	for _, t := range targets {
		r := m.l2.Insert(t, false)
		if r.Evicted && m.l3Enabled {
			m.l3.Insert(r.Victim, r.VictimDirty)
		}
	}
}

// RunInstructions steps until at least n more instructions complete.
func (m *Machine) RunInstructions(n uint64) {
	if m.startReadAhead(span{refs: unbounded, instr: n}) {
		defer m.stopReadAhead()
	}
	target := m.core.Instructions() + n
	for m.core.Instructions() < target {
		m.Step()
	}
}

// RunRefs executes exactly n memory references.
func (m *Machine) RunRefs(n int) {
	if n > 0 && m.startReadAhead(span{refs: uint64(n), instr: unbounded}) {
		defer m.stopReadAhead()
	}
	for i := 0; i < n; i++ {
		m.Step()
	}
}

// Metrics summarizes activity since the last ResetMetrics (or machine
// creation).
type Metrics struct {
	Instructions  uint64
	Cycles        uint64
	L1DMisses     uint64
	L2Accesses    uint64
	L2Misses      uint64
	PrefetchFills uint64
}

// IPC returns instructions per cycle for the interval.
func (mt Metrics) IPC() float64 {
	if mt.Cycles == 0 {
		return 0
	}
	return float64(mt.Instructions) / float64(mt.Cycles)
}

// MPKI returns demand L2 misses per kilo-instruction for the interval.
func (mt Metrics) MPKI() float64 {
	if mt.Instructions == 0 {
		return 0
	}
	return 1000 * float64(mt.L2Misses) / float64(mt.Instructions)
}

// Metrics returns the interval metrics since the last ResetMetrics.
func (m *Machine) Metrics() Metrics {
	c := m.pmu.Counters()
	return Metrics{
		Instructions:  m.core.Instructions() - m.baseInstr,
		Cycles:        m.core.Cycles() - m.baseCycles,
		L1DMisses:     c.L1DMisses - m.baseCounters.L1DMisses,
		L2Accesses:    c.L2Accesses - m.baseCounters.L2Accesses,
		L2Misses:      c.L2Misses - m.baseCounters.L2Misses,
		PrefetchFills: c.PrefetchFills - m.baseCounters.PrefetchFills,
	}
}

// ResetMetrics starts a new measurement interval.
func (m *Machine) ResetMetrics() {
	m.baseInstr = m.core.Instructions()
	m.baseCycles = m.core.Cycles()
	m.baseCounters = m.pmu.Counters()
}

// Repartition confines the machine's workload to a new color set: pages
// outside it migrate to allowed colors and the migration cost (7.3 µs per
// page) is charged to this context's core. It returns the number of pages
// moved.
func (m *Machine) Repartition(allowed color.Set) int {
	moved, cycles := m.mapper.Repartition(allowed)
	m.core.Charge(cycles)
	return moved
}

// CollectTrace runs a probing period: it arms the PMU for entries log
// entries and runs the workload until they are captured, delivering every
// sample to sink as the exception handler records it. The application
// keeps making (slowed) progress during capture, exactly as on the real
// machine, and pays the same exception costs and log-pollution stores
// whatever the sink keeps: a capture→compute pipeline runs in O(sink
// state) memory, a sink that appends holds the whole log. The sink is
// called synchronously from the step that logs the entry, after the step
// has retired its instructions, so it may read the machine's progress
// counters (an epoch's stamp) but must not step it. A sink that is a
// pmu.Stopper ends the period after the step in which it stops.
func (m *Machine) CollectTrace(entries int, sink pmu.Sink) pmu.TraceStats {
	if m.startReadAhead(span{unbounded, unbounded}) {
		defer m.stopReadAhead()
	}
	m.pmu.StartTrace(sink, entries, m.core.Instructions(), m.core.Cycles())
	for !m.pmu.TraceFull() {
		m.Step()
	}
	return m.pmu.FinishTrace(m.core.Instructions(), m.core.Cycles())
}
