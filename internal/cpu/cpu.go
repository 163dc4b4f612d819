// Package cpu models the execution core of the simulated POWER5: issue
// mode, cycle accounting, and the pipeline conditions that make PMU data
// sampling lossy.
//
// The model is deliberately coarse — RapidMRC's accuracy questions are
// about *which* memory events the PMU sees and what they cost, not about
// micro-architectural timing fidelity. Cycles are tracked in integer
// millicycles so runs are exactly reproducible.
package cpu

// Mode captures the processor execution mode. The paper evaluates two
// (§5.2.8): the normal "complex" mode (multiple issue, out-of-order,
// hardware prefetching) and a "simplified" mode (single issue, in-order,
// no prefetching) used on the POWER5+ to isolate trace-collection
// artifacts.
type Mode struct {
	// MultiIssue allows more than one instruction in flight per cycle.
	MultiIssue bool
	// OutOfOrder allows loads/stores to execute out of program order;
	// together with MultiIssue it creates overlapping in-flight L1-D
	// misses, the first source of SDAR loss (§3.1.1).
	OutOfOrder bool
	// Prefetch enables the hardware stream prefetchers.
	Prefetch bool
}

// Complex is the default POWER5 execution mode.
var Complex = Mode{MultiIssue: true, OutOfOrder: true, Prefetch: true}

// NoPrefetch is complex mode with the hardware prefetchers disabled.
var NoPrefetch = Mode{MultiIssue: true, OutOfOrder: true, Prefetch: false}

// Simplified is single-issue, in-order, no prefetching.
var Simplified = Mode{}

// String names the mode (complex / no-prefetch / simplified / custom).
func (m Mode) String() string {
	switch m {
	case Complex:
		return "complex"
	case NoPrefetch:
		return "no-prefetch"
	case Simplified:
		return "simplified"
	default:
		return "custom"
	}
}

// Timing holds the cycle cost parameters of the core. Values approximate a
// 1.5 GHz POWER5 (Table 1); they were chosen so that the modeled overheads
// land in the ranges Table 2 of the paper reports.
type Timing struct {
	// BaseCPIMilli is the no-miss cost of one instruction, in
	// millicycles (CPI × 1000).
	BaseCPIMilli uint64
	// L2HitCycles is the L1-D miss / L2 hit penalty.
	L2HitCycles uint64
	// L3HitCycles is the L2 miss / L3 hit penalty.
	L3HitCycles uint64
	// MemCycles is the full memory access penalty.
	MemCycles uint64
	// StallFractionMilli scales miss penalties into actual stall cycles:
	// an out-of-order core hides part of each miss under independent
	// work. 1000 = no overlap.
	StallFractionMilli uint64
	// ExceptionCycles is the cost of one PMU overflow exception: pipeline
	// flush, switch to kernel, handler, return (§3.1.1 calls this out as
	// the dominant tracing cost).
	ExceptionCycles uint64
	// OverlapWindow is the maximum number of instructions between two
	// L1-D misses for them to be considered concurrently in flight.
	OverlapWindow uint64
	// OverlapDropPermille is the per-event probability (×1000) that an
	// overlapping miss fails to update the SDAR and is re-issued as a
	// hit, i.e. vanishes from the trace.
	OverlapDropPermille uint64
}

// DefaultTiming returns the timing for a mode. Single-issue in-order mode
// has a higher base CPI and no miss overlap, and can never drop SDAR
// updates from concurrent misses.
func DefaultTiming(m Mode) Timing {
	t := Timing{
		L2HitCycles:     13,
		L3HitCycles:     120,
		MemCycles:       350,
		ExceptionCycles: 1000,
	}
	if m.MultiIssue {
		t.BaseCPIMilli = 600
	} else {
		t.BaseCPIMilli = 1400
	}
	if m.OutOfOrder {
		t.StallFractionMilli = 450
	} else {
		t.StallFractionMilli = 1000
	}
	if m.MultiIssue && m.OutOfOrder {
		t.OverlapWindow = 3
		t.OverlapDropPermille = 550
	}
	return t
}

// Core accumulates instruction and cycle counts for one hardware context.
type Core struct {
	Mode   Mode
	Timing Timing

	instructions  uint64
	millicycles   uint64
	lastMissInstr uint64
	sawMiss       bool
}

// New returns a core in the given mode with its default timing.
func New(m Mode) *Core {
	return &Core{Mode: m, Timing: DefaultTiming(m)}
}

// Instructions returns the number of completed instructions.
func (c *Core) Instructions() uint64 { return c.instructions }

// Cycles returns the elapsed cycles (rounded down from millicycles).
func (c *Core) Cycles() uint64 { return c.millicycles / 1000 }

// IPC returns instructions per cycle so far.
func (c *Core) IPC() float64 {
	cy := c.Cycles()
	if cy == 0 {
		return 0
	}
	return float64(c.instructions) / float64(cy)
}

// Advance retires n instructions at the base CPI.
func (c *Core) Advance(n uint64) {
	c.instructions += n
	c.millicycles += n * c.Timing.BaseCPIMilli
}

// Stall charges a miss penalty of the given raw latency, scaled by the
// mode's overlap factor.
func (c *Core) Stall(latency uint64) {
	c.millicycles += latency * c.Timing.StallFractionMilli
}

// Exception charges one PMU overflow exception.
func (c *Core) Exception() {
	c.millicycles += c.Timing.ExceptionCycles * 1000
}

// Charge adds raw cycles — used for OS work attributed to this context,
// such as page migration during repartitioning.
func (c *Core) Charge(cycles uint64) {
	c.millicycles += cycles * 1000
}

// MissOverlapsPrevious records an L1-D miss at the current instruction and
// reports whether it overlaps the previous one closely enough that the
// SDAR update may be lost. The caller combines this with the drop
// probability; a single-issue in-order core never overlaps.
func (c *Core) MissOverlapsPrevious() bool {
	overlap := false
	if c.sawMiss && c.Timing.OverlapWindow > 0 {
		overlap = c.instructions-c.lastMissInstr <= c.Timing.OverlapWindow
	}
	c.lastMissInstr = c.instructions
	c.sawMiss = true
	return overlap
}
