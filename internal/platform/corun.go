package platform

import (
	"fmt"

	"rapidmrc/internal/cache"
	"rapidmrc/internal/color"
	"rapidmrc/internal/cpu"
	"rapidmrc/internal/workload"
)

// CoRunOptions configures a multiprogrammed run on one chip's shared L2.
type CoRunOptions struct {
	Mode cpu.Mode
	// L3Enabled attaches the shared victim cache (§5.3 disables it for
	// twolf+equake and vpr+applu to re-create shared-cache pressure).
	L3Enabled bool
	Seed      int64
	// TraceBuffer sets the PMU trace-buffer depth on every machine
	// (0/1 = the real POWER5; >1 = the future PMU of §6). The dynamic
	// partitioning controller needs the buffered PMU to keep its
	// recurring probing periods affordable.
	TraceBuffer int
}

// NewCoScheduled builds one machine per application, all sharing one L2
// (and L3 when enabled) and one physical frame allocator. The dynamic
// partitioning controller uses this directly; CoRun wraps it.
func NewCoScheduled(apps []workload.Config, partitions []color.Set, opt CoRunOptions) []*Machine {
	if len(apps) != len(partitions) {
		panic(fmt.Sprintf("platform: %d apps but %d partitions", len(apps), len(partitions)))
	}
	spec := Power5()
	l2 := cache.New(spec.L2)
	var l3 *cache.Cache
	if opt.L3Enabled {
		l3 = cache.New(spec.L3)
	}
	alloc := color.NewAllocator()

	machines := make([]*Machine, len(apps))
	for i, app := range apps {
		machines[i] = NewMachine(workload.New(app, opt.Seed+int64(i)), Options{
			Mode:        opt.Mode,
			Colors:      partitions[i],
			L3Enabled:   opt.L3Enabled,
			Seed:        opt.Seed + int64(i),
			SharedL2:    l2,
			SharedL3:    l3,
			Alloc:       alloc,
			TraceBuffer: opt.TraceBuffer,
		})
	}
	return machines
}

// NextByCycles returns the machine with the fewest elapsed cycles — the
// one whose turn it is under cycle-synchronized interleaving.
func NextByCycles(machines []*Machine) *Machine {
	best := machines[0]
	for _, m := range machines[1:] {
		if m.Core().Cycles() < best.Core().Cycles() {
			best = m
		}
	}
	return best
}

// RunGang steps the machines under cycle-synchronized interleaving
// (NextByCycles picks each step) until every machine i has retired
// targets[i] instructions, counted on its core since boot. A machine
// that passes its target keeps stepping while the others catch up, so
// the shared caches see the same interleaving throughout; one that
// starts at or past its target counts as done from the start.
func RunGang(machines []*Machine, targets []uint64) {
	remaining := 0
	for i, m := range machines {
		if m.Core().Instructions() < targets[i] {
			remaining++
		}
	}
	for remaining > 0 {
		m := NextByCycles(machines)
		before := m.Core().Instructions()
		m.Step()
		for i, mm := range machines {
			if mm == m && before < targets[i] && m.Core().Instructions() >= targets[i] {
				remaining--
			}
		}
	}
}

// CoRun executes the given applications concurrently on a shared L2, each
// confined to its color set (use color.All for uncontrolled sharing), and
// returns per-application interval metrics measured after a shared warmup.
//
// Execution interleaves by cycle count: at every step the machine with the
// fewest elapsed cycles advances, so cache interleaving tracks each
// application's simulated speed. The run ends when the first application
// completes sliceInstr measured instructions, matching the paper's
// "terminated as soon as one of the applications ended"; metrics are
// whatever each application achieved by then.
func CoRun(apps []workload.Config, partitions []color.Set, warmupInstr, sliceInstr uint64, opt CoRunOptions) []Metrics {
	machines := NewCoScheduled(apps, partitions, opt)

	// Shared warmup: all machines run interleaved until each completes
	// warmupInstr instructions.
	targets := make([]uint64, len(machines))
	for i := range targets {
		targets[i] = warmupInstr
	}
	RunGang(machines, targets)
	for i, m := range machines {
		m.ResetMetrics()
		targets[i] = m.Core().Instructions() + sliceInstr
	}

	// Measured region: run until the first application finishes its slice.
	for {
		m := NextByCycles(machines)
		m.Step()
		done := false
		for i, mm := range machines {
			if mm == m && m.Core().Instructions() >= targets[i] {
				done = true
			}
		}
		if done {
			break
		}
	}

	out := make([]Metrics, len(machines))
	for i, m := range machines {
		out[i] = m.Metrics()
	}
	return out
}
