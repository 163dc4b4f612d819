package dynamic

import (
	"fmt"
	"testing"

	"rapidmrc/internal/cpu"
	"rapidmrc/internal/platform"
	"rapidmrc/internal/workload"
)

// TestExtDynamicQuickStats pins the controller's bookkeeping on the
// ext-dynamic quick scenario (internal/experiments' extDynamicApps at
// phaseInstr 1.5M, 30 intervals, seed 1, the 256-deep trace buffer).
// The experiment's golden shows only IPCs and totals; ProbedEntries and
// the per-interval allocations also pin where every probing period ends
// and when each repartition lands.
func TestExtDynamicQuickStats(t *testing.T) {
	const phaseInstr = 1_500_000
	phased := workload.Config{
		Name: "phased", MemFrac: 0.3, StoreFrac: 0.2,
		Phases: []workload.Phase{
			{Instructions: phaseInstr, Mix: []workload.Component{
				{Weight: 0.08, Kind: workload.Chase, Lines: 10_000},
				{Weight: 0.92, Kind: workload.Loop, Lines: 200},
			}},
			{Instructions: phaseInstr, Mix: []workload.Component{
				{Weight: 0.06, Kind: workload.Chase, Lines: 700},
				{Weight: 0.94, Kind: workload.Loop, Lines: 200},
			}},
		},
	}
	partner := workload.Config{
		Name: "partner", MemFrac: 0.3, StoreFrac: 0.2,
		Phases: []workload.Phase{
			{Instructions: 1 << 40, Mix: []workload.Component{
				{Weight: 0.06, Kind: workload.Chase, Lines: 4_500},
				{Weight: 0.94, Kind: workload.Loop, Lines: 200},
			}},
		},
	}
	cfg := DefaultConfig()
	cfg.IntervalInstr = 250_000
	cfg.TraceEntries = 48_000
	c, err := New([]workload.Config{phased, partner},
		platform.CoRunOptions{Mode: cpu.Complex, Seed: 1, TraceBuffer: 256}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Run(30)
	if st.Intervals != 30 || st.Transitions != 6 || st.Recomputations != 8 ||
		st.ProbedEntries != 384_000 || st.Repartitions != 1 || st.PagesMigrated != 59 {
		t.Errorf("stats %+v, want 30 intervals, 6 transitions, 8 recomputations, "+
			"384000 probed entries, 1 repartition, 59 pages migrated", st)
	}
	const allocs = "[[8 8] [8 8] [8 8] [8 8] [8 8] [8 8] [8 8] [8 8] [8 8] [8 8] " +
		"[11 5] [11 5] [11 5] [11 5] [11 5] [11 5] [11 5] [11 5] [11 5] [11 5] " +
		"[11 5] [11 5] [11 5] [11 5] [11 5] [11 5] [11 5] [11 5] [11 5] [11 5]]"
	if got := fmt.Sprint(st.Allocations); got != allocs {
		t.Errorf("allocations %s, want %s", got, allocs)
	}
}
