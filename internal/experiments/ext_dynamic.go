package experiments

import (
	"fmt"
	"io"

	"rapidmrc/internal/color"
	"rapidmrc/internal/cpu"
	"rapidmrc/internal/dynamic"
	"rapidmrc/internal/platform"
	"rapidmrc/internal/report"
	"rapidmrc/internal/workload"
)

// DynamicResult compares static partitioning against the closed-loop
// controller on a phased workload.
type DynamicResult struct {
	// StaticIPC and DynamicIPC are per-application (phased app first).
	StaticIPC, DynamicIPC []float64
	// Stats is the controller's bookkeeping.
	Stats dynamic.Stats
}

// extDynamicApps builds the scenario: a two-phase application whose heavy
// phase (≈10.4 colors) cannot fit an even split, co-scheduled with a
// cache-hungry stationary partner (≈4.7 colors). Together they fit the
// cache, but only under an asymmetric split that a static even split
// never grants; the controller finds it and releases it again in the
// light phase.
func extDynamicApps(phaseInstr uint64) []workload.Config {
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
	return []workload.Config{phased, partner}
}

// ExtDynamic evaluates the future-work vision of §5.3: dynamic MRC
// tracking plus repartitioning with page migration, enabled by the §6
// buffered PMU. It reports per-application IPC under a static even split
// and under the controller, plus the controller's activity counters.
func ExtDynamic(w io.Writer, cfg Config) (*DynamicResult, error) {
	phaseInstr := uint64(2_500_000)
	intervals := 48
	if cfg.Quick {
		phaseInstr = 1_500_000
		intervals = 30
	}
	apps := extDynamicApps(phaseInstr)
	opt := platform.CoRunOptions{
		Mode: cpu.Complex, L3Enabled: false, Seed: cfg.Seed, TraceBuffer: 256,
	}
	dcfg := dynamic.DefaultConfig()
	dcfg.IntervalInstr = 250_000
	// Long enough that the post-warmup half samples the 12k-line chase
	// at least twice (the 10×-stack rule scaled to this working set).
	dcfg.TraceEntries = 48_000

	horizon := uint64(intervals) * dcfg.IntervalInstr

	// Static reference measured over the same per-application span: run
	// until every application completes the horizon (CoRun's
	// first-finisher cutoff would sample different phase mixes).
	staticMachines := platform.NewCoScheduled(apps,
		[]color.Set{color.First(8), color.Range(8, 16)}, opt)
	platform.RunGang(staticMachines, []uint64{horizon, horizon})
	static := make([]platform.Metrics, len(staticMachines))
	for i, m := range staticMachines {
		static[i] = m.Metrics()
	}

	ctl, err := dynamic.New(apps, opt, dcfg)
	if err != nil {
		return nil, err
	}
	st := ctl.Run(intervals)

	res := &DynamicResult{Stats: st}
	for _, m := range static {
		res.StaticIPC = append(res.StaticIPC, m.IPC())
	}
	for _, m := range ctl.Machines() {
		res.DynamicIPC = append(res.DynamicIPC, m.Core().IPC())
	}

	fmt.Fprintf(w, "Extension: dynamic repartitioning (§5.3 future work, with the §6 buffered PMU)\n")
	fmt.Fprintf(w, "Scenario: a 10.4-color/0.9-color two-phase app + a 4.7-color stationary partner\n\n")
	rows := [][]string{
		{"phased app", report.F(res.StaticIPC[0]), report.F(res.DynamicIPC[0]),
			fmt.Sprintf("%+.0f%%", 100*(res.DynamicIPC[0]/res.StaticIPC[0]-1))},
		{"partner", report.F(res.StaticIPC[1]), report.F(res.DynamicIPC[1]),
			fmt.Sprintf("%+.0f%%", 100*(res.DynamicIPC[1]/res.StaticIPC[1]-1))},
	}
	fmt.Fprint(w, report.Table([]string{"App", "Static 8:8 IPC", "Dynamic IPC", "Δ"}, rows))
	fmt.Fprintf(w, "\ncontroller: %d intervals, %d transitions, %d recomputations, %d repartitions, %d pages migrated\n",
		st.Intervals, st.Transitions, st.Recomputations, st.Repartitions, st.PagesMigrated)
	fmt.Fprintf(w, "final allocation: %v\n", st.Allocations[len(st.Allocations)-1])
	return res, nil
}
