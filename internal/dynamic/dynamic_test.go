package dynamic

import (
	"testing"

	"rapidmrc/internal/color"
	"rapidmrc/internal/cpu"
	"rapidmrc/internal/phase"
	"rapidmrc/internal/platform"
	"rapidmrc/internal/workload"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.IntervalInstr = 150_000
	// Long enough that the post-warmup half of the log covers the test
	// workloads' chase cycles at least twice (the paper's 10×-stack rule
	// scaled to the tests' working sets).
	cfg.TraceEntries = 48_000
	return cfg
}

// opt pairs the controller with the §6 future PMU (trace buffer), which
// makes the recurring probing periods affordable.
func opt() platform.CoRunOptions {
	return platform.CoRunOptions{Mode: cpu.Complex, L3Enabled: false, Seed: 1, TraceBuffer: 256}
}

func TestNewValidation(t *testing.T) {
	apps := []workload.Config{workload.MustByName("crafty")}
	if _, err := New(apps, opt(), testConfig()); err == nil {
		t.Fatal("single app accepted")
	}
	two := []workload.Config{workload.MustByName("crafty"), workload.MustByName("gzip")}
	bad := testConfig()
	bad.Colors = 1
	if _, err := New(two, opt(), bad); err == nil {
		t.Fatal("1 color for 2 apps accepted")
	}
	bad2 := testConfig()
	bad2.Detector = phase.Config{}
	if _, err := New(two, opt(), bad2); err == nil {
		t.Fatal("invalid detector config accepted")
	}
}

func TestInitialAllocationEvenSplit(t *testing.T) {
	apps := []workload.Config{
		workload.MustByName("crafty"),
		workload.MustByName("gzip"),
		workload.MustByName("mesa"),
	}
	c, err := New(apps, opt(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	alloc := c.Alloc()
	total := 0
	for _, a := range alloc {
		total += a
	}
	if total != 16 {
		t.Fatalf("alloc %v does not cover the cache", alloc)
	}
	if alloc[0] != 6 || alloc[1] != 5 || alloc[2] != 5 {
		t.Fatalf("alloc %v, want [6 5 5]", alloc)
	}
}

func TestStationaryAppsSettleWithoutChurn(t *testing.T) {
	apps := []workload.Config{
		workload.MustByName("crafty"),
		workload.MustByName("gzip"),
	}
	c, err := New(apps, opt(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := c.Run(12)
	if st.Intervals != 12 {
		t.Fatalf("intervals = %d", st.Intervals)
	}
	// Stationary apps: at most the two initial profiles and one
	// repartition; no transition-driven churn afterwards.
	if st.Transitions > 2 {
		t.Errorf("%d transitions for stationary apps", st.Transitions)
	}
	if st.Repartitions > 2 {
		t.Errorf("%d repartitions for stationary apps", st.Repartitions)
	}
	if st.Recomputations < 2 {
		t.Errorf("initial profiling never happened: %d recomputations", st.Recomputations)
	}
	if len(st.Allocations) != 12 {
		t.Fatalf("%d allocation records", len(st.Allocations))
	}
	for i, cv := range c.curves {
		if cv == nil {
			t.Errorf("application %d has no curve", i)
		}
	}
}

func TestPhasedAppTriggersRecomputation(t *testing.T) {
	// A two-phase synthetic app whose heavy phase does not fit the even
	// split (12,000 lines ≈ 12.5 colors), against a stationary partner:
	// the miss-rate contrast at [8,8] is what the detector must see.
	phased := workload.Config{
		Name: "flipper", MemFrac: 0.3, StoreFrac: 0.2,
		Phases: []workload.Phase{
			{Instructions: 1_200_000, Mix: []workload.Component{
				{Weight: 0.08, Kind: workload.Chase, Lines: 12_000},
				{Weight: 0.92, Kind: workload.Loop, Lines: 200},
			}},
			{Instructions: 1_200_000, Mix: []workload.Component{
				{Weight: 0.05, Kind: workload.Chase, Lines: 800},
				{Weight: 0.95, Kind: workload.Loop, Lines: 200},
			}},
		},
	}
	apps := []workload.Config{phased, workload.MustByName("crafty")}
	c, err := New(apps, opt(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := c.Run(60)
	if st.Transitions == 0 {
		t.Fatal("no phase transitions detected for a phased app")
	}
	if st.Recomputations <= 2 {
		t.Fatalf("transitions did not trigger reprofiling: %d recomputations", st.Recomputations)
	}
	// The allocation must have moved at least once, with pages migrated.
	if st.Repartitions == 0 {
		t.Fatal("controller never repartitioned")
	}
	if st.PagesMigrated == 0 {
		t.Fatal("repartitioning migrated no pages")
	}
}

func TestDynamicBeatsStaticOnPhasedWorkload(t *testing.T) {
	// The headline claim of the extension: the phased application, which
	// a static even split starves during its heavy phase, runs much
	// faster under closed-loop control, and the pair's combined
	// throughput does not regress.
	phased := workload.Config{
		Name: "flipper", MemFrac: 0.3, StoreFrac: 0.2,
		Phases: []workload.Phase{
			{Instructions: 1_500_000, Mix: []workload.Component{
				{Weight: 0.08, Kind: workload.Chase, Lines: 9_600},
				{Weight: 0.92, Kind: workload.Loop, Lines: 200},
			}},
			{Instructions: 1_500_000, Mix: []workload.Component{
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
	apps := []workload.Config{phased, partner}

	// Static reference: even split, same horizon.
	static := platform.CoRun(apps,
		[]color.Set{color.First(8), color.Range(8, 16)},
		200_000, 6_000_000, opt())

	cfg := testConfig()
	cfg.IntervalInstr = 200_000
	c, err := New(apps, opt(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(32) // ≈6.4M instructions per app
	dynFlipper := c.Machines()[0].Core().IPC()
	dynPartner := c.Machines()[1].Core().IPC()
	statFlipper := static[0].IPC()
	statPartner := static[1].IPC()
	if dynFlipper < 1.2*statFlipper {
		t.Fatalf("phased app: dynamic IPC %.3f not well above static %.3f", dynFlipper, statFlipper)
	}
	if dynFlipper+dynPartner < statFlipper+statPartner {
		t.Fatalf("combined throughput regressed: dynamic %.3f vs static %.3f",
			dynFlipper+dynPartner, statFlipper+statPartner)
	}
}
