package platform

import (
	"runtime"
	"strings"
	"testing"

	"rapidmrc/internal/color"
	"rapidmrc/internal/cpu"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/workload"
)

func TestPower5SpecGeometry(t *testing.T) {
	s := Power5()
	if got := s.L2.Lines(); got != 15360 {
		t.Fatalf("L2 lines = %d, want 15360", got)
	}
	if s.L2.Sets() != 1536 {
		t.Fatalf("L2 sets = %d, want 1536", s.L2.Sets())
	}
	tbl := s.Table()
	for _, want := range []string{"1.5 GHz", "10-way", "36 MB", "8 GB", "128-byte lines"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, tbl)
		}
	}
}

// loopApp builds a minimal single-pattern workload for direct assertions.
func loopApp(name string, kind workload.Kind, lines int) workload.Config {
	return workload.Config{
		Name: name, MemFrac: 0.5, StoreFrac: 0,
		Phases: []workload.Phase{{Instructions: 1 << 40, Mix: []workload.Component{
			{Weight: 1, Kind: kind, Lines: lines},
		}}},
	}
}

func TestSmallLoopHitsL1(t *testing.T) {
	m := NewMachine(workload.New(loopApp("tiny", workload.Loop, 100), 1), Options{Mode: cpu.Complex, Seed: 1})
	m.RunRefs(5000)
	m.ResetMetrics()
	m.RunRefs(5000)
	mt := m.Metrics()
	if mt.L1DMisses != 0 {
		t.Fatalf("L1-resident loop produced %d L1D misses", mt.L1DMisses)
	}
	if mt.L2Accesses != 0 {
		t.Fatalf("L1-resident loop produced %d L2 accesses", mt.L2Accesses)
	}
}

func TestChaseMissesL1HitsL2(t *testing.T) {
	// 900 lines: thrashes the 256-line L1, fits a single L2 color.
	m := NewMachine(workload.New(loopApp("c900", workload.Chase, 900), 1), Options{Mode: cpu.Simplified, Colors: color.First(1), Seed: 1})
	m.RunRefs(5000)
	m.ResetMetrics()
	m.RunRefs(5000)
	mt := m.Metrics()
	if mt.L1DMisses < 4000 {
		t.Fatalf("chase-900 had only %d/5000 L1D misses", mt.L1DMisses)
	}
	if mt.L2Misses > mt.L2Accesses/10 {
		t.Fatalf("chase-900 missing in a 960-line partition: %d misses / %d accesses", mt.L2Misses, mt.L2Accesses)
	}
}

func TestChaseMissesSmallPartitionHitsLarge(t *testing.T) {
	// A 3000-line chase fits 4 colors (3840 lines) but not 2 (1920).
	app := loopApp("c3000", workload.Chase, 3000)
	miss := func(colors int) float64 {
		m := NewMachine(workload.New(app, 1), Options{Mode: cpu.Simplified, Colors: color.First(colors), Seed: 1})
		m.RunRefs(10000)
		m.ResetMetrics()
		m.RunRefs(20000)
		mt := m.Metrics()
		return float64(mt.L2Misses) / float64(mt.L2Accesses)
	}
	small, large := miss(2), miss(5)
	if small < 0.9 {
		t.Errorf("3000-line chase in 2 colors: miss ratio %v, want ≈1 (LRU thrash)", small)
	}
	if large > 0.1 {
		t.Errorf("3000-line chase in 5 colors: miss ratio %v, want ≈0", large)
	}
}

func TestPartitionIsolationUnderSharing(t *testing.T) {
	// Two chase-900 apps on a shared L2 with disjoint single colors must
	// both hit; with the same single color they thrash each other? No —
	// 2×900 lines in 960 lines of sets thrashes. Verify isolation works.
	run := func(pa, pb color.Set) (missA float64) {
		spec := Power5()
		_ = spec
		appA := loopApp("a", workload.Chase, 900)
		appB := loopApp("b", workload.Chase, 900)
		ms := CoRun([]workload.Config{appA, appB}, []color.Set{pa, pb}, 20000, 20000, CoRunOptions{Mode: cpu.Simplified, Seed: 1})
		return float64(ms[0].L2Misses) / float64(ms[0].L2Accesses)
	}
	isolated := run(color.First(1), color.Range(1, 2))
	contended := run(color.First(1), color.First(1))
	if isolated > 0.05 {
		t.Errorf("isolated partitions still miss: %v", isolated)
	}
	if contended < 0.5 {
		t.Errorf("contended single color should thrash: miss ratio %v", contended)
	}
}

func TestStoreWriteThroughReachesL2(t *testing.T) {
	cfg := loopApp("st", workload.Loop, 100)
	cfg.StoreFrac = 1.0 // all stores
	m := NewMachine(workload.New(cfg, 1), Options{Mode: cpu.Simplified, Seed: 1})
	m.RunRefs(1000)
	mt := m.Metrics()
	if mt.L2Accesses < 900 {
		t.Fatalf("store-through traffic missing: %d L2 accesses for 1000 stores", mt.L2Accesses)
	}
	// Stores never allocate in L1, so every store remains an L1 miss.
	if mt.L1DMisses < 900 {
		t.Fatalf("no-allocate store policy violated: %d L1D misses", mt.L1DMisses)
	}
}

func TestPrefetcherCoversStreams(t *testing.T) {
	app := loopApp("stream", workload.Stream, 0)
	run := func(mode cpu.Mode) float64 {
		m := NewMachine(workload.New(app, 1), Options{Mode: mode, Seed: 1})
		m.RunRefs(5000)
		m.ResetMetrics()
		m.RunRefs(30000)
		return m.Metrics().MPKI()
	}
	withPf := run(cpu.Complex)
	withoutPf := run(cpu.NoPrefetch)
	if withPf >= withoutPf*0.5 {
		t.Fatalf("prefetch MPKI %v not well below no-prefetch %v", withPf, withoutPf)
	}
}

func TestCollectTraceBasics(t *testing.T) {
	m := NewMachine(workload.New(workload.MustByName("mcf"), 1), Options{Mode: cpu.Complex, L3Enabled: true, Seed: 1})
	m.RunInstructions(50_000)
	lines, st := collect(m, 5000)
	if len(lines) != 5000 {
		t.Fatalf("captured %d entries, want 5000", len(lines))
	}
	if st.Instructions == 0 || st.Cycles == 0 {
		t.Fatal("capture recorded no progress")
	}
	// Complex mode on a miss-heavy app must exhibit both artifacts.
	if st.Dropped == 0 {
		t.Error("no overlap drops on mcf in complex mode")
	}
	if st.Stale == 0 {
		t.Error("no stale (prefetch) entries on mcf in complex mode")
	}
	// Tracing slows the app far below its untraced IPC: the exception
	// cost dominates.
	cyclesPerEntry := float64(st.Cycles) / 5000
	if cyclesPerEntry < 1000 {
		t.Errorf("capture cost %v cycles/entry, want ≥ exception cost", cyclesPerEntry)
	}
}

func TestSimplifiedModeCapturesClean(t *testing.T) {
	m := NewMachine(workload.New(workload.MustByName("mcf"), 1), Options{Mode: cpu.Simplified, Seed: 1})
	m.RunInstructions(20_000)
	_, st := collect(m, 3000)
	if st.Dropped != 0 {
		t.Fatalf("simplified mode dropped %d events", st.Dropped)
	}
	if st.Stale != 0 {
		t.Fatalf("simplified mode recorded %d stale entries", st.Stale)
	}
}

func TestRealMRCMonotoneForChase(t *testing.T) {
	// For a pure chase workload the real MRC must be high below the
	// working set and near zero above it.
	app := loopApp("c4000", workload.Chase, 4000) // ≈4.2 colors
	cfg := RealMRCConfig{
		Mode: cpu.Simplified, L3Enabled: false,
		SkipInstructions: 20_000, SliceInstructions: 60_000,
		MaxColors: 16, Seed: 1,
	}
	mrc := RealMRC(app, cfg)
	if len(mrc) != 16 {
		t.Fatalf("MRC has %d points", len(mrc))
	}
	if mrc[0] < 100 {
		t.Errorf("1-color MPKI = %v, want thrashing (~500)", mrc[0])
	}
	if mrc[15] > 10 {
		t.Errorf("16-color MPKI = %v, want ≈0", mrc[15])
	}
	if mrc[7] > mrc[0]/3 {
		t.Errorf("knee not visible: mrc[7]=%v vs mrc[0]=%v", mrc[7], mrc[0])
	}
}

// TestRealMRCPooledMatchesSerial checks that the worker pool does not
// change results: each per-size run is independently seeded, so serial
// and pooled sweeps must agree exactly.
func TestRealMRCPooledMatchesSerial(t *testing.T) {
	app := loopApp("c3000", workload.Chase, 3000)
	cfg := RealMRCConfig{
		Mode: cpu.Simplified, L3Enabled: false,
		SkipInstructions: 10_000, SliceInstructions: 30_000,
		MaxColors: 16, Seed: 1,
	}
	serial := cfg
	serial.Workers = 1
	pooled := cfg
	pooled.Workers = 3
	a, b := RealMRC(app, serial), RealMRC(app, pooled)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("color %d: serial %v pooled %v", i+1, a[i], b[i])
		}
	}
}

// TestRealMRCGoroutinesBoundedByPool is the acceptance check that the
// sweep's live goroutines are bounded by the pool size, not MaxColors:
// with Workers=2 and 16 sizes, the process must never be ~16 goroutines
// above its baseline while the sweep runs.
func TestRealMRCGoroutinesBoundedByPool(t *testing.T) {
	app := loopApp("c2000", workload.Chase, 2000)
	cfg := RealMRCConfig{
		Mode: cpu.Simplified, L3Enabled: false,
		SkipInstructions: 10_000, SliceInstructions: 40_000,
		MaxColors: 16, Seed: 1, Workers: 2,
	}
	base := runtime.NumGoroutine()
	done := make(chan []float64, 1)
	go func() { done <- RealMRC(app, cfg) }()
	peak := 0
	for {
		select {
		case mrc := <-done:
			if len(mrc) != 16 {
				t.Fatalf("MRC has %d points", len(mrc))
			}
			// launcher goroutine + 2 pool workers, with slack for test
			// runtime goroutines; the old fan-out peaked at base+17.
			if limit := base + cfg.Workers + 4; peak > limit {
				t.Fatalf("goroutine peak %d (baseline %d) exceeds pool bound %d",
					peak, base, limit)
			}
			return
		default:
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
			runtime.Gosched()
		}
	}
}

func TestMissRateTimelineDetectsPhases(t *testing.T) {
	app := workload.Config{
		Name: "flip", MemFrac: 0.5, StoreFrac: 0,
		Phases: []workload.Phase{
			{Instructions: 50_000, Mix: []workload.Component{{Weight: 1, Kind: workload.Chase, Lines: 5000}}},
			{Instructions: 50_000, Mix: []workload.Component{{Weight: 1, Kind: workload.Loop, Lines: 100}}},
		},
	}
	cfg := RealMRCConfig{Mode: cpu.Simplified, Seed: 1}
	tl := missRateTimeline(app, 2, 20, 10_000, cfg)
	lo, hi := tl[0], tl[0]
	for _, v := range tl {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi < 10*lo+1 {
		t.Fatalf("phases invisible in timeline: min %v max %v (%v)", lo, hi, tl)
	}
}

func TestCoRunPartitioningHelpsVictim(t *testing.T) {
	// A cache-sensitive chase whose working set nearly fills the L2
	// co-runs with a cache-polluting random app. Under uncontrolled
	// sharing the polluter's insertions push the victim over capacity;
	// with a protected 15-color partition the victim fits and hits.
	victim := loopApp("victim", workload.Chase, 13500)
	bully := loopApp("bully", workload.Random, 200000)
	apps := []workload.Config{victim, bully}
	opt := CoRunOptions{Mode: cpu.Complex, Seed: 1}
	base := CoRun(apps, []color.Set{color.All, color.All}, 120_000, 120_000, opt)
	part := CoRun(apps, []color.Set{color.First(15), color.Range(15, 16)}, 120_000, 120_000, opt)
	if norm := 100 * part[0].IPC() / base[0].IPC(); norm <= 102 {
		t.Fatalf("victim normalized IPC %v, want > 102 with a protected partition", norm)
	}
}

func TestCoRunPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CoRun with mismatched slices did not panic")
		}
	}()
	CoRun([]workload.Config{loopApp("x", workload.Loop, 10)}, nil, 0, 10, CoRunOptions{})
}

func TestMetricsIntervalAccounting(t *testing.T) {
	m := NewMachine(workload.New(workload.MustByName("twolf"), 1), Options{Mode: cpu.Complex, Seed: 1})
	m.RunRefs(10_000)
	m.ResetMetrics()
	first := m.Metrics()
	if first.Instructions != 0 || first.L2Misses != 0 {
		t.Fatalf("fresh interval not empty: %+v", first)
	}
	m.RunRefs(10_000)
	mt := m.Metrics()
	if mt.Instructions == 0 || mt.Cycles == 0 {
		t.Fatal("interval did not accumulate")
	}
	if mt.IPC() <= 0 {
		t.Fatal("IPC not positive")
	}
	if (Metrics{}).IPC() != 0 || (Metrics{}).MPKI() != 0 {
		t.Fatal("zero metrics should have zero ratios")
	}
}

func TestTraceLogPollutionTouchesL2(t *testing.T) {
	// During capture, the exception handler's log writes must appear as
	// L2 accesses in the app's own partition (the paper folds this
	// pollution into the calculated MRC).
	app := loopApp("c900", workload.Chase, 900)
	m := NewMachine(workload.New(app, 1), Options{Mode: cpu.Simplified, Colors: color.First(1), Seed: 1})
	m.RunRefs(3000)
	m.ResetMetrics()
	_, st := collect(m, 1600) // 1600 entries → ≈100 log lines
	mt := m.Metrics()
	// L2 accesses = trace events (L2 demand) + log-line stores.
	extra := int64(mt.L2Accesses) - int64(st.Captured)
	if extra < 50 {
		t.Fatalf("log pollution invisible: %d extra L2 accesses for %d entries", extra, st.Captured)
	}
}

func TestStepIgnoresIFetchKind(t *testing.T) {
	// A generator emitting IFetch refs must not crash or touch the L1D.
	g := &ifetchGen{}
	m := NewMachine(g, Options{Mode: cpu.Complex, Seed: 1})
	m.RunRefs(100)
	if m.Metrics().L1DMisses != 0 {
		t.Fatal("ifetch counted as data miss")
	}
}

type ifetchGen struct{ n int }

func (g *ifetchGen) Next() mem.Ref {
	g.n++
	return mem.Ref{Addr: mem.Addr(g.n * 128), Kind: mem.IFetch}
}
func (g *ifetchGen) Name() string     { return "ifetch" }
func (g *ifetchGen) Reset(seed int64) { g.n = 0 }
