package platform

import (
	"testing"

	"rapidmrc/internal/color"
	"rapidmrc/internal/cpu"
	"rapidmrc/internal/workload"
)

// TestL3VictimReducesCycles: a working set larger than the L2 but inside
// the L3 should run faster with the victim cache attached, with the same
// L2 miss count (the MRC is an L2-level property).
func TestL3VictimReducesCycles(t *testing.T) {
	app := loopApp("big", workload.Chase, 40_000) // 5 MB > L2, « L3
	run := func(l3 bool) Metrics {
		m := NewMachine(workload.New(app, 1), Options{Mode: cpu.Simplified, L3Enabled: l3, Seed: 1})
		m.RunRefs(80_000) // two full passes to warm L3
		m.ResetMetrics()
		m.RunRefs(40_000)
		return m.Metrics()
	}
	with, without := run(true), run(false)
	if with.L2Misses != without.L2Misses {
		t.Fatalf("L3 changed L2 miss count: %d vs %d", with.L2Misses, without.L2Misses)
	}
	if with.Cycles >= without.Cycles {
		t.Fatalf("L3 did not speed up: %d vs %d cycles", with.Cycles, without.Cycles)
	}
}

// TestRepartitionMidRun: moving an application to a different color set
// mid-run migrates its pages and it keeps hitting afterwards.
func TestRepartitionMidRun(t *testing.T) {
	app := loopApp("c2000", workload.Chase, 2_000)
	m := NewMachine(workload.New(app, 1), Options{Mode: cpu.Simplified, Colors: color.First(4), Seed: 1})
	m.RunRefs(20_000)
	moved, cycles := m.mapper.Repartition(color.Range(8, 12))
	if moved == 0 || cycles == 0 {
		t.Fatalf("repartition moved %d pages, %d cycles", moved, cycles)
	}
	// After migration the cache is effectively cold for this app (its
	// physical addresses changed), but steady state returns: by the
	// second full cycle it must hit again.
	m.RunRefs(6_000)
	m.ResetMetrics()
	m.RunRefs(10_000)
	mt := m.Metrics()
	missRatio := float64(mt.L2Misses) / float64(mt.L2Accesses)
	if missRatio > 0.05 {
		t.Fatalf("app does not recover after repartition: miss ratio %v", missRatio)
	}
}

// TestSharedL2StatsAttribution: in a co-run, each machine's PMU counters
// must reflect only its own traffic.
func TestSharedL2StatsAttribution(t *testing.T) {
	quiet := loopApp("quiet", workload.Loop, 100)     // L1-resident: no L2 traffic
	noisy := loopApp("noisy", workload.Chase, 30_000) // misses constantly
	ms := CoRun([]workload.Config{quiet, noisy}, []color.Set{color.All, color.All},
		10_000, 20_000, CoRunOptions{Mode: cpu.Simplified, Seed: 1})
	if ms[0].L2Misses != 0 {
		t.Fatalf("quiet app charged %d L2 misses", ms[0].L2Misses)
	}
	if ms[1].L2Misses == 0 {
		t.Fatal("noisy app charged no L2 misses")
	}
}

// TestCoRunDeterminism: co-runs with the same seed are bit-identical.
func TestCoRunDeterminism(t *testing.T) {
	apps := []workload.Config{
		workload.MustByName("twolf"),
		workload.MustByName("equake"),
	}
	parts := []color.Set{color.First(8), color.Range(8, 16)}
	run := func() []Metrics {
		return CoRun(apps, parts, 30_000, 30_000, CoRunOptions{Mode: cpu.Complex, Seed: 5})
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("co-run not deterministic: %+v vs %+v", a[i], b[i])
		}
	}
}

// TestPrefetchFillsCounted: a streaming workload in complex mode must
// report prefetch fills through the PMU counter block.
func TestPrefetchFillsCounted(t *testing.T) {
	m := NewMachine(workload.New(loopApp("s", workload.Stream, 0), 1),
		Options{Mode: cpu.Complex, Seed: 1})
	m.RunRefs(20_000)
	if m.Metrics().PrefetchFills == 0 {
		t.Fatal("stream produced no prefetch fills")
	}
	// And in no-prefetch mode, none.
	m2 := NewMachine(workload.New(loopApp("s", workload.Stream, 0), 1),
		Options{Mode: cpu.NoPrefetch, Seed: 1})
	m2.RunRefs(20_000)
	if m2.Metrics().PrefetchFills != 0 {
		t.Fatal("prefetch fills counted with prefetch disabled")
	}
}
