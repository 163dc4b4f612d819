package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"
)

// The tests run every workload at -quick sizes in process, the workloads
// side by side: about 2 s, and 20–25 s with -race.

type cachedRun struct {
	once sync.Once
	r    *result
	err  error
}

var (
	runsMu sync.Mutex
	runs   = map[string]*cachedRun{}
)

// quickRun runs a workload at quick sizes, once per (workload, seed,
// trace) for the whole test binary; different runs may go concurrently.
func quickRun(t *testing.T, workload string, seed int64, trace bool) *result {
	t.Helper()
	key := fmt.Sprintf("%s/%d/%t", workload, seed, trace)
	runsMu.Lock()
	c, ok := runs[key]
	if !ok {
		c = &cachedRun{}
		runs[key] = c
	}
	runsMu.Unlock()
	c.once.Do(func() {
		c.r, c.err = runWorkload(config{workload: workload, seed: seed, trace: trace, quick: true})
	})
	if c.err != nil {
		t.Fatalf("%s: %v", workload, c.err)
	}
	return c.r
}

func mustRun(t *testing.T, cfg config) *result {
	t.Helper()
	r, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	return r
}

// TestMetricsMatchBenchmark pins the command to BENCHMARK.json: every
// workload it lists exists, and each run prints exactly the metrics the
// file lists for its mode, with the same units and directions.
func TestMetricsMatchBenchmark(t *testing.T) {
	bf, err := loadBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range bf.Workloads {
		listed = append(listed, w.Name)
	}
	if fmt.Sprint(listed) != fmt.Sprint(workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, command runs %v", listed, workloads)
	}
	e2e := map[string]metricDef{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = metricDef{m.Name, m.Unit, m.Better}
	}
	layer := map[string]metricDef{}
	for _, m := range bf.PerLayer {
		layer[m.Name] = metricDef{m.Name, m.Unit, m.Better}
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			checkMetrics(t, w, e2e, layer)
		})
	}
}

func checkMetrics(t *testing.T, w string, e2e, layer map[string]metricDef) {
	for _, trace := range []bool{false, true} {
		r := quickRun(t, w, 1, trace)
		want := e2e
		if trace {
			want = layer
		}
		if !r.Correct {
			t.Errorf("%s trace=%t: checks failed: %v", w, trace, r.Checks)
		}
		if r.Attempted < 1 || r.Failed != 0 {
			t.Errorf("%s trace=%t: %d of %d operations failed", w, trace, r.Failed, r.Attempted)
		}
		if len(r.Metrics) != len(want) {
			t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json lists %d", w, trace, len(r.Metrics), len(want))
		}
		for name, m := range r.Metrics {
			d, ok := want[name]
			switch {
			case !ok:
				t.Errorf("%s trace=%t: metric %s is not in BENCHMARK.json", w, trace, name)
			case d.unit != m.Unit || d.better != m.Better:
				t.Errorf("%s trace=%t: %s is %s/%s, BENCHMARK.json says %s/%s", w, trace, name, m.Unit, m.Better, d.unit, d.better)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s trace=%t: %s = %v", w, trace, name, m.Value)
			case !trace && m.Value <= 0:
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
			}
		}
	}
}

// TestDeterministic checks that the simulated and accuracy values and the
// curve digest repeat exactly for a seed and change with it. The traced
// run of a seed repeats the untraced one in full, so it serves as
// the second run.
func TestDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			checkDeterministic(t, w)
		})
	}
}

func checkDeterministic(t *testing.T, w string) {
	a := quickRun(t, w, 1, false)
	b := quickRun(t, w, 1, true)
	c := quickRun(t, w, 2, false)
	if a.Digest != b.Digest {
		t.Errorf("%s: seed 1 digests differ: %s vs %s", w, a.Digest, b.Digest)
	}
	if a.Digest == c.Digest {
		t.Errorf("%s: seeds 1 and 2 share digest %s", w, a.Digest)
	}
	for k, v := range a.Model {
		if timingDependent[k] {
			continue
		}
		if math.Float64bits(v) != math.Float64bits(b.Model[k]) {
			t.Errorf("%s: %s differs between two seed-1 runs: %v vs %v", w, k, v, b.Model[k])
		}
		if v == c.Model[k] {
			t.Errorf("%s: %s is %v for seeds 1 and 2", w, k, v)
		}
	}
}

// TestOraclePerturbationFails moves each oracle curve by one ULP: the
// bit-for-bit checks must notice and the run must exit non-zero.
func TestOraclePerturbationFails(t *testing.T) {
	for _, w := range []string{"mrcd_exact", "realmrc_sweep"} {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			r := mustRun(t, config{workload: w, seed: 1, quick: true, perturbOracle: true})
			if exitCode(r) == 0 || r.Correct {
				t.Errorf("%s: a one-ULP oracle perturbation passed the checks", w)
			}
		})
	}
}

// TestShedCountsAsFailed registers tenants whose queue cannot hold one
// batch: every feed is shed with a 429, and the run must count it.
func TestShedCountsAsFailed(t *testing.T) {
	r := mustRun(t, config{workload: "mrcd_exact", seed: 1, quick: true, maxQueued: 100})
	if r.Failed == 0 || r.Failed >= r.Attempted {
		t.Fatalf("failed %d of %d, want some but not all requests failed", r.Failed, r.Attempted)
	}
	if r.Correct {
		t.Error("curves of shed feeds matched their oracles")
	}
}

func TestUnknownWorkload(t *testing.T) {
	if code := run([]string{"--workload", "nope", "--quick"}); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
}

func TestSelfTime(t *testing.T) {
	a := &analysis{
		spans: []span{
			{Name: "root", Start: 0, End: 100, Parent: -1},
			{Name: "a", Start: 10, End: 40, Parent: 0},
			{Name: "b", Start: 30, End: 60, Parent: 0},
			{Name: "c", Start: 35, End: 45, Parent: 2},
		},
	}
	a.children = [][]int{{1, 2}, nil, {3}, nil}
	if got := a.self(0); got != 50 {
		t.Errorf("root self time %d, want 50 (children cover 10..60)", got)
	}
	if got := a.self(2); got != 20 {
		t.Errorf("b self time %d, want 20", got)
	}
	// The layers under root sum to 30 + 20 + 10 = 60 of its 100.
	if fails := a.layerSum("root", 0.1); len(fails) != 1 {
		t.Errorf("layer sum failures %v, want one", fails)
	}
	if fails := a.layerSum("root", 0.45); len(fails) != 0 {
		t.Errorf("layer sum failures %v at 45%% tolerance, want none", fails)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}}, // Python extrapolates with two points
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name           string
		parent, change []float64
		better         string
		want           string
	}{
		{"same", steady, []float64{100, 100, 101, 99, 100}, "lower", "ok"},
		{"slower", steady, []float64{120, 121, 119, 120, 120}, "lower", "regression"},
		{"less throughput", steady, []float64{80, 81, 79, 80, 80}, "higher", "regression"},
		{"faster", steady, []float64{80, 81, 79, 80, 80}, "lower", "better"},
		{"noisy parent", []float64{60, 100, 140, 80, 120}, []float64{105, 104, 106, 105, 105}, "lower", "unresolved"},
		{"noisy parent, all better", []float64{60, 100, 140, 80, 120}, []float64{50, 51, 52, 50, 50}, "lower", "better"},
	} {
		if got, _ := verdict(c.parent, c.change, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestGate checks that -compare fails a change whose runs failed checks
// or operations, or whose deterministic model values moved at all, and
// lets timing-dependent ones vary.
func TestGate(t *testing.T) {
	run := func(correct bool, failed int, model map[string]float64) *result {
		return &result{Correct: correct, Attempted: 100, Failed: failed, Model: model}
	}
	base := map[string]float64{"model_calc_mcycles": 2806.5, "tier_error_mpki": 0.08}
	parent := []*result{run(true, 0, base), run(true, 0, base)}
	for _, c := range []struct {
		name   string
		change *result
		fails  int
	}{
		{"same", run(true, 0, base), 0},
		{"timing-dependent value moved", run(true, 0, map[string]float64{"model_calc_mcycles": 2806.5, "tier_error_mpki": 0.07}), 0},
		{"model value moved one ULP", run(true, 0, map[string]float64{"model_calc_mcycles": math.Nextafter(2806.5, 0), "tier_error_mpki": 0.08}), 1},
		{"model value missing", run(true, 0, map[string]float64{"tier_error_mpki": 0.08}), 1},
		{"check failed", run(false, 0, base), 1},
		{"more operations failed", run(true, 1, base), 1},
	} {
		if got := gate(parent, []*result{run(true, 0, base), c.change}); len(got) != c.fails {
			t.Errorf("%s: gate %v, want %d failures", c.name, got, c.fails)
		}
	}
}

// TestCompareExit drives -compare on record files: clean runs exit 0, a
// moved model value exits 1, and a parent that failed a check exits 2.
func TestCompareExit(t *testing.T) {
	rec := func(correct bool, calc float64) *result {
		r := &result{
			Meta:      meta{Workload: "online_zoo", Seed: 1, NProc: 2, GoMaxProcs: 2},
			Correct:   correct,
			Attempted: 30,
			Metrics:   map[string]metric{},
			Model:     map[string]float64{"model_calc_mcycles": calc},
		}
		for i, d := range endToEnd {
			r.Metrics[d.name] = metric{Value: float64(10 + i), Unit: d.unit, Better: d.better}
		}
		return r
	}
	for _, c := range []struct {
		name           string
		parent, change *result
		want           int
	}{
		{"identical", rec(true, 2806), rec(true, 2806), 0},
		{"model value moved", rec(true, 2806), rec(true, 2807), 1},
		{"change failed a check", rec(true, 2806), rec(false, 2806), 1},
		{"parent failed a check", rec(false, 2806), rec(true, 2806), 2},
	} {
		dir := t.TempDir()
		var args []string
		for _, side := range []struct {
			name string
			r    *result
		}{{"parent", c.parent}, {"change", c.change}} {
			for i := 0; i < 3; i++ {
				p := filepath.Join(dir, side.name, fmt.Sprintf("%d.json", i))
				if err := writeRecord(p, side.r); err != nil {
					t.Fatal(err)
				}
			}
			args = append(args, filepath.Join(dir, side.name))
		}
		if got := compareMain(args, "../../BENCHMARK.json"); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}

func TestPairable(t *testing.T) {
	a := &result{Meta: meta{Seed: 1, NProc: 2, GoMaxProcs: 2, Sizes: sizes{Entries: 1}}}
	for _, b := range []meta{
		{Seed: 2, NProc: 2, GoMaxProcs: 2, Sizes: sizes{Entries: 1}},
		{Seed: 1, NProc: 4, GoMaxProcs: 2, Sizes: sizes{Entries: 1}},
		{Seed: 1, NProc: 2, GoMaxProcs: 1, Sizes: sizes{Entries: 1}},
		{Seed: 1, NProc: 2, GoMaxProcs: 2, Sizes: sizes{Entries: 2}},
	} {
		if err := pairable([]*result{a, {Meta: b}}); err == nil {
			t.Errorf("paired %+v with %+v", a.Meta, b)
		}
	}
	if err := pairable([]*result{a, {Meta: a.Meta}}); err != nil {
		t.Error(err)
	}
}
