package core_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"rapidmrc/internal/core"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/workload"
)

// forceParallel raises GOMAXPROCS for one test so a requested worker
// count becomes a real multi-chunk split: the engine caps chunks at
// GOMAXPROCS (splitting beyond runnable parallelism is pure merge
// overhead), which on a 1-CPU CI host would silently collapse every
// equivalence test to the one-chunk path (Compute itself) and leave the
// boundary merge — and the racy fan-out — unexercised. Benchmarks
// deliberately do NOT use it: they measure the capped behaviour a
// deployment would see.
func forceParallel(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	if old < 16 {
		runtime.GOMAXPROCS(16)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// fuzzTrace builds a random trace with repetition runs and mixed
// locality — the same shape the stream≡batch property in core uses, so
// the two equivalence suites stress the same input space.
func fuzzTrace(r *rand.Rand, n int) []mem.Line {
	trace := make([]mem.Line, 0, n)
	for len(trace) < n {
		switch r.Intn(5) {
		case 0: // repetition run, 2..6 copies
			l := mem.Line(r.Intn(2000))
			k := 2 + r.Intn(5)
			for j := 0; j < k && len(trace) < n; j++ {
				trace = append(trace, l)
			}
		case 1: // near-miss of the previous line
			if len(trace) > 0 {
				trace = append(trace, trace[len(trace)-1]+1)
			} else {
				trace = append(trace, mem.Line(r.Intn(2000)))
			}
		case 2: // hot set
			trace = append(trace, mem.Line(r.Intn(100)))
		case 3: // warm set
			trace = append(trace, mem.Line(500+r.Intn(5000)))
		default: // cold stream
			trace = append(trace, mem.Line(1_000_000+len(trace)))
		}
	}
	return trace
}

// testConfigs mirrors core's streamConfigs: the paper default, a tiny
// stack with constant eviction churn and group split/merge pressure, and
// a fixed-warmup override.
func testConfigs() []core.Config {
	def := core.DefaultConfig()

	churn := core.DefaultConfig()
	churn.StackLines = 64
	churn.Points = 8
	churn.LinesPerPoint = 8
	churn.GroupSize = 4

	fixed := core.DefaultConfig()
	fixed.StackLines = 256
	fixed.Points = 4
	fixed.LinesPerPoint = 64
	fixed.GroupSize = 8
	fixed.FixedWarmupEntries = 100

	return []core.Config{def, churn, fixed}
}

// TestComputeParallelMatchesCompute is the tentpole equivalence property:
// across fuzzed traces, all three geometries, and varying worker counts,
// the parallel engine's Result — curve, histogram, warmup outcome, stack
// hit rate, and ModelCycles — is bit-identical to serial core.Compute.
func TestComputeParallelMatchesCompute(t *testing.T) {
	forceParallel(t)
	for ci, cfg := range testConfigs() {
		cfg := cfg
		serial := func(seed int64, size uint16, _ uint8) *core.Result {
			r := rand.New(rand.NewSource(seed))
			trace := fuzzTrace(r, int(size%4000)+1)
			res, err := core.Compute(trace, 10_000_000, cfg)
			if err != nil {
				return nil
			}
			return res
		}
		parallel := func(seed int64, size uint16, workers uint8) *core.Result {
			r := rand.New(rand.NewSource(seed))
			trace := fuzzTrace(r, int(size%4000)+1)
			res, err := core.ComputeParallel(trace, 10_000_000, cfg, int(workers%7)+1)
			if err != nil {
				return nil
			}
			return res
		}
		if err := quick.CheckEqual(serial, parallel, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("config %d: %v", ci, err)
		}
	}
}

// TestComputeParallelWorkloadZoo pins the equivalence on every synthetic
// application in the zoo — the realistic access patterns (loops, pointer
// chases, streams, phase changes) rather than fuzz.
func TestComputeParallelWorkloadZoo(t *testing.T) {
	forceParallel(t)
	const refs = 30_000
	cfgs := testConfigs()
	for _, name := range workload.SortedNames() {
		g := workload.New(workload.MustByName(name), 42)
		trace := make([]mem.Line, refs)
		for i := range trace {
			trace[i] = mem.LineOf(g.Next().Addr)
		}
		for ci, cfg := range cfgs {
			want, err := core.Compute(trace, 3_000_000, cfg)
			if err != nil {
				t.Fatalf("%s cfg %d: serial: %v", name, ci, err)
			}
			for _, workers := range []int{1, 3, 4} {
				got, err := core.ComputeParallel(trace, 3_000_000, cfg, workers)
				if err != nil {
					t.Fatalf("%s cfg %d w%d: parallel: %v", name, ci, workers, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s cfg %d w%d: parallel result diverges from serial", name, ci, workers)
				}
			}
		}
	}
}

// TestComputeParallelWorkerCounts exercises the racy fan-out under the
// race detector: a prime-length trace (so every chunk split is uneven and
// non-power-of-two) across workers ∈ {1, 2, 7, 16}, all of which must
// produce the identical result.
func TestComputeParallelWorkerCounts(t *testing.T) {
	forceParallel(t)
	const n = 10_007 // prime: no worker count divides it evenly
	r := rand.New(rand.NewSource(7))
	trace := fuzzTrace(r, n)
	cfg := testConfigs()[1] // churn geometry: eviction pressure in 10k refs

	want, err := core.Compute(trace, 1_000_000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7, 16} {
		workers := workers
		t.Run("", func(t *testing.T) {
			t.Parallel()
			got, err := core.ComputeParallel(trace, 1_000_000, cfg, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("workers=%d: result diverges from serial", workers)
			}
		})
	}
}

// TestFeederMatchesStreamEngine feeds the same reference sequence to a
// parallel Feeder and a serial StreamEngine and checks they agree after
// every prefix: same Warming/Consumed/Recorded, and — once warm —
// bit-identical snapshots, including mid-stream ones.
func TestFeederMatchesStreamEngine(t *testing.T) {
	forceParallel(t)
	r := rand.New(rand.NewSource(11))
	for ci, cfg := range testConfigs() {
		if cfg.StackLines > 1024 {
			cfg.StackLines = 512 // keep auto-warmup reachable in a short stream
			cfg.Points = 4
			cfg.LinesPerPoint = 64
		}
		const target = 5000
		trace := fuzzTrace(r, target)

		se, err := core.NewStreamEngine(cfg, target)
		if err != nil {
			t.Fatal(err)
		}
		f, err := core.NewFeeder(cfg, target, 3)
		if err != nil {
			t.Fatal(err)
		}
		checkpoints := map[int]bool{1: true, 100: true, 2500: true, 3571: true, target: true}
		for i, l := range trace {
			se.Feed(l)
			f.Feed(l)
			if f.Warming() != se.Warming() || f.Consumed() != se.Consumed() || f.Recorded() != se.Recorded() {
				t.Fatalf("cfg %d entry %d: feeder state (warming %v consumed %d recorded %d) != engine (%v %d %d)",
					ci, i, f.Warming(), f.Consumed(), f.Recorded(), se.Warming(), se.Consumed(), se.Recorded())
			}
			if !checkpoints[i+1] {
				continue
			}
			want, werr := se.Snapshot(500_000)
			got, gerr := f.Snapshot(500_000)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("cfg %d entry %d: snapshot errors diverge: engine %v, feeder %v", ci, i, werr, gerr)
			}
			if werr != nil {
				continue
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("cfg %d entry %d: feeder snapshot diverges from stream engine", ci, i)
			}
		}
	}
}

// TestFeederSnapshotWhileWarming pins the clean-error contract: a
// snapshot taken before warmup has released any reference must fail with
// a descriptive error, not return a garbage result.
func TestFeederSnapshotWhileWarming(t *testing.T) {
	cfg := core.DefaultConfig()
	f, err := core.NewFeeder(cfg, 10_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Snapshot(1000); err == nil || !strings.Contains(err.Error(), "warmup") {
		t.Fatalf("snapshot of empty feeder: got err %v, want warmup error", err)
	}
	for i := 0; i < 100; i++ { // well inside the 5000-entry static warmup
		f.Feed(mem.Line(i))
	}
	if !f.Warming() {
		t.Fatal("feeder left warmup after 100 of 5000 warmup entries")
	}
	if _, err := f.Snapshot(1000); err == nil || !strings.Contains(err.Error(), "warmup") {
		t.Fatalf("snapshot during warmup: got err %v, want warmup error", err)
	}
}

// TestComputeParallelErrors covers the argument-validation surface.
func TestComputeParallelErrors(t *testing.T) {
	cfg := core.DefaultConfig()
	if _, err := core.ComputeParallel(nil, 1000, cfg, 4); err == nil {
		t.Error("empty trace: want error")
	}
	bad := cfg
	bad.StackLines = 0
	if _, err := core.ComputeParallel([]mem.Line{1, 2, 3}, 1000, bad, 4); err == nil {
		t.Error("invalid config: want error")
	}
	if _, err := core.NewFeeder(cfg, 0, 4); err == nil {
		t.Error("non-positive target: want error")
	}
	if _, err := core.NewFeeder(bad, 100, 4); err == nil {
		t.Error("invalid feeder config: want error")
	}
}
