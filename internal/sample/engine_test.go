package sample_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"rapidmrc/internal/core"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/sample"
)

// exactConfigs are the two spellings of exact profiling every engine pin
// runs under: the zero config and an explicit rate 1.0.
var exactConfigs = []sample.Config{{}, {Rate: 1}}

// feedAll streams a trace through a fresh engine.
func feedAll(t *testing.T, cfg core.Config, scfg sample.Config, trace []mem.Line) *sample.Engine {
	t.Helper()
	e, err := sample.NewEngine(cfg, scfg, len(trace))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range trace {
		e.Feed(l)
	}
	return e
}

func sameResult(t *testing.T, want, got *core.Result) bool {
	t.Helper()
	switch {
	case !reflect.DeepEqual(want.MRC.MPKI, got.MRC.MPKI):
		t.Logf("MPKI: want %v, got %v", want.MRC.MPKI, got.MRC.MPKI)
	case !reflect.DeepEqual(want.Hist, got.Hist):
		t.Log("histograms differ")
	case want.InfMisses != got.InfMisses:
		t.Logf("InfMisses: want %d, got %d", want.InfMisses, got.InfMisses)
	case want.WarmupEntries != got.WarmupEntries:
		t.Logf("WarmupEntries: want %d, got %d", want.WarmupEntries, got.WarmupEntries)
	case want.AutoWarmup != got.AutoWarmup:
		t.Logf("AutoWarmup: want %v, got %v", want.AutoWarmup, got.AutoWarmup)
	case want.Recorded != got.Recorded:
		t.Logf("Recorded: want %d, got %d", want.Recorded, got.Recorded)
	case want.StackHitRate != got.StackHitRate:
		t.Logf("StackHitRate: want %v, got %v", want.StackHitRate, got.StackHitRate)
	case want.Instructions != got.Instructions:
		t.Logf("Instructions: want %d, got %d", want.Instructions, got.Instructions)
	case want.ModelCycles != got.ModelCycles:
		t.Logf("ModelCycles: want %d, got %d", want.ModelCycles, got.ModelCycles)
	default:
		return true
	}
	return false
}

// TestStreamEngineMatchesCompute is the streaming equivalence property:
// feeding a corrected trace one reference at a time through the exact
// engine and taking a final snapshot is bit-identical to core.Compute —
// curve, histogram, warmup outcome, stack hit rate, and modeled cycles.
func TestStreamEngineMatchesCompute(t *testing.T) {
	for _, scfg := range exactConfigs {
		for _, cfg := range testConfigs() {
			cfg := cfg
			f := func(seed int64, size uint16, instr uint32) bool {
				r := rand.New(rand.NewSource(seed))
				trace := fuzzTrace(r, int(size%3000)+2)
				core.CorrectPrefetchRepetitions(trace)
				instructions := uint64(instr) + 1

				want, err := core.Compute(trace, instructions, cfg)
				if err != nil {
					t.Log(err)
					return false
				}
				got, err := feedAll(t, cfg, scfg, trace).Snapshot(instructions)
				if err != nil {
					t.Log(err)
					return false
				}
				return sameResult(t, want, got)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
				t.Fatalf("scfg %+v cfg %+v: %v", scfg, cfg, err)
			}
		}
	}
}

// TestStreamSnapshotMidStream checks the epoch reads: every mid-stream
// snapshot is a monotone (non-increasing) curve equal to core.Compute
// over the prefix it covers, and snapshots do not disturb the stream
// (the final result still matches Compute over the whole trace).
func TestStreamSnapshotMidStream(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.StackLines = 128
	cfg.Points = 8
	cfg.LinesPerPoint = 16
	cfg.GroupSize = 4

	r := rand.New(rand.NewSource(7))
	trace := fuzzTrace(r, 4000)
	core.CorrectPrefetchRepetitions(trace)
	const instructions = 123_456

	for _, scfg := range exactConfigs {
		e, err := sample.NewEngine(cfg, scfg, len(trace))
		if err != nil {
			t.Fatal(err)
		}
		snaps, prefixes := 0, 0
		for i, l := range trace {
			e.Feed(l)
			if (i+1)%500 != 0 {
				continue
			}
			instrSoFar := uint64(instructions) * uint64(i+1) / uint64(len(trace))
			snap, err := e.Snapshot(instrSoFar)
			if err != nil {
				continue // still warming
			}
			snaps++
			for p := 1; p < len(snap.MRC.MPKI); p++ {
				if snap.MRC.MPKI[p] > snap.MRC.MPKI[p-1] {
					t.Fatalf("snapshot at %d entries not monotone: %v", i+1, snap.MRC.MPKI)
				}
			}
			// A snapshot must equal Compute over the prefix it covers
			// whenever both reach the same warmup outcome. Compute takes
			// its static fallback from the prefix length, not the stream's
			// target, so compare where the stack filled before that
			// shorter fallback could fire.
			if !snap.AutoWarmup || snap.WarmupEntries > int(float64(i+1)*cfg.StaticWarmupFrac) {
				continue
			}
			prefixes++
			want, err := core.Compute(trace[:i+1], instrSoFar, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(t, want, snap) {
				t.Fatalf("scfg %+v: snapshot at %d entries differs from Compute over the prefix", scfg, i+1)
			}
		}
		if snaps == 0 || prefixes == 0 {
			t.Fatalf("mid-stream snapshots: %d succeeded, %d compared with Compute", snaps, prefixes)
		}

		want, err := core.Compute(trace, instructions, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Snapshot(instructions)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(t, want, got) {
			t.Fatalf("scfg %+v: final snapshot differs from Compute after mid-stream snapshots", scfg)
		}
	}
}

// TestStreamEvictionChurn drives a tiny stack far past capacity so every
// reference evicts, exercising the stack's window renumbering under
// streaming.
func TestStreamEvictionChurn(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.StackLines = 32
	cfg.Points = 4
	cfg.LinesPerPoint = 8
	cfg.GroupSize = 4

	// Cyclic sweep wider than capacity: all recorded references miss.
	trace := make([]mem.Line, 2000)
	for i := range trace {
		trace[i] = mem.Line(i % 100)
	}
	want, err := core.Compute(trace, 1000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, scfg := range exactConfigs {
		got, err := feedAll(t, cfg, scfg, trace).Snapshot(1000)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(t, want, got) {
			t.Fatalf("scfg %+v: eviction-churn stream diverged from Compute", scfg)
		}
		if got.StackHitRate != 0 {
			t.Fatalf("cyclic sweep past capacity should never hit, rate %v", got.StackHitRate)
		}
	}
}

func TestStreamEngineErrors(t *testing.T) {
	for _, scfg := range exactConfigs {
		if _, err := sample.NewEngine(core.DefaultConfig(), scfg, 0); err == nil {
			t.Errorf("scfg %+v: target 0 accepted", scfg)
		}
		bad := core.DefaultConfig()
		bad.StackLines = -1
		if _, err := sample.NewEngine(bad, scfg, 100); err == nil {
			t.Errorf("scfg %+v: invalid config accepted", scfg)
		}
		e, err := sample.NewEngine(core.DefaultConfig(), scfg, 100)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Snapshot(10); err == nil {
			t.Errorf("scfg %+v: snapshot before any recorded reference succeeded", scfg)
		}
		e.Feed(1)
		if !e.Warming() {
			t.Errorf("scfg %+v: engine not warming after one entry", scfg)
		}
	}
}

// TestStreamSnapshotWhileWarming pins the mid-warm-up Snapshot contract:
// at every prefix of the warmup phase the engine must return a clean,
// descriptive error — never a partial Result and never a panic — and
// must start answering the moment the first reference is recorded.
func TestStreamSnapshotWhileWarming(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.StackLines = 64
	cfg.Points = 8
	cfg.LinesPerPoint = 8
	cfg.GroupSize = 4
	const target = 1000
	for _, scfg := range exactConfigs {
		e, err := sample.NewEngine(cfg, scfg, target)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < target; i++ {
			e.Feed(mem.Line(i % 200))
			res, err := e.Snapshot(1_000)
			if e.Warming() {
				if err == nil {
					t.Fatalf("entry %d: snapshot during warmup returned a result", i+1)
				}
				if res != nil {
					t.Fatalf("entry %d: snapshot during warmup returned non-nil result alongside error", i+1)
				}
				if !strings.Contains(err.Error(), "warmup") {
					t.Fatalf("entry %d: warmup snapshot error not descriptive: %v", i+1, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("entry %d: snapshot after warmup failed: %v", i+1, err)
			}
			if res.Recorded != e.Recorded() {
				t.Fatalf("entry %d: snapshot recorded %d, engine %d", i+1, res.Recorded, e.Recorded())
			}
		}
	}
}
