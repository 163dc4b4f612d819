package rapidmrc

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"rapidmrc/internal/cpu"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/platform"
	"rapidmrc/internal/pmu"
	"rapidmrc/internal/workload"
)

// onlineSerial is Online without the overlap: the machine captures the
// whole log, then a session computes the curve from it.
func onlineSerial(t *testing.T, app string, opts ...SystemOption) (*Curve, *Stats, *Trace) {
	t.Helper()
	sys, err := NewSystem(app, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(500_000)
	var lines []uint64
	st := sys.m.CollectTrace(sys.opt.entries, pmu.SinkFunc(func(l mem.Line) {
		lines = append(lines, uint64(l))
	}))
	trace := &Trace{
		Lines:        lines,
		Instructions: st.Instructions,
		Cycles:       st.Cycles,
		Dropped:      st.Dropped,
		Stale:        st.Stale,
	}
	curve, stats, err := profileTrace(sys.opt.spec(), trace)
	if err != nil {
		t.Fatal(err)
	}
	sys.anchor(curve, stats)
	return curve, stats, trace
}

// waitGoroutines fails the test unless the goroutine count falls back to
// base: goroutines that exited before a call returned may take a moment
// to leave the count.
func waitGoroutines(t *testing.T, base int, after string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("after %s: %d goroutines, baseline %d\n%s",
				after, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

// TestOnlineMatchesSerialCapture pins Online's overlapped capture and
// computation to the serial capture-then-compute path: the same trace,
// curve bits and stats, over several apps, seeds and option sets —
// logs that are a whole number of feed chunks and logs that are not, the
// §6 trace buffer and a sampled session. No goroutine outlives a call.
func TestOnlineMatchesSerialCapture(t *testing.T) {
	const chunk = 4096 // service.RunPeriod's feed chunk
	cases := []struct {
		name string
		opts []SystemOption
	}{
		{"default", nil},
		{"short", []SystemOption{WithTraceEntries(3*chunk + 17)}},
		{"chunks", []SystemOption{WithTraceEntries(4 * chunk)}},
		{"one-entry", []SystemOption{WithTraceEntries(1)}},
		{"buffered", []SystemOption{WithTraceBuffer(256), WithTraceEntries(30_000)}},
		{"sampled", []SystemOption{WithSamplingRate(0.1), WithTraceEntries(40_000)}},
		{"partition", []SystemOption{WithPartition(4), WithoutL3(), WithTraceEntries(25_000)}},
	}
	apps := []string{"mcf", "gzip", "art", "swim"}
	if testing.Short() {
		apps = apps[:2]
	}
	for ci, c := range cases {
		for ai, app := range apps {
			seed := int64(1 + ci + 7*ai)
			if c.name == "default" && ai > 0 {
				continue // one full-length probe is enough
			}
			t.Run(fmt.Sprintf("%s/%s/seed=%d", c.name, app, seed), func(t *testing.T) {
				opts := append([]SystemOption{WithSeed(seed)}, c.opts...)
				base := runtime.NumGoroutine()
				curve, stats, trace, err := Online(app, opts...)
				if err != nil {
					t.Fatal(err)
				}
				waitGoroutines(t, base, "Online")
				wantCurve, wantStats, wantTrace := onlineSerial(t, app, opts...)
				if !reflect.DeepEqual(trace, wantTrace) {
					t.Fatalf("trace differs: %d lines, %d instr; serial %d lines, %d instr",
						len(trace.Lines), trace.Instructions, len(wantTrace.Lines), wantTrace.Instructions)
				}
				for i := range wantCurve.MPKI {
					if math.Float64bits(curve.MPKI[i]) != math.Float64bits(wantCurve.MPKI[i]) {
						t.Fatalf("curve point %d: %v, serial %v", i, curve.MPKI[i], wantCurve.MPKI[i])
					}
				}
				if len(curve.MPKI) != len(wantCurve.MPKI) {
					t.Fatalf("curve has %d points, serial %d", len(curve.MPKI), len(wantCurve.MPKI))
				}
				if !reflect.DeepEqual(stats, wantStats) {
					t.Fatalf("stats differ:\n got  %+v\n want %+v", stats, wantStats)
				}
				if c.name == "sampled" && stats.SamplingRate == 0 {
					t.Fatal("sampled probe carries no sampling rate")
				}
			})
		}
	}
}

func TestOnlineRejectsEmptyProbe(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, n := range []int{0, -5} {
		if _, _, _, err := Online("gzip", WithTraceEntries(n)); err != errEmptyTrace {
			t.Errorf("WithTraceEntries(%d): err %v, want %v", n, err, errEmptyTrace)
		}
		waitGoroutines(t, base, "an empty Online")
	}
}

// faultyGen is a workload that panics after n refs.
type faultyGen struct {
	g *workload.Gen
	n int
}

func (f *faultyGen) Name() string     { return "faulty" }
func (f *faultyGen) Reset(seed int64) { f.g.Reset(seed) }
func (f *faultyGen) Next() mem.Ref {
	if f.n == 0 {
		panic("generator fault")
	}
	f.n--
	return f.g.Next()
}

// TestOnlineForwardsGeneratorPanic runs Online's capture over a workload
// that panics part-way through the probing period: the panic reaches the
// caller, and neither the machine's read-ahead producer nor the feeder
// outlives the call.
func TestOnlineForwardsGeneratorPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	gen := &faultyGen{g: workload.New(workload.MustByName("mcf"), 3), n: 150_000}
	sys := &System{
		m:   platform.NewMachine(gen, platform.Options{Mode: cpu.Complex, L3Enabled: true, Seed: 3}),
		opt: defaultSysOptions(),
	}
	func() {
		defer func() {
			if p := recover(); p != "generator fault" {
				t.Fatalf("recovered %v, want the generator's panic", p)
			}
		}()
		sys.captureProfiled()
		t.Fatal("captureProfiled returned over a faulting workload")
	}()
	waitGoroutines(t, base, "the faulting capture")
}
