package service

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"rapidmrc/internal/core"
	"rapidmrc/internal/mem"
)

// periodLines is a deterministic raw log of n entries over a footprint
// that fills the default stack, with runs of repeats for the corrector.
func periodLines(n int, seed int64) []uint64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]uint64, n)
	for i := range out {
		if i > 0 && r.Intn(8) == 0 {
			out[i] = out[i-1]
			continue
		}
		out[i] = uint64(r.Intn(24_000))
	}
	return out
}

// periodClock stamps n entries with 7n instructions.
func periodClock(n int) uint64 { return 7 * uint64(n) }

// replay is a capture step that logs lines until they run out or the
// period stops, one entry per step; it counts the entries it logged.
func replay(lines []uint64, logged *int) func(*Recorder) {
	return func(rec *Recorder) {
		for _, l := range lines {
			if rec.Stopped() {
				return
			}
			rec.Sample(mem.Line(l))
			*logged++
		}
	}
}

func openPeriodSession(t *testing.T, n int) *Session {
	t.Helper()
	sess, err := NewEnginePool(1).Open(TenantConfig{Engine: core.DefaultConfig(), Target: n})
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// periodEpoch is what a test keeps of an epoch.
type periodEpoch struct {
	entries int
	instr   uint64
	mpki    []uint64 // float bits
}

func keepEpoch(ep *Epoch) periodEpoch {
	bits := make([]uint64, len(ep.Result.MRC.MPKI))
	for i, v := range ep.Result.MRC.MPKI {
		bits[i] = math.Float64bits(v)
	}
	return periodEpoch{entries: ep.Entries, instr: ep.Instructions, mpki: bits}
}

// serialEpochs is the oracle: the lines fed one at a time, a snapshot
// after every multiple of every entries that does not fail, and the
// final snapshot.
func serialEpochs(t *testing.T, lines []uint64, every int) ([]periodEpoch, periodEpoch) {
	t.Helper()
	sess := openPeriodSession(t, len(lines))
	defer sess.Close()
	var eps []periodEpoch
	for i, l := range lines {
		sess.Feed([]uint64{l})
		if n := i + 1; n%every == 0 {
			if ep, err := sess.Snapshot(periodClock(n)); err == nil {
				eps = append(eps, keepEpoch(ep))
			}
		}
	}
	final, err := sess.Snapshot(periodClock(len(lines)))
	if err != nil {
		t.Fatal(err)
	}
	return eps, keepEpoch(final)
}

// TestRunPeriodCutsEpochsAtExactMultiples feeds logs through RunPeriod
// and requires every epoch snapshot, and the final one, bit-identical to
// a serial feed snapshotted at each exact multiple of the epoch length:
// lengths that are not multiples of the feed chunk, a log shorter than
// one chunk, epochs that fall on the final entry, and warming epochs
// skipped. A kept log comes back entry for entry.
func TestRunPeriodCutsEpochsAtExactMultiples(t *testing.T) {
	for _, c := range []struct{ n, every int }{
		{60_000, 5_000},  // the final entry ends an epoch
		{60_000, 20_000}, // likewise, and epochs span chunks
		{47_123, 5_000},
		{47_123, 20_000},
		{3_000, 1_000}, // shorter than one chunk; the first epoch warms
		{2 * feedChunk, feedChunk},
	} {
		for _, keep := range []bool{false, true} {
			t.Run(fmt.Sprintf("n=%d/every=%d/keep=%v", c.n, c.every, keep), func(t *testing.T) {
				base := runtime.NumGoroutine()
				lines := periodLines(c.n, int64(c.n+c.every))
				wantEps, wantFinal := serialEpochs(t, lines, c.every)
				sess := openPeriodSession(t, c.n)
				defer sess.Close()
				var eps []periodEpoch
				logged := 0
				p := Period{
					Capture:      replay(lines, &logged),
					EpochEntries: c.every,
					Clock:        periodClock,
					OnEpoch: func(ep *Epoch) bool {
						eps = append(eps, keepEpoch(ep))
						return false
					},
				}
				if keep {
					p.Keep = c.n
				}
				log := sess.RunPeriod(p)
				waitGoroutines(t, base, "RunPeriod")
				if keep != (log != nil) || keep && fmt.Sprint(log) != fmt.Sprint(lines) {
					t.Fatalf("keep=%v returned a log of %d entries, want %v", keep, len(log), keep)
				}
				if fmt.Sprint(eps) != fmt.Sprint(wantEps) {
					t.Fatalf("epochs differ from the serial feed:\n got  %v\n want %v", entriesOf(eps), entriesOf(wantEps))
				}
				final, err := sess.Snapshot(periodClock(c.n))
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(keepEpoch(final)) != fmt.Sprint(wantFinal) {
					t.Fatal("final snapshot differs from the serial feed")
				}
			})
		}
	}
}

func entriesOf(eps []periodEpoch) []int {
	out := make([]int, len(eps))
	for i, e := range eps {
		out[i] = e.entries
	}
	return out
}

// TestRunPeriodStopsAtSameEntry stops a period from its epoch callback
// and requires it to end at that epoch's last entry exactly — the
// capture logs nothing past it and the session holds exactly it — with
// one CPU and with the default count. Run it under -race -count 5.
func TestRunPeriodStopsAtSameEntry(t *testing.T) {
	const n, every, stopAt = 60_000, 5_000, 45_000
	lines := periodLines(n, 3)
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			base := runtime.NumGoroutine()
			for rep := 0; rep < 3; rep++ {
				sess := openPeriodSession(t, n)
				logged, last := 0, 0
				sess.RunPeriod(Period{
					Capture:      replay(lines, &logged),
					EpochEntries: every,
					Clock:        periodClock,
					OnEpoch: func(ep *Epoch) bool {
						last = ep.Entries
						return ep.Entries == stopAt
					},
				})
				if logged != stopAt || last != stopAt || sess.Consumed() != stopAt {
					t.Fatalf("stopped after %d logged entries (last epoch %d, %d fed), want %d",
						logged, last, sess.Consumed(), stopAt)
				}
				sess.Close()
			}
			waitGoroutines(t, base, "stopped periods")
		})
	}
}

// TestRunPeriodForwardsPanics panics in the epoch callback and in the
// capture step: each panic reaches RunPeriod's caller, a failed feeder
// ends the capture at the next entry it hands over, and no goroutine
// outlives the call.
func TestRunPeriodForwardsPanics(t *testing.T) {
	lines := periodLines(30_000, 5)
	for _, c := range []struct {
		name    string
		capture func(rec *Recorder, logged *int)
		onEpoch func(*Epoch) bool
		maxLog  int // the capture must end by here
	}{
		{
			name:    "epoch",
			capture: func(rec *Recorder, logged *int) { replay(lines, logged)(rec) },
			onEpoch: func(ep *Epoch) bool { panic("epoch fault") },
			maxLog:  20_000, // the first epoch that does not warm
		},
		{
			name: "capture",
			capture: func(rec *Recorder, logged *int) {
				replay(lines[:12_345], logged)(rec)
				panic("capture fault")
			},
			onEpoch: func(*Epoch) bool { return false },
			maxLog:  12_345,
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			sess := openPeriodSession(t, len(lines))
			defer sess.Close()
			logged := 0
			func() {
				defer func() {
					if p := recover(); p != c.name+" fault" {
						t.Fatalf("recovered %v, want the %s's panic", p, c.name)
					}
				}()
				sess.RunPeriod(Period{
					Capture:      func(rec *Recorder) { c.capture(rec, &logged) },
					EpochEntries: 5_000,
					Clock:        periodClock,
					OnEpoch:      c.onEpoch,
				})
				t.Fatal("RunPeriod returned")
			}()
			if logged > c.maxLog {
				t.Errorf("capture logged %d entries, want at most %d", logged, c.maxLog)
			}
			waitGoroutines(t, base, "the failed period")
		})
	}
}

// TestFeederForwardsPanic feeds a closed session, which panics on the
// feeder goroutine. The capture side must not block on the dead feeder
// however many chunks it still sends, and finish re-raises the panic on
// the caller once the feeder has exited.
func TestFeederForwardsPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	sess := openPeriodSession(t, feedChunk)
	sess.Close()
	f := startFeeder(sess, nil)
	c := chunk{lines: make([]uint64, feedChunk)}
	for i := 0; i < 3*feedDepth; i++ {
		f.send(c)
	}
	func() {
		defer func() {
			if _, ok := recover().(runtime.Error); !ok {
				t.Fatal("finish did not re-raise the feeder's runtime error")
			}
		}()
		f.finish()
	}()
	f.stop() // a second stop is a no-op
	waitGoroutines(t, base, "the failed feeder")
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
