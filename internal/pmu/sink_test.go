package pmu

import (
	"reflect"
	"testing"

	"rapidmrc/internal/mem"
)

// driveTrace replays one deterministic event sequence — overlapped events
// (drop candidates), prefetch bursts (staleness candidates), and clean
// misses — against an already-started PMU.
func driveTrace(p *PMU) {
	for i := 0; i < 2000; i++ {
		switch i % 5 {
		case 0:
			p.OnPrefetchFill(3)
			p.OnL1DMiss(mem.Line(i), false, 0)
		case 1:
			p.OnL1DMiss(mem.Line(i), true, 550)
		default:
			p.OnL1DMiss(mem.Line(i), false, 0)
		}
	}
}

// TestSinkSeesBufferedStream pins the streaming contract: a sink attached
// with StartTraceTo observes exactly the entry sequence the buffered log
// would have recorded — same drops, same stale repetitions, same order —
// and FinishTrace reports identical stats.
func TestSinkSeesBufferedStream(t *testing.T) {
	for _, depth := range []int{1, 16} { // per-event exceptions and §6 trace buffer
		batch := New(7)
		batch.SetTraceBuffer(depth)
		batch.StartTrace(1000, 100, 2000)
		driveTrace(batch)
		log, wantStats := batch.FinishTrace(600, 52_000)

		stream := New(7)
		stream.SetTraceBuffer(depth)
		var got []mem.Line
		stream.StartTraceTo(SinkFunc(func(l mem.Line) { got = append(got, l) }), 1000, 100, 2000)
		driveTrace(stream)
		nilLog, gotStats := stream.FinishTrace(600, 52_000)

		if nilLog != nil {
			t.Fatalf("depth %d: sink mode returned a materialized log", depth)
		}
		if !reflect.DeepEqual(log, got) {
			t.Fatalf("depth %d: sink stream diverges from buffered log (%d vs %d entries)",
				depth, len(got), len(log))
		}
		if wantStats != gotStats {
			t.Fatalf("depth %d: stats differ: batch %+v, sink %+v", depth, wantStats, gotStats)
		}
		if gotStats.Captured != 1000 {
			t.Fatalf("depth %d: captured %d, want full target", depth, gotStats.Captured)
		}
	}
}

// TestSinkTraceFull checks target accounting without a backing slice.
func TestSinkTraceFull(t *testing.T) {
	p := New(1)
	n := 0
	p.StartTraceTo(SinkFunc(func(mem.Line) { n++ }), 3, 0, 0)
	for i := 0; i < 10; i++ {
		p.OnL1DMiss(mem.Line(i), false, 0)
	}
	if !p.TraceFull() {
		t.Fatal("trace not full after target reached")
	}
	if n != 3 {
		t.Fatalf("sink saw %d entries, want 3", n)
	}
	_, st := p.FinishTrace(0, 0)
	if st.Captured != 3 {
		t.Fatalf("Captured = %d, want 3", st.Captured)
	}
}

// TestSinkEarlyAbort: finishing before the target is reached reports the
// partial capture.
func TestSinkEarlyAbort(t *testing.T) {
	p := New(1)
	n := 0
	p.StartTraceTo(SinkFunc(func(mem.Line) { n++ }), 100, 0, 0)
	for i := 0; i < 5; i++ {
		p.OnL1DMiss(mem.Line(i), false, 0)
	}
	_, st := p.FinishTrace(0, 0)
	if st.Captured != n || n == 0 {
		t.Fatalf("Captured = %d, sink saw %d", st.Captured, n)
	}
	if p.tracing {
		t.Fatal("still tracing after FinishTrace")
	}
}
