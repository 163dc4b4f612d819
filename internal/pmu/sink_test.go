package pmu

import (
	"testing"

	"rapidmrc/internal/mem"
)

// TestSinkTraceFull checks target accounting without a backing slice.
func TestSinkTraceFull(t *testing.T) {
	p := New(1)
	n := 0
	p.StartTrace(SinkFunc(func(mem.Line) { n++ }), 3, 0, 0)
	for i := 0; i < 10; i++ {
		p.OnL1DMiss(mem.Line(i), false, 0)
	}
	if !p.TraceFull() {
		t.Fatal("trace not full after target reached")
	}
	if n != 3 {
		t.Fatalf("sink saw %d entries, want 3", n)
	}
	st := p.FinishTrace(0, 0)
	if st.Captured != 3 {
		t.Fatalf("Captured = %d, want 3", st.Captured)
	}
}

// TestSinkEarlyAbort: finishing before the target is reached reports the
// partial capture.
func TestSinkEarlyAbort(t *testing.T) {
	p := New(1)
	n := 0
	p.StartTrace(SinkFunc(func(mem.Line) { n++ }), 100, 0, 0)
	for i := 0; i < 5; i++ {
		p.OnL1DMiss(mem.Line(i), false, 0)
	}
	st := p.FinishTrace(0, 0)
	if st.Captured != n || n == 0 {
		t.Fatalf("Captured = %d, sink saw %d", st.Captured, n)
	}
	if p.tracing {
		t.Fatal("still tracing after FinishTrace")
	}
}
