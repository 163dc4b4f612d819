package pmu

import (
	"testing"

	"rapidmrc/internal/mem"
)

func TestBufferedCaptureIsLossless(t *testing.T) {
	p := New(1)
	p.SetTraceBuffer(64)
	if p.bufferSize != 64 {
		t.Fatalf("buffer depth = %d", p.bufferSize)
	}
	var trace traceLog
	p.StartTrace(&trace, 1000, 0, 0)
	for i := 0; i < 1000; i++ {
		// Overlapped events with a high drop rate, plus prefetch bursts:
		// the buffered PMU must ignore both artifacts.
		p.OnPrefetchFill(4)
		p.OnL1DMiss(mem.Line(i), true, 550)
	}
	st := p.FinishTrace(0, 0)
	if st.Dropped != 0 || st.Stale != 0 {
		t.Fatalf("buffered capture has artifacts: %+v", st)
	}
	if len(trace) != 1000 {
		t.Fatalf("captured %d entries", len(trace))
	}
	for i, l := range trace {
		if l != mem.Line(i) {
			t.Fatalf("trace[%d] = %d, want exact address %d", i, l, i)
		}
	}
}

func TestBufferedExceptionAmortization(t *testing.T) {
	p := New(1)
	p.SetTraceBuffer(16)
	p.StartTrace(new(traceLog), 160, 0, 0)
	exceptions := 0
	for i := 0; i < 160; i++ {
		if p.OnL1DMiss(mem.Line(i), false, 0) {
			exceptions++
		}
	}
	if exceptions != 10 {
		t.Fatalf("%d exceptions for 160 events with depth 16, want 10", exceptions)
	}
}

func TestBufferedPartialBufferAtTargetFires(t *testing.T) {
	p := New(1)
	p.SetTraceBuffer(64)
	p.StartTrace(new(traceLog), 10, 0, 0) // target smaller than the buffer
	exceptions := 0
	for i := 0; i < 10; i++ {
		if p.OnL1DMiss(mem.Line(i), false, 0) {
			exceptions++
		}
	}
	if exceptions != 1 {
		t.Fatalf("%d exceptions, want 1 (flush at target)", exceptions)
	}
	if !p.TraceFull() {
		t.Fatal("trace not full")
	}
}

func TestBufferedCountsOutsideTrace(t *testing.T) {
	p := New(1)
	p.SetTraceBuffer(8)
	if p.OnL1DMiss(1, false, 0) {
		t.Fatal("exception while not tracing")
	}
	if p.Counters().L1DMisses != 1 {
		t.Fatal("counter not advanced")
	}
}

func TestSetTraceBufferClampsToOne(t *testing.T) {
	p := New(1)
	p.SetTraceBuffer(-5)
	if p.bufferSize != 1 {
		t.Fatalf("depth = %d, want clamp to 1", p.bufferSize)
	}
}

func TestStartTraceResetsBufferFill(t *testing.T) {
	p := New(1)
	p.SetTraceBuffer(4)
	p.StartTrace(new(traceLog), 8, 0, 0)
	p.OnL1DMiss(1, false, 0)
	p.OnL1DMiss(2, false, 0) // buffer half full
	p.FinishTrace(0, 0)
	p.StartTrace(new(traceLog), 8, 0, 0)
	fired := 0
	for i := 0; i < 4; i++ {
		if p.OnL1DMiss(mem.Line(i), false, 0) {
			fired++
		}
	}
	if fired != 1 {
		t.Fatalf("stale buffer fill carried across traces: %d exceptions in 4 events", fired)
	}
}
