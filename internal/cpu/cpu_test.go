package cpu

import "testing"

// String names the mode (complex / no-prefetch / simplified / custom).
func (m Mode) String() string {
	switch m {
	case Complex:
		return "complex"
	case NoPrefetch:
		return "no-prefetch"
	case Simplified:
		return "simplified"
	default:
		return "custom"
	}
}

func TestModeString(t *testing.T) {
	cases := map[string]Mode{
		"complex":     Complex,
		"no-prefetch": NoPrefetch,
		"simplified":  Simplified,
		"custom":      {MultiIssue: true},
	}
	for want, m := range cases {
		if got := m.String(); got != want {
			t.Errorf("%+v.String() = %q, want %q", m, got, want)
		}
	}
}

func TestDefaultTimingByMode(t *testing.T) {
	cx := DefaultTiming(Complex)
	sp := DefaultTiming(Simplified)
	if cx.BaseCPIMilli >= sp.BaseCPIMilli {
		t.Error("complex mode should have lower base CPI than simplified")
	}
	if cx.StallFractionMilli >= sp.StallFractionMilli {
		t.Error("out-of-order mode should hide more miss latency")
	}
	if sp.OverlapWindow != 0 || sp.OverlapDropPermille != 0 {
		t.Error("simplified mode must never drop SDAR updates")
	}
	if cx.OverlapWindow == 0 || cx.OverlapDropPermille == 0 {
		t.Error("complex mode must model SDAR drops")
	}
	np := DefaultTiming(NoPrefetch)
	if np.OverlapWindow == 0 {
		t.Error("no-prefetch mode is still out-of-order; overlap expected")
	}
}

func TestAdvanceAndCycles(t *testing.T) {
	c := New(Simplified) // CPI 1.4
	c.Advance(1000)
	if got := c.Instructions(); got != 1000 {
		t.Fatalf("instructions = %d", got)
	}
	if got := c.Cycles(); got != 1400 {
		t.Fatalf("cycles = %d, want 1400", got)
	}
	if got := c.IPC(); got <= 0.70 || got >= 0.73 {
		t.Fatalf("IPC = %v, want ~0.714", got)
	}
}

func TestStallScaling(t *testing.T) {
	inOrder := New(Simplified)
	ooo := New(Complex)
	inOrder.Stall(280)
	ooo.Stall(280)
	if inOrder.Cycles() != 280 {
		t.Errorf("in-order stall = %d cycles, want full 280", inOrder.Cycles())
	}
	if ooo.Cycles() >= inOrder.Cycles() {
		t.Errorf("OOO stall (%d) should be shorter than in-order (%d)", ooo.Cycles(), inOrder.Cycles())
	}
}

func TestExceptionCost(t *testing.T) {
	c := New(Complex)
	c.Exception()
	if got := c.Cycles(); got != c.Timing.ExceptionCycles {
		t.Fatalf("exception cost = %d cycles, want %d", got, c.Timing.ExceptionCycles)
	}
}

func TestMissOverlapDetection(t *testing.T) {
	c := New(Complex)
	c.Advance(100)
	if c.MissOverlapsPrevious() {
		t.Fatal("first miss can never overlap")
	}
	c.Advance(1) // within window (3)
	if !c.MissOverlapsPrevious() {
		t.Fatal("miss 1 instruction after previous should overlap")
	}
	c.Advance(100) // far outside window
	if c.MissOverlapsPrevious() {
		t.Fatal("miss 100 instructions later should not overlap")
	}

	s := New(Simplified)
	s.Advance(10)
	s.MissOverlapsPrevious()
	s.Advance(1)
	if s.MissOverlapsPrevious() {
		t.Fatal("simplified mode must never report overlap")
	}
}

func TestZeroCycleIPC(t *testing.T) {
	if New(Complex).IPC() != 0 {
		t.Fatal("IPC of fresh core should be 0, not NaN")
	}
}
