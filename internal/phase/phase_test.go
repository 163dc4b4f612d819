package phase

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{},
		{Window: 0, ThresholdMPKI: 3, HysteresisFrac: 0.5},
		{Window: 3, ThresholdMPKI: 0, HysteresisFrac: 0.5},
		{Window: 3, ThresholdMPKI: 3, HysteresisFrac: 0},
		{Window: 3, ThresholdMPKI: 3, HysteresisFrac: 1.5},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(Config{}) did not panic")
		}
	}()
	New(Config{})
}

func TestStepChangeDetected(t *testing.T) {
	// 20 intervals at 10 MPKI, then 20 at 40: exactly one transition.
	var tl []float64
	for i := 0; i < 20; i++ {
		tl = append(tl, 10)
	}
	for i := 0; i < 20; i++ {
		tl = append(tl, 40)
	}
	b := Boundaries(tl, DefaultConfig())
	if len(b) != 1 {
		t.Fatalf("boundaries = %v, want exactly one", b)
	}
	if b[0] != 20 {
		t.Fatalf("boundary at %d, want 20", b[0])
	}
}

func TestAlternatingPhases(t *testing.T) {
	// mcf-like alternation: 10 intervals high, 10 low, repeated.
	var tl []float64
	for rep := 0; rep < 4; rep++ {
		for i := 0; i < 10; i++ {
			tl = append(tl, 60)
		}
		for i := 0; i < 10; i++ {
			tl = append(tl, 15)
		}
	}
	b := Boundaries(tl, DefaultConfig())
	// 7 internal phase changes (the first high phase has no leading
	// boundary).
	if len(b) != 7 {
		t.Fatalf("boundaries = %v, want 7", b)
	}
	for _, idx := range b {
		if idx%10 != 0 {
			t.Fatalf("boundary %d not at a phase edge", idx)
		}
	}
}

func TestStationaryNoiseBelowThresholdSilent(t *testing.T) {
	f := func(seed int64, base8 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		base := float64(base8)
		d := New(DefaultConfig())
		for i := 0; i < 500; i++ {
			// Noise amplitude ±1 MPKI, well under the 3 MPKI threshold.
			if d.Observe(base + 2*r.Float64() - 1) {
				return false
			}
		}
		return d.Transitions() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLengthyTransitionReportedOnce(t *testing.T) {
	// A slow ramp from 10 to 60 MPKI over many intervals: the detector
	// enters transition mode once and stays silent until it stabilizes.
	var tl []float64
	for i := 0; i < 10; i++ {
		tl = append(tl, 10)
	}
	for v := 10.0; v < 60; v += 2.5 {
		tl = append(tl, v)
	}
	for i := 0; i < 10; i++ {
		tl = append(tl, 60)
	}
	b := Boundaries(tl, DefaultConfig())
	if len(b) != 1 {
		t.Fatalf("lengthy transition produced %v boundaries, want 1", b)
	}
}

func TestDetectorRecoversAfterTransition(t *testing.T) {
	d := New(DefaultConfig())
	feed := func(v float64, n int) (fired int) {
		for i := 0; i < n; i++ {
			if d.Observe(v) {
				fired++
			}
		}
		return fired
	}
	if feed(10, 10) != 0 {
		t.Fatal("stable prefix fired")
	}
	if feed(50, 10) != 1 {
		t.Fatal("step did not fire exactly once")
	}
	if !((feed(10, 10)) == 1) {
		t.Fatal("return step did not fire exactly once")
	}
	if d.Transitions() != 2 {
		t.Fatalf("transitions = %d, want 2", d.Transitions())
	}
}

func TestInTransitionExposed(t *testing.T) {
	d := New(Config{Window: 2, ThresholdMPKI: 3, HysteresisFrac: 0.5})
	d.Observe(10)
	d.Observe(10)
	d.Observe(30) // fires, enters transition
	if !d.InTransition() {
		t.Fatal("InTransition false right after a step")
	}
	d.Observe(30) // stable again (delta 0 < 1.5)
	if d.InTransition() {
		t.Fatal("InTransition true after stabilizing")
	}
}

func TestColdStartOutlierSilent(t *testing.T) {
	// The first auto-epoch of a probing period reports an inflated miss
	// rate (cold stack, warmup effects). Regression: that outlier used
	// to enter the baseline window and make the first stable interval
	// read as a phase change — one needless escalation per tenant.
	d := New(DefaultConfig())
	if d.Observe(100) {
		t.Fatal("fired on the very first sample")
	}
	for i := 0; i < 20; i++ {
		if d.Observe(5) {
			t.Fatalf("cold-start outlier caused a spurious transition at interval %d", i)
		}
	}
	if d.Transitions() != 0 {
		t.Fatalf("transitions = %d, want 0", d.Transitions())
	}
	// The guard must not blunt real detection: a genuine step after the
	// stable prefix still fires exactly once.
	fired := 0
	for i := 0; i < 10; i++ {
		if d.Observe(40) {
			fired++
		}
	}
	if fired != 1 {
		t.Fatalf("genuine step fired %d times, want 1", fired)
	}
	// And the guard re-arms after Reset.
	d.Reset()
	if d.Observe(80) {
		t.Fatal("fired on the first sample after Reset")
	}
	for i := 0; i < 5; i++ {
		if d.Observe(12) {
			t.Fatal("post-Reset cold-start outlier caused a spurious transition")
		}
	}
}

func TestReset(t *testing.T) {
	d := New(DefaultConfig())
	for i := 0; i < 5; i++ {
		d.Observe(10)
	}
	d.Observe(100)
	if d.Transitions() != 1 {
		t.Fatal("setup failed")
	}
	d.Reset()
	if d.Transitions() != 0 || d.InTransition() {
		t.Fatal("reset incomplete")
	}
	// After reset the window must refill before anything can fire.
	if d.Observe(400) {
		t.Fatal("fired with an empty history")
	}
}
