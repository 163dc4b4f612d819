package phase

import (
	"testing"

	"rapidmrc/internal/core"
)

func curveAt(level float64) *core.MRC {
	m := &core.MRC{MPKI: make([]float64, 16)}
	for i := range m.MPKI {
		m.MPKI[i] = level / float64(i+1)
	}
	return m
}

func TestConvergencePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewConvergence(0, 0) did not panic")
		}
	}()
	NewConvergence(0, 0)
}

func TestConvergenceDeclaredAfterStreak(t *testing.T) {
	c := NewConvergence(0.5, 2)
	// First observation has no predecessor: no streak yet.
	if c.Observe(curveAt(40)) {
		t.Fatal("converged on first snapshot")
	}
	// Identical curve twice: streak 1, then 2 → converged.
	if c.Observe(curveAt(40)) {
		t.Fatal("converged after one stable epoch, need two")
	}
	if !c.Observe(curveAt(40)) {
		t.Fatal("not converged after two stable epochs")
	}
}

func TestConvergenceMovingCurveResetsStreak(t *testing.T) {
	c := NewConvergence(0.5, 2)
	c.Observe(curveAt(40))
	c.Observe(curveAt(40)) // streak 1
	if c.Observe(curveAt(80)) {
		t.Fatal("converged across a large jump")
	}
	// The jump reset the streak: two more stable epochs are needed.
	if c.Observe(curveAt(80)) {
		t.Fatal("converged one epoch after a jump")
	}
	if !c.Observe(curveAt(80)) {
		t.Fatal("not converged after the curve re-stabilized")
	}
}

func TestConvergenceCloneInsulatesCaller(t *testing.T) {
	c := NewConvergence(0.5, 1)
	m := curveAt(40)
	c.Observe(m)
	// Mutating the caller's curve must not corrupt the stored predecessor.
	for i := range m.MPKI {
		m.MPKI[i] = 1e9
	}
	if !c.Observe(curveAt(40)) {
		t.Fatal("stored snapshot was aliased to the caller's curve")
	}
}
