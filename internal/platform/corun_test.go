package platform

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"rapidmrc/internal/color"
	"rapidmrc/internal/cpu"
	"rapidmrc/internal/workload"
)

// gangOracle is the stepping loop CoRun's warmup, the dynamic
// controller's monitoring interval and ext-dynamic's static reference
// each carried inline before RunGang. Only its starting count is
// generalized: CoRun's loop started with none remaining when its target
// was 0, and here any machine already at its target starts done, so the
// oracle terminates on every input the property draws.
func gangOracle(machines []*Machine, targets []uint64) {
	remaining := 0
	for i, m := range machines {
		if m.Core().Instructions() < targets[i] {
			remaining++
		}
	}
	for remaining > 0 {
		m := NextByCycles(machines)
		before := m.Core().Instructions()
		m.Step()
		for i, mm := range machines {
			if mm == m && before < targets[i] && m.Core().Instructions() >= targets[i] {
				remaining--
			}
		}
	}
}

// gangCase is one RunGang input: 2–3 co-scheduled machines, each first
// run alone for Pre instructions, then given a target relative to where
// it stands. A non-positive Delta is a target already met.
type gangCase struct {
	Pre   []uint64
	Delta []int64
}

// Generate implements quick.Generator. About a quarter of the targets
// are already met when RunGang starts.
func (gangCase) Generate(r *rand.Rand, _ int) reflect.Value {
	n := 2 + r.Intn(2)
	c := gangCase{Pre: make([]uint64, n), Delta: make([]int64, n)}
	for i := range c.Pre {
		c.Pre[i] = uint64(r.Intn(3)) * uint64(r.Intn(4_000))
		if r.Intn(4) == 0 {
			c.Delta[i] = -int64(r.Intn(2_000))
		} else {
			c.Delta[i] = 1 + int64(r.Intn(20_000))
		}
	}
	return reflect.ValueOf(c)
}

// gang builds c's machines and targets: a loop, a pointer chase and a
// scan sharing one L2, so the interleaving shows in every machine's
// misses.
func (c gangCase) gang() ([]*Machine, []uint64) {
	apps := []workload.Config{
		loopApp("loop", workload.Loop, 3_000),
		loopApp("chase", workload.Chase, 12_000),
		loopApp("scan", workload.Loop, 40_000),
	}[:len(c.Pre)]
	parts := make([]color.Set, len(apps))
	for i := range parts {
		parts[i] = color.All
	}
	ms := NewCoScheduled(apps, parts, CoRunOptions{Mode: cpu.Complex, Seed: 3})
	targets := make([]uint64, len(ms))
	for i, m := range ms {
		for m.Core().Instructions() < c.Pre[i] {
			m.Step()
		}
		t := int64(m.Core().Instructions()) + c.Delta[i]
		if t > 0 {
			targets[i] = uint64(t)
		}
	}
	return ms, targets
}

// gangState is what RunGang leaves behind: each machine's counters
// since boot.
func gangState(ms []*Machine) []Metrics {
	out := make([]Metrics, len(ms))
	for i, m := range ms {
		out[i] = m.Metrics()
	}
	return out
}

// TestRunGangMatchesOracle checks RunGang against the inline loop it
// replaced: the same step order leaves every machine with the same
// counters, every machine ends at or past its target, and a target that
// is already met neither hangs the gang nor stops that machine stepping
// while the others catch up.
func TestRunGangMatchesOracle(t *testing.T) {
	check := func(c gangCase) bool {
		ms, targets := c.gang()
		done := make(chan struct{})
		go func() {
			RunGang(ms, targets)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatalf("%+v: RunGang did not return", c)
		}
		want, wantTargets := c.gang()
		if !reflect.DeepEqual(targets, wantTargets) {
			t.Fatalf("%+v: targets %v vs %v from identical gangs", c, targets, wantTargets)
		}
		gangOracle(want, wantTargets)
		for i, m := range ms {
			if m.Core().Instructions() < targets[i] {
				t.Errorf("%+v: machine %d stopped at %d instructions, target %d",
					c, i, m.Core().Instructions(), targets[i])
				return false
			}
		}
		if got, exp := gangState(ms), gangState(want); !reflect.DeepEqual(got, exp) {
			t.Errorf("%+v: RunGang left\n%+v\noracle left\n%+v", c, got, exp)
			return false
		}
		return true
	}
	met := gangCase{Pre: []uint64{5_000, 0, 0}, Delta: []int64{0, 15_000, 8_000}}
	if !check(met) {
		t.Fatal("fixed case with an already-met target failed")
	}
	allMet := gangCase{Pre: []uint64{0, 2_000}, Delta: []int64{0, -500}}
	if !check(allMet) {
		t.Fatal("fixed case with every target met failed")
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}
