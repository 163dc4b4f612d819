package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rapidmrc/internal/mem"
)

// The TestRangeStack* and TestIndexedStack* edge cases pin the production
// stack (NewStack) to range-list semantics: its distances, occupancy, and
// modeled walks must match the walking range list's.

func TestRangeStackCapacityOne(t *testing.T) {
	s := NewStack(1, 4)
	if d := s.Reference(10); d != Infinite {
		t.Fatalf("cold distance %d", d)
	}
	if d := s.Reference(10); d != 1 {
		t.Fatalf("re-reference distance %d", d)
	}
	s.Reference(20) // evicts 10
	if d := s.Reference(10); d != Infinite {
		t.Fatalf("evicted line distance %d", d)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestRangeStackGroupSplitAndMergePaths(t *testing.T) {
	// Tiny groups force frequent splits; alternating hits force merges.
	s := NewStack(64, 2)
	naive := NewNaiveStack(64)
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 10_000; i++ {
		l := mem.Line(r.Intn(100))
		if s.Reference(l) != naive.Reference(l) {
			t.Fatalf("divergence at op %d", i)
		}
	}
}

func TestRangeStackAllSameLine(t *testing.T) {
	s := NewStack(100, 8)
	s.Reference(5)
	for i := 0; i < 1000; i++ {
		if d := s.Reference(5); d != 1 {
			t.Fatalf("repeated line distance %d at op %d", d, i)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestRangeStackSequentialSweepNeverHits(t *testing.T) {
	s := NewStack(1000, 16)
	for i := 0; i < 50_000; i++ {
		if d := s.Reference(mem.Line(i)); d != Infinite {
			t.Fatalf("stream hit at %d: distance %d", i, d)
		}
	}
	if !s.Full() {
		t.Fatal("stack should be full after a long sweep")
	}
}

func TestRangeStackExactCapacityCycle(t *testing.T) {
	// A cycle exactly at capacity: every access after the first pass has
	// distance == capacity (the maximum hit distance).
	const capacity = 200
	s := NewStack(capacity, 8)
	for i := 0; i < capacity; i++ {
		s.Reference(mem.Line(i))
	}
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < capacity; i++ {
			if d := s.Reference(mem.Line(i)); d != capacity {
				t.Fatalf("pass %d line %d: distance %d, want %d", pass, i, d, capacity)
			}
		}
	}
	// One line beyond capacity turns the cycle into all-misses.
	s2 := NewStack(capacity, 8)
	for pass := 0; pass < 3; pass++ {
		for i := 0; i <= capacity; i++ {
			if d := s2.Reference(mem.Line(i)); pass > 0 && d != Infinite {
				t.Fatalf("over-capacity cycle hit: pass %d line %d dist %d", pass, i, d)
			}
		}
	}
}

// TestIndexedStackMatchesWalkStack property-tests the production
// marker stack against the paper-era walking range list: on
// random traces — including eviction churn at capacity and group
// split/merge boundaries — distances, occupancy, AND the modeled walk
// counts must be bit-identical, so the DESIGN.md §5 cost model stays
// calibrated.
func TestIndexedStackMatchesWalkStack(t *testing.T) {
	f := func(seed int64, cap16 uint16, gs8 uint8, footprint16 uint16) bool {
		capacity := int(cap16%300) + 2
		groupSize := int(gs8%16) + 2
		// Footprint up to 2× capacity: constant eviction churn.
		footprint := int(footprint16)%(2*capacity) + 1
		r := rand.New(rand.NewSource(seed))
		walk := NewWalkRangeStack(capacity, groupSize)
		idx := NewStack(capacity, groupSize)
		for i := 0; i < 4000; i++ {
			line := mem.Line(r.Intn(footprint))
			dw := walk.Reference(line)
			di := idx.Reference(line)
			if dw != di {
				t.Logf("seed=%d cap=%d gs=%d fp=%d: ref %d line %d: walk %d indexed %d",
					seed, capacity, groupSize, footprint, i, line, dw, di)
				return false
			}
			if walk.Len() != idx.Len() || walk.Full() != idx.Full() {
				return false
			}
			if walk.Walks() != idx.Walks() {
				t.Logf("seed=%d ref %d: walks diverged: walk %d indexed %d",
					seed, i, walk.Walks(), idx.Walks())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestIndexedStackEvictionChurn drives the production stack at exact
// capacity through a footprint slightly larger than capacity, the regime
// where every reference both hits the eviction path and perturbs group
// boundaries.
func TestIndexedStackEvictionChurn(t *testing.T) {
	const capacity = 128
	idx := NewStack(capacity, 4)
	naive := NewNaiveStack(capacity)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20_000; i++ {
		l := mem.Line(r.Intn(capacity + capacity/8))
		if di, dn := idx.Reference(l), naive.Reference(l); di != dn {
			t.Fatalf("divergence at op %d: indexed %d naive %d", i, di, dn)
		}
	}
	if idx.Len() != capacity || !idx.Full() {
		t.Fatalf("len = %d after churn", idx.Len())
	}
}

// TestComputeHistogramIntegral cross-checks the MRC integration: the sum
// of all histogram buckets plus infinite misses equals the recorded
// count, and Miss(0-th point) ≤ recorded.
func TestComputeHistogramIntegral(t *testing.T) {
	trace := cyclicTrace(5000, 60_000)
	res, err := Compute(trace, 180_000, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var hist uint64
	for _, h := range res.Hist {
		hist += h
	}
	if hist+res.InfMisses != uint64(res.Recorded) {
		t.Fatalf("histogram total %d + inf %d != recorded %d", hist, res.InfMisses, res.Recorded)
	}
	// MPKI at 1 color can never exceed all-recorded-references MPKI.
	maxMPKI := 1000 * float64(res.Recorded) / float64(res.Instructions)
	if res.MRC.At(1) > maxMPKI+1e-9 {
		t.Fatalf("MPKI@1 (%v) exceeds reference rate (%v)", res.MRC.At(1), maxMPKI)
	}
}

func TestComputeFixedWarmupBounds(t *testing.T) {
	trace := cyclicTrace(100, 1_000)
	cfg := DefaultConfig()
	cfg.FixedWarmupEntries = 5_000 // longer than the trace: clamped
	res, err := Compute(trace, 3_000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmupEntries != len(trace)-1 {
		t.Fatalf("warmup = %d, want clamped to %d", res.WarmupEntries, len(trace)-1)
	}
	if res.Recorded != 1 {
		t.Fatalf("recorded = %d", res.Recorded)
	}
	cfg.FixedWarmupEntries = 0
	res, err = Compute(trace, 3_000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmupEntries != 0 || res.Recorded != len(trace) {
		t.Fatalf("zero fixed warmup: warm=%d recorded=%d", res.WarmupEntries, res.Recorded)
	}
}

// TestDecimationMonotone property: decimating strictly reduces recorded
// misses at every size, never increases them.
func TestDecimationLowersCurve(t *testing.T) {
	trace := make([]mem.Line, 100_000)
	r := rand.New(rand.NewSource(3))
	for i := range trace {
		trace[i] = mem.Line(r.Intn(30_000))
	}
	cfg := DefaultConfig()
	full, err := Compute(trace, 300_000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Compute(Decimate(trace, 4), 300_000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.MRC.MPKI {
		if dec.MRC.MPKI[i] > full.MRC.MPKI[i]+1e-9 {
			t.Fatalf("decimated curve above full at %d: %v vs %v",
				i, dec.MRC.MPKI[i], full.MRC.MPKI[i])
		}
	}
}

// TestStackManySmallGroups drives the range list into many one- and
// two-line groups — a small hot set hit at shallow depths between cold
// misses, at a group size too small for any merge to fire — so the
// modeled group count nears capacity, far above capacity/groupSize. The
// production stack's walk model must keep up with the walking range list.
func TestStackManySmallGroups(t *testing.T) {
	const capacity, groupSize = 60, 3
	walk := NewWalkRangeStack(capacity, groupSize)
	s := NewStack(capacity, groupSize)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 20_000; i++ {
		l := mem.Line(r.Intn(10))
		if i%8 == 0 {
			l = mem.Line(1_000 + i) // cold
		}
		if dw, ds := walk.Reference(l), s.Reference(l); dw != ds || walk.Walks() != s.Walks() {
			t.Fatalf("ref %d: walk (%d, %d walks) marker (%d, %d walks)", i, dw, walk.Walks(), ds, s.Walks())
		}
	}
}
