package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rapidmrc/internal/mem"
)

func TestNaiveStackBasics(t *testing.T) {
	s := NewNaiveStack(3)
	if d := s.Reference(10); d != Infinite {
		t.Fatalf("cold reference distance = %d", d)
	}
	if d := s.Reference(10); d != 1 {
		t.Fatalf("immediate re-reference distance = %d, want 1", d)
	}
	s.Reference(20)
	s.Reference(30)
	if !s.Full() {
		t.Fatal("stack not full after 3 distinct lines")
	}
	// 10 is now at the bottom: distance 3.
	if d := s.Reference(10); d != 3 {
		t.Fatalf("distance = %d, want 3", d)
	}
	// Overflow: 40 evicts the LRU (20).
	s.Reference(40)
	if d := s.Reference(20); d != Infinite {
		t.Fatalf("evicted line distance = %d, want Infinite", d)
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3", s.Len())
	}
}

func TestNaiveStackPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for capacity 0")
		}
	}()
	NewNaiveStack(0)
}

func TestRangeStackPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for capacity -1")
		}
	}()
	NewStack(-1, 4)
}

// TestRangeStackMatchesNaive is the central property test: on arbitrary
// traces, the production stack must return exactly the distances of the
// textbook stack.
func TestRangeStackMatchesNaive(t *testing.T) {
	f := func(seed int64, cap16 uint16, gs8 uint8, footprint16 uint16) bool {
		capacity := int(cap16%300) + 2
		groupSize := int(gs8%16) + 2
		footprint := int(footprint16%600) + 1
		r := rand.New(rand.NewSource(seed))
		naive := NewNaiveStack(capacity)
		rng := NewStack(capacity, groupSize)
		for i := 0; i < 3000; i++ {
			line := mem.Line(r.Intn(footprint))
			dn := naive.Reference(line)
			dr := rng.Reference(line)
			if dn != dr {
				t.Logf("seed=%d cap=%d gs=%d: ref %d line %d: naive %d range %d",
					seed, capacity, groupSize, i, line, dn, dr)
				return false
			}
			if naive.Len() != rng.Len() || naive.Full() != rng.Full() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRangeStackDefaultGroupSize(t *testing.T) {
	s := NewStack(100, 0)
	if s.walk.groupSize != DefaultGroupSize {
		t.Fatalf("groupSize = %d, want default %d", s.walk.groupSize, DefaultGroupSize)
	}
}

func TestStackWalksAccumulate(t *testing.T) {
	s := NewStack(100, 4)
	for i := 0; i < 200; i++ {
		s.Reference(mem.Line(i % 150))
	}
	if s.Walks() == 0 {
		t.Fatal("walks never accumulated")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{},
		{StackLines: -1, Points: 16, LinesPerPoint: 960},
		{StackLines: 15360, Points: 0, LinesPerPoint: 960},
		{StackLines: 15360, Points: 16, LinesPerPoint: 0},
		{StackLines: 100, Points: 16, LinesPerPoint: 960}, // points exceed stack
		{StackLines: 15360, Points: 16, LinesPerPoint: 960, StaticWarmupFrac: 1.0},
		{StackLines: 15360, Points: 16, LinesPerPoint: 960, StaticWarmupFrac: -0.1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestComputeEmptyTrace(t *testing.T) {
	if _, err := Compute(nil, 1000, DefaultConfig()); err == nil {
		t.Fatal("empty trace accepted")
	}
}

// cyclicTrace builds a trace cycling over n distinct lines (stack
// distance exactly n after the first pass).
func cyclicTrace(n, length int) []mem.Line {
	out := make([]mem.Line, length)
	for i := range out {
		out[i] = mem.Line(i % n)
	}
	return out
}

func TestComputeKneeAtWorkingSetSize(t *testing.T) {
	cfg := DefaultConfig()
	// 3000 distinct lines = 3.125 colors: the MRC must be ≈1000×refs/instr
	// below 4 colors and ≈0 at or above 4 colors.
	trace := cyclicTrace(3000, 160_000)
	instr := uint64(480_000) // 3 instructions per reference
	res, err := Compute(trace, instr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := res.MRC
	if len(m.MPKI) != 16 {
		t.Fatalf("%d points", len(m.MPKI))
	}
	if m.At(1) < 300 {
		t.Errorf("MPKI@1 = %v, want ≈333 (every ref missing)", m.At(1))
	}
	if m.At(4) > 5 {
		t.Errorf("MPKI@4 = %v, want ≈0 (3000 lines fit 3840)", m.At(4))
	}
	if m.At(16) > 5 {
		t.Errorf("MPKI@16 = %v, want ≈0", m.At(16))
	}
	// A 3000-line cycle can never fill the 15,360-line stack: the static
	// warmup fallback must engage.
	if res.AutoWarmup {
		t.Error("AutoWarmup true though the stack cannot fill")
	}
	if res.WarmupEntries != 80_000 {
		t.Errorf("static warmup = %d entries, want half the log", res.WarmupEntries)
	}
}

func TestComputeWarmupAutomatic(t *testing.T) {
	cfg := DefaultConfig()
	// A trace touching > StackLines distinct lines fills the stack:
	// automatic warmup must engage before the static half.
	trace := cyclicTrace(20_000, 160_000)
	res, err := Compute(trace, 160_000*3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AutoWarmup {
		t.Fatal("stack filled but AutoWarmup false")
	}
	if res.WarmupEntries >= 80_000 {
		t.Fatalf("auto warmup used %d entries, want < static half", res.WarmupEntries)
	}
	// A 20k cycle never hits a 15,360-line stack: hit rate 0.
	if res.StackHitRate != 0 {
		t.Errorf("stack hit rate = %v, want 0 for an over-capacity cycle", res.StackHitRate)
	}
	// All points miss: flat maximal MRC.
	if res.MRC.At(16) < res.MRC.At(1)*0.99 {
		t.Errorf("over-capacity cycle should be flat: %v vs %v", res.MRC.At(16), res.MRC.At(1))
	}
}

func TestComputeWarmupStaticFallback(t *testing.T) {
	cfg := DefaultConfig()
	trace := cyclicTrace(500, 10_000) // small working set: stack never fills
	res, err := Compute(trace, 30_000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AutoWarmup {
		t.Fatal("AutoWarmup true though stack cannot fill")
	}
	if res.WarmupEntries != 5_000 {
		t.Fatalf("static warmup = %d entries, want half the log", res.WarmupEntries)
	}
	if res.StackHitRate < 0.999 {
		t.Errorf("hit rate = %v, want 1.0 after warm cycle", res.StackHitRate)
	}
}

func TestComputeWarmupConsumesEverything(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StaticWarmupFrac = 0.999
	trace := cyclicTrace(5, 10)
	// 0.999 × 10 = 9.99 → warmup stops at entry 9, one recorded: fine.
	if _, err := Compute(trace, 100, cfg); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestMRCMonotoneNonIncreasing is the fundamental stack-algorithm
// property: for any trace, Miss(size) cannot increase with size.
func TestMRCMonotoneNonIncreasing(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		trace := make([]mem.Line, 30_000)
		for i := range trace {
			// Mixture of a chase, a hot set, and cold misses.
			switch r.Intn(3) {
			case 0:
				trace[i] = mem.Line(r.Intn(2000))
			case 1:
				trace[i] = mem.Line(5000 + r.Intn(8000))
			default:
				trace[i] = mem.Line(100_000 + i)
			}
		}
		res, err := Compute(trace, 90_000, DefaultConfig())
		if err != nil {
			return false
		}
		for i := 1; i < len(res.MRC.MPKI); i++ {
			if res.MRC.MPKI[i] > res.MRC.MPKI[i-1]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTransposePreservesShape(t *testing.T) {
	f := func(raw [16]uint8, refIdx8 uint8, target float64) bool {
		if math.IsNaN(target) || math.IsInf(target, 0) {
			return true
		}
		target = math.Mod(target, 1000)
		pts := make([]float64, 16)
		for i, v := range raw {
			pts[i] = float64(v)
		}
		m := NewMRC(pts)
		orig := m.Clone()
		ref := int(refIdx8) % 16
		shift := m.Transpose(ref, target)
		// The returned shift is the raw offset, unaffected by clamping.
		if math.Abs(shift-(target-orig.MPKI[ref])) > 1e-9 {
			return false
		}
		// Every point is the shifted original clamped at zero; where no
		// clamping occurs that preserves all pairwise differences.
		for i := range m.MPKI {
			want := math.Max(0, orig.MPKI[i]+shift)
			if math.Abs(m.MPKI[i]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTransposeClampsAtZero is the regression test for the negative-MPKI
// bug: a downward shift larger than a point's value used to produce
// non-physical negative points that then fed partition.ChoosePair.
func TestTransposeClampsAtZero(t *testing.T) {
	m := NewMRC([]float64{10, 4, 1, 0.5})
	shift := m.Transpose(0, 2) // shift = -8
	if shift != -8 {
		t.Fatalf("shift = %v, want -8", shift)
	}
	want := []float64{2, 0, 0, 0}
	for i, v := range want {
		if m.MPKI[i] != v {
			t.Fatalf("MPKI = %v, want %v", m.MPKI, want)
		}
	}
	// Upward shifts are untouched by the clamp.
	m2 := NewMRC([]float64{3, 2, 1, 0})
	if s := m2.Transpose(3, 5); s != 5 {
		t.Fatalf("upward shift = %v, want 5", s)
	}
	for i, v := range []float64{8, 7, 6, 5} {
		if m2.MPKI[i] != v {
			t.Fatalf("upward MPKI = %v", m2.MPKI)
		}
	}
}

// TestTransposeRejectsNonFinite is the regression test for the NaN
// poisoning bug: transposing to a NaN or infinite target used to smear
// the non-finite value across every point of the curve. The guard leaves
// the curve untouched and reports a zero shift.
func TestTransposeRejectsNonFinite(t *testing.T) {
	for _, target := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := NewMRC([]float64{10, 4, 1, 0.5})
		if s := m.Transpose(1, target); s != 0 {
			t.Errorf("Transpose(%v) shift = %v, want 0", target, s)
		}
		for i, v := range []float64{10, 4, 1, 0.5} {
			if m.MPKI[i] != v {
				t.Fatalf("Transpose(%v) mutated the curve: %v", target, m.MPKI)
			}
		}
	}
}

func TestDistanceMetric(t *testing.T) {
	a := NewMRC([]float64{1, 2, 3, 4})
	b := NewMRC([]float64{2, 2, 5, 4})
	if got := Distance(a, b); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("distance = %v, want 0.75", got)
	}
	if got := Distance(a, a.Clone()); got != 0 {
		t.Fatalf("self distance = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	Distance(a, NewMRC([]float64{1}))
}

func TestCorrectPrefetchRepetitions(t *testing.T) {
	trace := []mem.Line{5, 5, 5, 5, 9, 9, 7}
	n := CorrectPrefetchRepetitions(trace)
	want := []mem.Line{5, 6, 7, 8, 9, 10, 7}
	if n != 4 {
		t.Fatalf("converted %d entries, want 4", n)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	// No repetitions: untouched.
	clean := []mem.Line{1, 2, 3}
	if n := CorrectPrefetchRepetitions(clean); n != 0 {
		t.Fatalf("converted %d entries of a clean trace", n)
	}
	if n := CorrectPrefetchRepetitions(nil); n != 0 {
		t.Fatal("nil trace converted entries")
	}
}

// TestCorrectionYieldsAscendingRuns property-tests that after correction
// no two consecutive entries are equal.
func TestCorrectionYieldsAscendingRuns(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		trace := make([]mem.Line, 500)
		cur := mem.Line(r.Intn(100) * 1000)
		for i := range trace {
			if r.Intn(3) != 0 {
				cur = mem.Line(r.Intn(100) * 1000)
			}
			trace[i] = cur
		}
		CorrectPrefetchRepetitions(trace)
		for i := 1; i < len(trace); i++ {
			if trace[i] == trace[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDecimate(t *testing.T) {
	trace := []mem.Line{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	d4 := Decimate(trace, 4)
	want := []mem.Line{0, 4, 8}
	if len(d4) != len(want) {
		t.Fatalf("decimate(4) = %v", d4)
	}
	for i := range want {
		if d4[i] != want[i] {
			t.Fatalf("decimate(4) = %v, want %v", d4, want)
		}
	}
	d1 := Decimate(trace, 1)
	if len(d1) != len(trace) {
		t.Fatalf("decimate(1) length %d", len(d1))
	}
	d1[0] = 99
	if trace[0] == 99 {
		t.Fatal("decimate(1) did not copy")
	}
	if got := Decimate(nil, 3); len(got) != 0 {
		t.Fatal("decimate(nil) non-empty")
	}
}

func TestModelCyclesScaleWithDepth(t *testing.T) {
	cfg := DefaultConfig()
	shallow := cyclicTrace(500, 160_000)
	deep := cyclicTrace(14_000, 160_000)
	rs, err := Compute(shallow, 480_000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Compute(deep, 480_000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rd.ModelCycles <= rs.ModelCycles {
		t.Fatalf("deep-reuse calc (%d cycles) not costlier than shallow (%d)",
			rd.ModelCycles, rs.ModelCycles)
	}
	// Both should land in the paper's 40–450 M cycle range for a 160k log.
	for _, r := range []*Result{rs, rd} {
		if r.ModelCycles < 30e6 || r.ModelCycles > 500e6 {
			t.Errorf("model cycles %d outside plausible Table 2 range", r.ModelCycles)
		}
	}
}

// TestComputeWalkVsIndexedIdentical swaps the paper-era walking stack
// into Compute and checks the resulting curve is exactly the production
// (indexed) one — Distance exactly 0 — and that the modeled calculation
// cost is bit-identical, pinning the cost-model decoupling.
func TestComputeWalkVsIndexedIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	trace := make([]mem.Line, 120_000)
	for i := range trace {
		switch r.Intn(4) {
		case 0:
			trace[i] = mem.Line(r.Intn(1000))
		case 1, 2:
			trace[i] = mem.Line(2000 + r.Intn(12000))
		default:
			trace[i] = mem.Line(1_000_000 + i)
		}
	}
	cfg := DefaultConfig()
	indexed, err := Compute(trace, 360_000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func(orig func(Config) Stack) { newStack = orig }(newStack)
	newStack = func(cfg Config) Stack {
		return NewWalkRangeStack(cfg.StackLines, cfg.GroupSize)
	}
	walked, err := Compute(trace, 360_000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := Distance(indexed.MRC, walked.MRC); d != 0 {
		t.Fatalf("walk vs indexed MRC distance = %v, want exactly 0", d)
	}
	if indexed.ModelCycles != walked.ModelCycles {
		t.Fatalf("model cycles diverged: indexed %d walk %d",
			indexed.ModelCycles, walked.ModelCycles)
	}
	if indexed.InfMisses != walked.InfMisses || indexed.StackHitRate != walked.StackHitRate {
		t.Fatal("histogram bookkeeping diverged between stack implementations")
	}
}

// TestComputeUnpricedWalksIdentical pins that pricing walks changes
// nothing but ModelCycles: with CostPerWalk 0, Compute returns the same
// histogram, curve, warmup outcome, and stack hit rate as with walks
// priced, and ModelCycles is exactly entries×CostFixed. The cases cover
// automatic warmup, the static fallback, a fixed warmup, and a tiny
// stack with eviction churn.
func TestComputeUnpricedWalksIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	mixed := make([]mem.Line, 120_000)
	for i := range mixed {
		switch r.Intn(4) {
		case 0:
			mixed[i] = mem.Line(r.Intn(1000))
		case 1, 2:
			mixed[i] = mem.Line(2000 + r.Intn(12000))
		default:
			mixed[i] = mem.Line(1_000_000 + i)
		}
	}
	fixed := DefaultConfig()
	fixed.FixedWarmupEntries = 5000
	churn := DefaultConfig()
	churn.StackLines, churn.Points, churn.LinesPerPoint, churn.GroupSize = 64, 8, 8, 4
	cases := []struct {
		name  string
		trace []mem.Line
		cfg   Config
		auto  bool
	}{
		{"auto warmup", mixed, DefaultConfig(), true},
		{"static warmup", cyclicTrace(3000, 40_000), DefaultConfig(), false},
		{"fixed warmup", mixed, fixed, false},
		{"churn", mixed, churn, true},
	}
	for _, tc := range cases {
		priced, err := Compute(tc.trace, 360_000, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if priced.AutoWarmup != tc.auto {
			t.Fatalf("%s: AutoWarmup = %v, want %v", tc.name, priced.AutoWarmup, tc.auto)
		}
		cfg := tc.cfg
		cfg.CostPerWalk = 0
		unpriced, err := Compute(tc.trace, 360_000, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(len(tc.trace)) * cfg.CostFixed; unpriced.ModelCycles != want {
			t.Errorf("%s: unpriced ModelCycles = %d, want entries×CostFixed = %d", tc.name, unpriced.ModelCycles, want)
		}
		if priced.ModelCycles <= unpriced.ModelCycles {
			t.Errorf("%s: priced ModelCycles %d not above unpriced %d", tc.name, priced.ModelCycles, unpriced.ModelCycles)
		}
		same := *unpriced
		same.ModelCycles = priced.ModelCycles
		if !reflect.DeepEqual(priced, &same) {
			t.Errorf("%s: unpriced result diverges beyond ModelCycles:\npriced   %+v\nunpriced %+v", tc.name, priced, unpriced)
		}
	}
}

// TestComputeBandBoundaries pins the suffix-sum indexing of the MRC
// assembly: point p (0-based) must equal Miss(hi) with hi =
// (p+1)×LinesPerPoint, where Miss(s) counts recorded references with
// stack distance > s plus the infinite misses. The expected values are
// recomputed from the histogram by the direct definition.
func TestComputeBandBoundaries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FixedWarmupEntries = 0
	r := rand.New(rand.NewSource(9))
	trace := make([]mem.Line, 50_000)
	for i := range trace {
		// Spread distances across all bands, with some cold misses.
		if r.Intn(10) == 0 {
			trace[i] = mem.Line(500_000 + i)
		} else {
			trace[i] = mem.Line(r.Intn(16_000))
		}
	}
	instr := uint64(150_000)
	res, err := Compute(trace, instr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < cfg.Points; p++ {
		hi := (p + 1) * cfg.LinesPerPoint
		miss := res.InfMisses
		for d := hi + 1; d <= cfg.StackLines; d++ {
			miss += res.Hist[d]
		}
		want := 1000 * float64(miss) / float64(res.Instructions)
		if math.Abs(res.MRC.MPKI[p]-want) > 1e-9 {
			t.Fatalf("point %d (hi=%d): MPKI %v, want Miss(hi) %v",
				p, hi, res.MRC.MPKI[p], want)
		}
	}
	// Boundary sanity: a reference at distance exactly hi is a hit for
	// size hi, so it must not be in point p's miss count but must be in
	// point p-1's.
	if res.MRC.MPKI[0] < res.MRC.MPKI[1] {
		t.Fatal("band absorption went the wrong way")
	}
}

func TestMRCAtAccessor(t *testing.T) {
	m := NewMRC([]float64{10, 9, 8})
	if m.At(1) != 10 || m.At(3) != 8 {
		t.Fatal("At() misindexes")
	}
}
