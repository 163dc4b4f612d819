package approx

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"rapidmrc/internal/core"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/workload"
)

// testConfig is a small geometry so property tests can run hundreds of
// random traces quickly.
func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.StackLines = 64
	cfg.Points = 8
	cfg.LinesPerPoint = 8
	return cfg
}

// randomTrace draws a trace with a randomized access pattern: a working
// set of random size visited through a mix of looping, sequential, and
// uniform-random references, so the reuse-time distribution varies from
// spike-like to heavy-tailed across seeds.
func randomTrace(rng *rand.Rand, cfg core.Config) []mem.Line {
	ws := 4 + rng.Intn(4*cfg.StackLines)
	n := 500 + rng.Intn(4000)
	loopFrac := rng.Float64()
	trace := make([]mem.Line, n)
	pos := 0
	for i := range trace {
		if rng.Float64() < loopFrac {
			trace[i] = mem.Line(pos % ws)
			pos++
		} else {
			trace[i] = mem.Line(rng.Intn(ws))
		}
	}
	return trace
}

func estimators() []Estimator { return []Estimator{CheFagin{}, FullyAssociative{}} }

// TestEstimateProperties pins the estimator invariants over random
// traces: miss ratios in [0, 1] and non-increasing with size, MPKI
// non-negative and non-increasing, uncertainty in [0, 1], and the
// normalization fields populated.
func TestEstimateProperties(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		trace := randomTrace(rng, cfg)
		p, err := ProfileTrace(trace, cfg)
		if err != nil {
			t.Fatalf("trial %d: ProfileTrace: %v", trial, err)
		}
		for _, est := range estimators() {
			e, err := est.Estimate(p, uint64(4*len(trace)))
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, est.Name(), err)
			}
			if len(e.MissRatio) != cfg.Points || len(e.MRC.MPKI) != cfg.Points {
				t.Fatalf("trial %d: %s: %d ratio / %d mpki points, want %d",
					trial, est.Name(), len(e.MissRatio), len(e.MRC.MPKI), cfg.Points)
			}
			for i, r := range e.MissRatio {
				if r < 0 || r > 1 || math.IsNaN(r) {
					t.Fatalf("trial %d: %s: ratio[%d] = %v out of [0,1]", trial, est.Name(), i, r)
				}
				if i > 0 && r > e.MissRatio[i-1]+1e-12 {
					t.Fatalf("trial %d: %s: ratio not monotone at %d: %v > %v",
						trial, est.Name(), i, r, e.MissRatio[i-1])
				}
			}
			for i, v := range e.MRC.MPKI {
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("trial %d: %s: mpki[%d] = %v", trial, est.Name(), i, v)
				}
				if i > 0 && v > e.MRC.MPKI[i-1]+1e-9 {
					t.Fatalf("trial %d: %s: mpki not monotone at %d: %v > %v",
						trial, est.Name(), i, v, e.MRC.MPKI[i-1])
				}
			}
			if e.Uncertainty < 0 || e.Uncertainty > 1 || math.IsNaN(e.Uncertainty) {
				t.Fatalf("trial %d: %s: uncertainty %v out of [0,1]", trial, est.Name(), e.Uncertainty)
			}
			if e.Recorded != p.recorded || e.InstrEff == 0 {
				t.Fatalf("trial %d: %s: normalization basis recorded=%d instrEff=%d",
					trial, est.Name(), e.Recorded, e.InstrEff)
			}
		}
	}
}

// TestEstimateCyclicExact checks both models on the analytically solvable
// case: a cyclic loop over W lines under LRU misses everywhere below W
// and hits everywhere at or above W. Both estimators must reproduce the
// step exactly at the modeled point granularity.
func TestEstimateCyclicExact(t *testing.T) {
	cfg := testConfig()
	const ws = 32 // loop working set: 4 points below, 4 at/above
	trace := make([]mem.Line, 4000)
	for i := range trace {
		trace[i] = mem.Line(i % ws)
	}
	p, err := ProfileTrace(trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, est := range estimators() {
		e, err := est.Estimate(p, uint64(len(trace)))
		if err != nil {
			t.Fatalf("%s: %v", est.Name(), err)
		}
		for i, r := range e.MissRatio {
			size := (i + 1) * cfg.LinesPerPoint
			want := 0.0
			if size < ws {
				want = 1.0
			}
			if math.Abs(r-want) > 1e-9 {
				t.Errorf("%s: size %d: miss ratio %v, want %v", est.Name(), size, r, want)
			}
		}
	}
}

// TestEstimateAgainstSimulation cross-checks the analytical curves
// against the exact Mattson simulation on smooth random traces — the
// unit-level version of the ext-approx zoo cross-validation. The bound
// is loose; the zoo run pins tighter per-class error in EXPERIMENTS.md.
func TestEstimateAgainstSimulation(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		ws := 8 + rng.Intn(2*cfg.StackLines)
		trace := make([]mem.Line, 6000)
		for i := range trace {
			trace[i] = mem.Line(rng.Intn(ws))
		}
		instructions := uint64(4 * len(trace))
		res, err := core.Compute(trace, instructions, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ProfileTrace(trace, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Simulated miss-ratio curve for comparison in the same space.
		refsPerKI := 1000 * float64(res.Recorded) / float64(res.Instructions)
		for _, est := range estimators() {
			e, err := est.Estimate(p, instructions)
			if err != nil {
				t.Fatalf("%s: %v", est.Name(), err)
			}
			sum := 0.0
			for i, r := range e.MissRatio {
				sim := res.MRC.MPKI[i] / refsPerKI
				sum += math.Abs(r - sim)
			}
			if mean := sum / float64(cfg.Points); mean > 0.10 {
				t.Errorf("trial %d ws=%d: %s: mean abs miss-ratio error %.4f > 0.10",
					trial, ws, est.Name(), mean)
			}
		}
	}
}

// TestSamplerMatchesProfileTrace pins that incremental feeding (with an
// intermediate snapshot taken mid-stream) ends at the same profile as the
// batch helper.
func TestSamplerMatchesProfileTrace(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(3))
	trace := randomTrace(rng, cfg)

	want, err := ProfileTrace(trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(cfg, len(trace))
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range trace {
		s.Feed(l)
		if i == len(trace)/2 {
			_ = s.Profile() // snapshots must not perturb the stream
		}
	}
	got := s.Profile()
	// The batch helper's warmup outcome is its own sampler's: rebuild it
	// without the mid-stream snapshot.
	batch := fedSampler(t, trace, cfg)

	if got.recorded != want.recorded || got.consumed != want.consumed ||
		got.over != want.over || got.cold != want.cold ||
		s.WarmupEntries() != batch.WarmupEntries() || s.AutoWarmup() != batch.AutoWarmup() {
		t.Fatalf("profile mismatch: got %+v counters, want %+v",
			[]uint64{uint64(got.recorded), uint64(got.consumed), got.over, got.cold},
			[]uint64{uint64(want.recorded), uint64(want.consumed), want.over, want.cold})
	}
	for i := range want.fine {
		if got.fine[i] != want.fine[i] {
			t.Fatalf("fine[%d]: got %d want %d", i, got.fine[i], want.fine[i])
		}
	}
	for i := range want.coarse {
		if got.coarse[i] != want.coarse[i] {
			t.Fatalf("coarse[%d]: got %d want %d", i, got.coarse[i], want.coarse[i])
		}
	}
}

// TestSamplerReset pins that Reset reuses the sampler for a fresh period
// with no leakage from the previous one.
func TestSamplerReset(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(5))
	trace := randomTrace(rng, cfg)

	s, err := NewSampler(cfg, len(trace))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range trace {
		s.Feed(l)
	}
	if err := s.Reset(len(trace)); err != nil {
		t.Fatal(err)
	}
	for _, l := range trace {
		s.Feed(l)
	}
	want, err := ProfileTrace(trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Profile()
	if got.recorded != want.recorded || got.cold != want.cold || got.over != want.over {
		t.Fatalf("after Reset: recorded=%d cold=%d over=%d, want %d/%d/%d",
			got.recorded, got.cold, got.over, want.recorded, want.cold, want.over)
	}
	for i := range want.fine {
		if got.fine[i] != want.fine[i] {
			t.Fatalf("after Reset: fine[%d]: got %d want %d", i, got.fine[i], want.fine[i])
		}
	}

	if err := s.Reset(0); err == nil {
		t.Fatal("Reset(0): want error")
	}
}

// TestSamplerWarmupPolicy pins the two warmup endings: automatic when the
// distinct-line count fills the modeled stack, static fraction otherwise,
// and the fixed override.
func TestSamplerWarmupPolicy(t *testing.T) {
	cfg := testConfig()

	// Wide scan: distinct lines exceed StackLines, so warmup ends
	// automatically after exactly StackLines distinct references.
	wide := make([]mem.Line, 1000)
	for i := range wide {
		wide[i] = mem.Line(i)
	}
	s := fedSampler(t, wide, cfg)
	if !s.AutoWarmup() || s.WarmupEntries() != cfg.StackLines {
		t.Fatalf("wide scan: auto=%v warmup=%d, want auto after %d",
			s.AutoWarmup(), s.WarmupEntries(), cfg.StackLines)
	}

	// Narrow loop: stack never fills, static fraction applies.
	narrow := make([]mem.Line, 1000)
	for i := range narrow {
		narrow[i] = mem.Line(i % 8)
	}
	s = fedSampler(t, narrow, cfg)
	wantStatic := int(float64(len(narrow)) * cfg.StaticWarmupFrac)
	if s.AutoWarmup() || s.WarmupEntries() != wantStatic {
		t.Fatalf("narrow loop: auto=%v warmup=%d, want static %d",
			s.AutoWarmup(), s.WarmupEntries(), wantStatic)
	}

	// Fixed override bypasses both.
	fixed := cfg
	fixed.FixedWarmupEntries = 17
	s = fedSampler(t, narrow, fixed)
	if s.AutoWarmup() || s.WarmupEntries() != 17 {
		t.Fatalf("fixed warmup: auto=%v warmup=%d, want 17", s.AutoWarmup(), s.WarmupEntries())
	}
}

// fedSampler returns a sampler that has consumed the whole trace as its
// probing period, as ProfileTrace feeds one.
func fedSampler(t *testing.T, trace []mem.Line, cfg core.Config) *Sampler {
	t.Helper()
	s, err := NewSampler(cfg, len(trace))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range trace {
		s.Feed(l)
	}
	return s
}

// TestEstimateWhileWarming pins ErrNoSamples from a profile whose warmup
// consumed everything fed so far.
func TestEstimateWhileWarming(t *testing.T) {
	cfg := testConfig()
	s, err := NewSampler(cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Feed(mem.Line(i))
	}
	if !s.Warming() {
		t.Fatal("sampler should still be warming")
	}
	for _, est := range estimators() {
		if _, err := est.Estimate(s.Profile(), 1000); err != ErrNoSamples {
			t.Fatalf("%s: err = %v, want ErrNoSamples", est.Name(), err)
		}
	}
}

// TestUncertaintySignals pins that the score responds to its inputs:
// near zero on a smooth fully-resolved curve, high when a cliff
// dominates, high when reuse mass overflows the histogram domain.
func TestUncertaintySignals(t *testing.T) {
	cfg := testConfig()

	// Smooth: uniform random over a working set well inside the stack.
	rng := rand.New(rand.NewSource(11))
	smooth := make([]mem.Line, 6000)
	for i := range smooth {
		smooth[i] = mem.Line(rng.Intn(40))
	}
	p, err := ProfileTrace(smooth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eSmooth, err := CheFagin{}.Estimate(p, uint64(len(smooth)))
	if err != nil {
		t.Fatal(err)
	}

	// Cliff: the cyclic loop from TestEstimateCyclicExact.
	cyc := make([]mem.Line, 4000)
	for i := range cyc {
		cyc[i] = mem.Line(i % 32)
	}
	p, err = ProfileTrace(cyc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eCliff, err := CheFagin{}.Estimate(p, uint64(len(cyc)))
	if err != nil {
		t.Fatal(err)
	}
	if eCliff.Uncertainty <= eSmooth.Uncertainty {
		t.Fatalf("cliff uncertainty %v should exceed smooth %v",
			eCliff.Uncertainty, eSmooth.Uncertainty)
	}

	// Saturated: a working set smaller than the first modeled size. The
	// curve is exactly flat zero — the working-set integral saturating
	// below every point is a statement, not an extrapolation — so the
	// score must stay near zero (an early version penalized this, which
	// would have escalated the easiest workloads at any sane threshold).
	tiny := make([]mem.Line, 4000)
	rng2 := rand.New(rand.NewSource(13))
	for i := range tiny {
		tiny[i] = mem.Line(rng2.Intn(6))
	}
	p, err = ProfileTrace(tiny, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eTiny, err := CheFagin{}.Estimate(p, uint64(len(tiny)))
	if err != nil {
		t.Fatal(err)
	}
	if eTiny.Uncertainty > 0.05 {
		t.Fatalf("saturated flat curve scored %v, want near zero", eTiny.Uncertainty)
	}

	// Overflow: the coarse domain spans ~2M references, too wide to cross
	// with a unit-test trace, so build the profile directly — half the
	// recorded mass resolved at a short reuse time, half beyond the domain.
	over := &Profile{
		cfg:      cfg,
		fine:     make([]uint64, fineSpan*cfg.StackLines),
		coarse:   make([]uint64, coarseBuckets),
		over:     500,
		recorded: 1000,
		consumed: 1500,
	}
	over.fine[9] = 500
	eOver, err := CheFagin{}.Estimate(over, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if eOver.Uncertainty <= eSmooth.Uncertainty {
		t.Fatalf("overflow uncertainty %v should exceed smooth %v",
			eOver.Uncertainty, eSmooth.Uncertainty)
	}
}

// TestClassifyShape pins the flat/knee/steep boundaries.
func TestClassifyShape(t *testing.T) {
	cases := []struct {
		name  string
		curve []float64
		want  Shape
	}{
		{"empty", nil, ShapeFlat},
		{"single", []float64{3}, ShapeFlat},
		{"zero height", []float64{0, 0, 0}, ShapeFlat},
		{"constant", []float64{5, 5, 5, 5}, ShapeFlat},
		{"shallow", []float64{10, 9.8, 9.5, 9.2}, ShapeFlat},
		{"cliff", []float64{10, 10, 1, 1}, ShapeKnee},
		{"step to zero", []float64{1, 1, 1, 0}, ShapeKnee},
		{"gradual", []float64{10, 8, 6, 4, 2, 1}, ShapeSteep},
		{"rising", []float64{1, 2, 3}, ShapeFlat},
	}
	for _, tc := range cases {
		if got := ClassifyShape(tc.curve); got != tc.want {
			t.Errorf("%s: ClassifyShape = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestShapeStrings pins the labels used in reports and metrics.
func TestShapeStrings(t *testing.T) {
	want := map[Shape]string{ShapeFlat: "flat", ShapeKnee: "knee", ShapeSteep: "steep"}
	for _, s := range Shapes() {
		if s.String() != want[s] {
			t.Errorf("Shape(%d).String() = %q, want %q", s, s.String(), want[s])
		}
	}
	if got := Shape(99).String(); got != "shape(99)" {
		t.Errorf("unknown shape: %q", got)
	}
}

// TestProfileTraceEmpty pins the empty-trace error.
func TestProfileTraceEmpty(t *testing.T) {
	if _, err := ProfileTrace(nil, testConfig()); err == nil {
		t.Fatal("want error for empty trace")
	}
}

// TestNewSamplerValidates pins config validation at construction.
func TestNewSamplerValidates(t *testing.T) {
	bad := testConfig()
	bad.StackLines = 0
	if _, err := NewSampler(bad, 100); err == nil {
		t.Fatal("want error for invalid config")
	}
}

// walkCheFagin and walkFullyAssociative are the estimators as they were
// written over a per-bucket callback walk, with each bucket's tail
// probabilities divided afresh. They are the oracles the direct-loop
// estimators must match bit for bit.
type (
	walkCheFagin         struct{}
	walkFullyAssociative struct{}
)

func (walkCheFagin) Name() string         { return "che" }
func (walkFullyAssociative) Name() string { return "fullassoc" }

// walkBuckets iterates the histogram's buckets in reuse-time order,
// handing fn each bucket's width, count, and the tail count before and
// after absorbing it; fn returning false stops the walk.
func walkBuckets(p *Profile, fn func(width int, count, tailBefore, tailAfter uint64) bool) {
	tail := uint64(p.recorded)
	for _, cnt := range p.fine {
		after := tail - cnt
		if !fn(1, cnt, tail, after) {
			return
		}
		tail = after
	}
	for _, cnt := range p.coarse {
		after := tail - cnt
		if !fn(coarseWidth, cnt, tail, after) {
			return
		}
		tail = after
	}
}

func (walkCheFagin) Estimate(p *Profile, instructions uint64) (*Estimate, error) {
	if p.recorded == 0 {
		return nil, ErrNoSamples
	}
	n := float64(p.recorded)
	points := p.cfg.Points
	ratio := make([]float64, points)
	crossDrop := make([]float64, points)
	c := 0.0
	next := 0
	walkBuckets(p, func(width int, count, tailBefore, tailAfter uint64) bool {
		pStart := float64(tailBefore) / n
		pEnd := float64(tailAfter) / n
		cNext := c + float64(width)*(pStart+pEnd)/2
		for next < points {
			target := float64((next + 1) * p.cfg.LinesPerPoint)
			if target > cNext {
				break
			}
			f := 1.0
			if cNext > c {
				f = (target - c) / (cNext - c)
			}
			ratio[next] = pStart + f*(pEnd-pStart)
			crossDrop[next] = pStart - pEnd
			next++
		}
		c = cNext
		return next < points
	})
	floor := float64(p.over+p.cold) / n
	for ; next < points; next++ {
		ratio[next] = floor
	}
	clampMonotone(ratio)
	instrEff := core.EffectiveInstructions(instructions, p.recorded, p.consumed)
	mpki := make([]float64, points)
	for i, r := range ratio {
		mpki[i] = 1000 * r * n / float64(instrEff)
	}
	return &Estimate{
		Estimator:   "che",
		MRC:         core.NewMRC(mpki),
		MissRatio:   ratio,
		Uncertainty: uncertainty(p, ratio, crossDrop),
		Recorded:    p.recorded,
		InstrEff:    instrEff,
	}, nil
}

func (walkFullyAssociative) Estimate(p *Profile, instructions uint64) (*Estimate, error) {
	if p.recorded == 0 {
		return nil, ErrNoSamples
	}
	n := float64(p.recorded)
	cfg := p.cfg
	hist := make([]uint64, cfg.StackLines+1)
	inf := p.over + p.cold
	c := 0.0
	walkBuckets(p, func(width int, count, tailBefore, tailAfter uint64) bool {
		pStart := float64(tailBefore) / n
		pEnd := float64(tailAfter) / n
		cNext := c + float64(width)*(pStart+pEnd)/2
		if count > 0 {
			d := int((c + cNext) / 2)
			if d < 1 {
				d = 1
			}
			if d > cfg.StackLines {
				inf += count
			} else {
				hist[d] += count
			}
		}
		c = cNext
		return true
	})
	instrEff := core.EffectiveInstructions(instructions, p.recorded, p.consumed)
	mpki := core.CurveFromHist(hist, inf, instrEff, cfg)
	ratio := make([]float64, len(mpki))
	for i, v := range mpki {
		ratio[i] = v * float64(instrEff) / (1000 * n)
	}
	clampMonotone(ratio)
	return &Estimate{
		Estimator:   "fullassoc",
		MRC:         core.NewMRC(mpki),
		MissRatio:   ratio,
		Uncertainty: uncertainty(p, ratio, nil),
		Recorded:    p.recorded,
		InstrEff:    instrEff,
	}, nil
}

// sameBits reports whether two float slices are identical bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkAgainstWalkOracles estimates p with both estimators and both
// oracles and fails unless every output matches bit for bit.
func checkAgainstWalkOracles(t *testing.T, name string, p *Profile, instructions uint64) {
	t.Helper()
	for _, pair := range [][2]Estimator{{CheFagin{}, walkCheFagin{}}, {FullyAssociative{}, walkFullyAssociative{}}} {
		got, gerr := pair[0].Estimate(p, instructions)
		want, werr := pair[1].Estimate(p, instructions)
		if gerr != werr {
			t.Fatalf("%s: %s: error %v, oracle %v", name, pair[0].Name(), gerr, werr)
		}
		if gerr != nil {
			continue
		}
		if got.Estimator != want.Estimator ||
			!sameBits(got.MissRatio, want.MissRatio) || !sameBits(got.MRC.MPKI, want.MRC.MPKI) ||
			math.Float64bits(got.Uncertainty) != math.Float64bits(want.Uncertainty) ||
			got.Recorded != want.Recorded || got.InstrEff != want.InstrEff {
			t.Fatalf("%s: %s diverges from its walk oracle:\ngot  %+v %v\nwant %+v %v",
				name, pair[0].Name(), got, got.MRC.MPKI, want, want.MRC.MPKI)
		}
	}
}

// edgeProfile builds a profile directly: fill sets counts and consumed to
// the warmup references, recorded is the counts' total and is added to
// consumed, so the profile is one a sampler could have produced.
func edgeProfile(cfg core.Config, fill func(p *Profile)) *Profile {
	p := &Profile{
		cfg:    cfg,
		fine:   make([]uint64, fineSpan*cfg.StackLines),
		coarse: make([]uint64, coarseBuckets),
	}
	fill(p)
	total := p.over + p.cold
	for _, c := range p.fine {
		total += c
	}
	for _, c := range p.coarse {
		total += c
	}
	p.recorded = int(total)
	p.consumed += p.recorded
	return p
}

// TestEstimatorsMatchWalkOracles pins the direct-loop estimators to the
// callback-walk oracles bit for bit — miss ratios, MPKI, uncertainty,
// recorded and effective instructions — over the zoo, the daemon's
// traces, and edge profiles: no samples, all cold, overflow-heavy, Che
// resolving every point early, the d < 1 clamp, and distances past the
// stack.
func TestEstimatorsMatchWalkOracles(t *testing.T) {
	small := testConfig()
	edges := map[string]*Profile{
		"no samples": edgeProfile(small, func(p *Profile) { p.consumed = 40 }),
		"all cold":   edgeProfile(small, func(p *Profile) { p.cold = 1000 }),
		"overflow-heavy": edgeProfile(small, func(p *Profile) {
			p.over, p.fine[3], p.coarse[7] = 900, 60, 40
		}),
		// All mass at reuse time 100: c grows one line per bucket and
		// resolves every point by bucket 64, before the fine region ends.
		"che stops early": edgeProfile(small, func(p *Profile) { p.fine[99] = 5000 }),
		// Reuse time 1 everywhere: the bucket midpoint distance is 0.25.
		"d below 1": edgeProfile(small, func(p *Profile) { p.fine[0], p.fine[1] = 3000, 10 }),
		// Mass in the coarse region only, past the 64-line stack.
		"d past stack": edgeProfile(small, func(p *Profile) {
			p.fine[4], p.coarse[5], p.coarse[4000], p.cold = 10, 700, 20, 5
		}),
	}
	for name, p := range edges {
		checkAgainstWalkOracles(t, name, p, 12_345)
	}
	if _, err := (CheFagin{}).Estimate(edges["no samples"], 1); err != ErrNoSamples {
		t.Fatalf("no samples: err = %v, want ErrNoSamples", err)
	}

	cfg := core.DefaultConfig()
	for _, name := range workload.Names() {
		g := workload.New(workload.MustByName(name), 42)
		trace := make([]mem.Line, 60_000)
		for i := range trace {
			trace[i] = mem.LineOf(g.Next().Addr)
		}
		p, err := ProfileTrace(trace, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstWalkOracles(t, name, p, 240_000)
	}
	traces, err := mrcdTraces()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range mrcdApps {
		p, err := ProfileTrace(traces[app], cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstWalkOracles(t, "mrcd "+app, p, 27*uint64(len(traces[app])))
	}
}

// TestEstimatorsMatchWalkOraclesRandomHistograms extends the bit
// identity to arbitrary sparse histograms, heavy coarse and overflow
// mass included.
func TestEstimatorsMatchWalkOraclesRandomHistograms(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		cfg := testConfig()
		if trial%3 == 0 {
			cfg = core.DefaultConfig()
		}
		p := edgeProfile(cfg, func(p *Profile) {
			for k := rng.Intn(40); k > 0; k-- {
				p.fine[rng.Intn(len(p.fine))] += uint64(rng.Intn(5000))
			}
			for k := rng.Intn(20); k > 0; k-- {
				p.coarse[rng.Intn(len(p.coarse))] += uint64(rng.Intn(5000))
			}
			p.over = uint64(rng.Intn(3)) * uint64(rng.Intn(2000))
			p.cold = uint64(rng.Intn(3)) * uint64(rng.Intn(2000))
			p.consumed = rng.Intn(5000) // warmup
		})
		checkAgainstWalkOracles(t, "random "+strconv.Itoa(trial), p, uint64(1+rng.Intn(1<<30)))
	}
}
