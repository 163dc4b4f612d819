package sample_test

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rapidmrc/internal/core"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/sample"
	"rapidmrc/internal/workload"
)

// fuzzTrace builds a random trace with repetition runs and mixed
// locality, the input space the stream≡batch properties stress.
func fuzzTrace(r *rand.Rand, n int) []mem.Line {
	trace := make([]mem.Line, 0, n)
	for len(trace) < n {
		switch r.Intn(5) {
		case 0: // repetition run, 2..6 copies
			l := mem.Line(r.Intn(2000))
			k := 2 + r.Intn(5)
			for j := 0; j < k && len(trace) < n; j++ {
				trace = append(trace, l)
			}
		case 1: // near-miss of the previous line
			if len(trace) > 0 {
				trace = append(trace, trace[len(trace)-1]+1)
			} else {
				trace = append(trace, mem.Line(r.Intn(2000)))
			}
		case 2: // hot set
			trace = append(trace, mem.Line(r.Intn(100)))
		case 3: // warm set
			trace = append(trace, mem.Line(500+r.Intn(5000)))
		default: // cold stream
			trace = append(trace, mem.Line(1_000_000+len(trace)))
		}
	}
	return trace
}

// testConfigs mirrors the geometries of the other equivalence suites:
// the paper default, a tiny stack with eviction churn, a fixed-warmup
// override, and the paper default with unpriced walks (the stack skips
// the walk model; mrcd tenants' default).
func testConfigs() []core.Config {
	def := core.DefaultConfig()

	unpriced := core.DefaultConfig()
	unpriced.CostPerWalk = 0

	churn := core.DefaultConfig()
	churn.StackLines = 64
	churn.Points = 8
	churn.LinesPerPoint = 8
	churn.GroupSize = 4

	fixed := core.DefaultConfig()
	fixed.StackLines = 256
	fixed.Points = 4
	fixed.LinesPerPoint = 64
	fixed.GroupSize = 8
	fixed.FixedWarmupEntries = 100

	return []core.Config{def, churn, fixed, unpriced}
}

// TestRateOneBitIdentical is the satellite property: at rate 1.0 the
// sampled engine is the serial oracle core.Compute — histogram, curve,
// warmup outcome, stack hit rate, and ModelCycles all bit-identical —
// across fuzzed traces and all four configs.
func TestRateOneBitIdentical(t *testing.T) {
	for ci, cfg := range testConfigs() {
		cfg := cfg
		serial := func(seed int64, size uint16) *core.Result {
			r := rand.New(rand.NewSource(seed))
			trace := fuzzTrace(r, int(size%4000)+1)
			res, err := core.Compute(trace, 10_000_000, cfg)
			if err != nil {
				return nil
			}
			return res
		}
		sampled := func(seed int64, size uint16) *core.Result {
			r := rand.New(rand.NewSource(seed))
			trace := fuzzTrace(r, int(size%4000)+1)
			e, err := sample.NewEngine(cfg, sample.Config{Rate: 1.0}, len(trace))
			if err != nil {
				return nil
			}
			for _, l := range trace {
				e.Feed(l)
			}
			res, err := e.Snapshot(10_000_000)
			if err != nil {
				return nil
			}
			return res
		}
		if err := quick.CheckEqual(serial, sampled, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("config %d: %v", ci, err)
		}
	}
}

// TestRateOneWorkloadZoo pins the identity on every synthetic
// application, and additionally that the rate-1.0 bands collapse onto
// the curve (an exhaustive trace has no sampling error to bound).
func TestRateOneWorkloadZoo(t *testing.T) {
	const refs = 30_000
	for _, name := range workload.Names() {
		g := workload.New(workload.MustByName(name), 42)
		trace := make([]mem.Line, refs)
		for i := range trace {
			trace[i] = mem.LineOf(g.Next().Addr)
		}
		for ci, cfg := range testConfigs() {
			e, err := sample.NewEngine(cfg, sample.Config{Rate: 1.0}, refs)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range trace {
				e.Feed(l)
			}
			want, err := core.Compute(trace, 3_000_000, cfg)
			if err != nil {
				t.Fatalf("%s cfg %d: Compute: %v", name, ci, err)
			}
			got, err := e.Snapshot(3_000_000)
			if err != nil {
				t.Fatalf("%s cfg %d: sampled: %v", name, ci, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s cfg %d: rate-1.0 result diverges from core.Compute", name, ci)
			}
			b := e.Bands()
			if b.Width() != 0 {
				t.Errorf("%s cfg %d: rate-1.0 band width %v, want 0", name, ci, b.Width())
			}
			if b.Rate != 1.0 || b.EffSamples != float64(got.Recorded) {
				t.Errorf("%s cfg %d: rate-1.0 band rate %v eff %v", name, ci, b.Rate, b.EffSamples)
			}
		}
	}
}

// relErr is the mean relative MPKI error between two curves, each point
// normalized by the true curve's mean level.
func relErr(got, want []float64) float64 {
	mean := 0.0
	for _, v := range want {
		mean += v
	}
	mean /= float64(len(want))
	if mean == 0 {
		return 0
	}
	sum := 0.0
	for i := range want {
		sum += math.Abs(got[i]-want[i]) / mean
	}
	return sum / float64(len(want))
}

// TestSampledCurveTracksFull checks the statistical contract at a real
// down-sampling rate: a rate-0.1 curve over a sizeable trace stays close
// to the full curve, and the band is non-degenerate and ordered.
func TestSampledCurveTracksFull(t *testing.T) {
	cfg := core.DefaultConfig()
	const n = 120_000
	r := rand.New(rand.NewSource(3))
	trace := fuzzTrace(r, n)
	e, err := sample.NewEngine(cfg, sample.Config{Rate: 0.1}, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range trace {
		e.Feed(l)
	}
	want, err := core.Compute(trace, 30_000_000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Snapshot(30_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if e.Sampled() > n/5 {
		t.Errorf("rate 0.1 kept %d of %d refs", e.Sampled(), n)
	}
	if err := relErr(got.MRC.MPKI, want.MRC.MPKI); err > 0.10 {
		t.Errorf("rate-0.1 mean relative error %.3f", err)
	}
	b := e.Bands()
	if b.Width() <= 0 {
		t.Fatalf("band width %v at rate 0.1", b.Width())
	}
	covered := 0
	for p := range want.MRC.MPKI {
		if b.Low[p] > got.MRC.MPKI[p] || b.High[p] < got.MRC.MPKI[p] {
			t.Fatalf("band excludes its own estimate at point %d", p)
		}
		if b.Low[p] <= want.MRC.MPKI[p] && want.MRC.MPKI[p] <= b.High[p] {
			covered++
		}
	}
	if covered < len(want.MRC.MPKI)/2 {
		t.Errorf("95%% band covers the true curve at only %d/%d points", covered, len(want.MRC.MPKI))
	}
}

// TestResetBitIdentical pins the pool's reset-and-reuse contract: a
// recycled engine reproduces a fresh engine's output exactly.
func TestResetBitIdentical(t *testing.T) {
	cfg := testConfigs()[1]
	scfg := sample.Config{Rate: 0.25}
	r := rand.New(rand.NewSource(5))
	dirty := fuzzTrace(r, 8000)
	trace := fuzzTrace(r, 6000)

	reused, err := sample.NewEngine(cfg, scfg, len(dirty))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range dirty {
		reused.Feed(l)
	}
	if err := reused.Reset(len(trace)); err != nil {
		t.Fatal(err)
	}
	fresh, err := sample.NewEngine(cfg, scfg, len(trace))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range trace {
		reused.Feed(l)
		fresh.Feed(l)
	}
	a, errA := reused.Snapshot(1_000_000)
	b, errB := fresh.Snapshot(1_000_000)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("snapshot errors diverge: %v vs %v", errA, errB)
	}
	if errA == nil && !reflect.DeepEqual(a, b) {
		t.Errorf("reused engine diverges from fresh after Reset")
	}
	if !reflect.DeepEqual(reused.Bands(), fresh.Bands()) {
		t.Errorf("reused engine's bands diverge from fresh after Reset")
	}
}

// TestConfigValidate pins the typed rejection of bad rates.
func TestConfigValidate(t *testing.T) {
	for _, rate := range []float64{0, -0.5, 1.0000001, 2, math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := sample.Config{Rate: rate}.Validate()
		var re *sample.RateError
		if !errors.As(err, &re) {
			t.Errorf("rate %v: got %v, want *RateError", rate, err)
		}
	}
	if _, err := sample.NewEngine(core.DefaultConfig(), sample.Config{Rate: 4}, 100); err == nil {
		t.Error("NewEngine accepted rate 4")
	}
	if _, err := sample.NewEngine(core.DefaultConfig(), sample.Config{Rate: 0.5}, 0); err == nil {
		t.Error("NewEngine accepted target 0")
	}
}

// TestSnapshotBeforeRecording pins the error path when the filter (or
// warmup) has consumed everything fed so far.
func TestSnapshotBeforeRecording(t *testing.T) {
	e, err := sample.NewEngine(core.DefaultConfig(), sample.Config{Rate: 0.01}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Snapshot(1000); err == nil {
		t.Error("snapshot of an empty engine succeeded")
	}
}

// TestBandsShift pins the transposition of a confidence band: both
// bounds move by the v-offset in place and clamp at zero.
func TestBandsShift(t *testing.T) {
	b := sample.Bands{Low: []float64{0, 1, 3}, High: []float64{2, 4, 6}}
	b.Shift(-1.5)
	if want := []float64{0, 0, 1.5}; !reflect.DeepEqual(b.Low, want) {
		t.Errorf("low %v, want %v", b.Low, want)
	}
	if want := []float64{0.5, 2.5, 4.5}; !reflect.DeepEqual(b.High, want) {
		t.Errorf("high %v, want %v", b.High, want)
	}
	b.Shift(2)
	if want := []float64{2, 2, 3.5}; !reflect.DeepEqual(b.Low, want) {
		t.Errorf("low after second shift %v, want %v", b.Low, want)
	}
	sample.Bands{}.Shift(1) // an unsampled curve has no band to move
}
