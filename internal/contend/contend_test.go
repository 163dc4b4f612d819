package contend

import (
	"math"
	"testing"
	"testing/quick"
)

func linear(hi, lo float64) []float64 {
	pts := make([]float64, 16)
	for i := range pts {
		pts[i] = hi + (lo-hi)*float64(i)/15
	}
	return pts
}

func flat(v float64) []float64 {
	pts := make([]float64, 16)
	for i := range pts {
		pts[i] = v
	}
	return pts
}

func TestInterp(t *testing.T) {
	c := []float64{10, 8, 6, 4}
	cases := []struct{ x, want float64 }{
		{0.5, 10}, {1, 10}, {2, 8}, {4, 4}, {9, 4}, {1.5, 9}, {3.25, 5.5},
	}
	for _, tc := range cases {
		if got := Interp(c, tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Interp(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if Interp(nil, 3) != 0 {
		t.Error("empty curve should interpolate to 0")
	}
}

func TestPredictValidation(t *testing.T) {
	if _, err := PredictShared(nil, 16); err == nil {
		t.Error("no apps accepted")
	}
	if _, err := PredictShared([]App{{}}, 16); err == nil {
		t.Error("empty MRC accepted")
	}
	if _, err := PredictShared([]App{{MRC: flat(1), PrefetchPKI: -1}}, 16); err == nil {
		t.Error("negative prefetch rate accepted")
	}
}

func TestIdenticalAppsSplitEvenly(t *testing.T) {
	a := App{MRC: linear(20, 2), PrefetchPKI: 1}
	preds, err := PredictShared([]App{a, a}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(preds[0].OccupancyColors-preds[1].OccupancyColors) > 1e-6 {
		t.Fatalf("identical apps split %v / %v", preds[0].OccupancyColors, preds[1].OccupancyColors)
	}
	if math.Abs(preds[0].OccupancyColors-8) > 1e-6 {
		t.Fatalf("occupancy %v, want 8", preds[0].OccupancyColors)
	}
}

func TestOccupanciesSumToCache(t *testing.T) {
	f := func(h1, h2, h3 uint8, p1, p2, p3 uint8) bool {
		apps := []App{
			{MRC: linear(float64(h1)+1, 0.5), PrefetchPKI: float64(p1) / 16},
			{MRC: linear(float64(h2)+1, 0.1), PrefetchPKI: float64(p2) / 16},
			{MRC: flat(float64(h3) / 8), PrefetchPKI: float64(p3) / 16},
		}
		preds, err := PredictShared(apps, 16)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, p := range preds {
			sum += p.OccupancyColors
			if p.OccupancyColors < minColors-1e-9 {
				return false
			}
		}
		// Occupancies may exceed the cache slightly only through the
		// minColors floor; otherwise they sum to C.
		return sum < 16.8 && sum > 12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHighInsertionRateWinsSpace(t *testing.T) {
	// A streaming app (flat MRC, heavy prefetch insertions) vs a quiet
	// app: the streamer must be predicted to occupy more, raising the
	// quiet app's miss rate above its solo full-cache point.
	streamer := App{MRC: flat(3), PrefetchPKI: 20}
	quiet := App{MRC: linear(12, 0.5), PrefetchPKI: 0}
	preds, err := PredictShared([]App{streamer, quiet}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if preds[0].OccupancyColors <= preds[1].OccupancyColors {
		t.Fatalf("streamer occupies %v ≤ quiet %v", preds[0].OccupancyColors, preds[1].OccupancyColors)
	}
	soloFull := quiet.MRC[15]
	if preds[1].MPKI <= soloFull {
		t.Fatalf("quiet app predicted MPKI %v not above its solo full-cache %v", preds[1].MPKI, soloFull)
	}
}

func TestSingleAppGetsWholeCache(t *testing.T) {
	preds, err := PredictShared([]App{{MRC: linear(30, 1)}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(preds[0].OccupancyColors-16) > 1e-6 {
		t.Fatalf("solo occupancy %v", preds[0].OccupancyColors)
	}
	if preds[0].MPKI != 1 {
		t.Fatalf("solo MPKI %v, want the 16-color point", preds[0].MPKI)
	}
}

// TestPredictionMonotoneInPressure: adding a polluter can only worsen (or
// leave unchanged) everyone else's predicted miss rate.
func TestPredictionMonotoneInPressure(t *testing.T) {
	a := App{MRC: linear(15, 1), PrefetchPKI: 0.5}
	b := App{MRC: linear(8, 0.5), PrefetchPKI: 0.2}
	polluter := App{MRC: flat(5), PrefetchPKI: 15}

	two, err := PredictShared([]App{a, b}, 16)
	if err != nil {
		t.Fatal(err)
	}
	three, err := PredictShared([]App{a, b, polluter}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if three[0].MPKI < two[0].MPKI-1e-9 || three[1].MPKI < two[1].MPKI-1e-9 {
		t.Fatalf("polluter improved predictions: %v→%v, %v→%v",
			two[0].MPKI, three[0].MPKI, two[1].MPKI, three[1].MPKI)
	}
}
