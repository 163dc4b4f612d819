package rapidmrc

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"rapidmrc/internal/sample"
)

// TestOnlineSamplingRateOneBitIdentical pins the facade promise: the
// whole Online workflow at sampling rate 1.0 reproduces the unsampled
// workflow exactly — curve, shift, and compute statistics — with the
// confidence band collapsed onto the curve.
func TestOnlineSamplingRateOneBitIdentical(t *testing.T) {
	base := []SystemOption{WithSeed(9), WithTraceEntries(30_000)}
	curve, stats, _, err := Online("mcf", base...)
	if err != nil {
		t.Fatal(err)
	}
	sc, ss, _, err := Online("mcf", append(base[:2:2], WithSamplingRate(1.0))...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(curve.MPKI, sc.MPKI) {
		t.Fatalf("rate-1.0 Online diverges:\nwant %v\ngot  %v", curve.MPKI, sc.MPKI)
	}
	if ss.Shift != stats.Shift || ss.ComputeCycles != stats.ComputeCycles ||
		ss.StackHitRate != stats.StackHitRate || ss.WarmupEntries != stats.WarmupEntries {
		t.Errorf("rate-1.0 stats diverge: %+v vs %+v", ss, stats)
	}
	if ss.SamplingRate != 1.0 {
		t.Errorf("SamplingRate = %v, want 1.0", ss.SamplingRate)
	}
	if !reflect.DeepEqual(ss.BandLow, sc.MPKI) || !reflect.DeepEqual(ss.BandHigh, sc.MPKI) {
		t.Error("rate-1.0 band not collapsed onto the transposed curve")
	}
	if stats.SamplingRate != 0 || stats.BandLow != nil {
		t.Errorf("unsampled Online reports sampling fields: %+v", stats)
	}
}

// TestStreamSamplingBands runs the fused streaming workflow under a real
// sampling rate: the curve must stay close to the unsampled one, and
// the transposed band must bracket the transposed curve.
func TestStreamSamplingBands(t *testing.T) {
	mk := func(opts ...SystemOption) *System {
		sys, err := NewSystem("mcf", append([]SystemOption{
			WithSeed(5), WithTraceEntries(60_000)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(200_000)
		return sys
	}
	full, _, err := mk().Stream(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	curve, stats, err := mk(WithSamplingRate(0.1)).Stream(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SamplingRate <= 0 || stats.SamplingRate > 0.11 {
		t.Errorf("SamplingRate = %v, want ~0.1", stats.SamplingRate)
	}
	if stats.EffSamples <= 0 {
		t.Errorf("band metadata: eff %v", stats.EffSamples)
	}
	if len(stats.BandLow) != len(curve.MPKI) || len(stats.BandHigh) != len(curve.MPKI) {
		t.Fatalf("band lengths %d/%d for %d points",
			len(stats.BandLow), len(stats.BandHigh), len(curve.MPKI))
	}
	width := 0.0
	for i := range curve.MPKI {
		if stats.BandLow[i] > curve.MPKI[i] || stats.BandHigh[i] < curve.MPKI[i] {
			t.Fatalf("transposed band excludes the curve at point %d", i)
		}
		width += stats.BandHigh[i] - stats.BandLow[i]
	}
	if width <= 0 {
		t.Fatal("degenerate band at rate 0.1")
	}
	// Both workflows anchor at the same measured point, so the curves are
	// directly comparable; at rate 0.1 they should agree loosely.
	mean := 0.0
	for _, v := range full.MPKI {
		mean += v
	}
	mean /= float64(len(full.MPKI))
	if d := Distance(full, curve); mean > 0 && d/mean > 0.35 {
		t.Errorf("sampled curve %.2f MPKI from full (mean level %.2f)", d, mean)
	}
}

// TestWithSamplingRateValidation pins the apply-time option contract:
// rates outside (0, 1] surface a *sample.RateError from the
// constructor.
func TestWithSamplingRateValidation(t *testing.T) {
	for _, rate := range []float64{0, -0.5, 1.5, math.NaN(), math.Inf(1)} {
		_, err := NewSystem("mcf", WithSamplingRate(rate))
		var re *sample.RateError
		if !errors.As(err, &re) {
			t.Errorf("rate %v: got %v, want *sample.RateError", rate, err)
		}
	}
}
