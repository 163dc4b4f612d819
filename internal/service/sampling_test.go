package service

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"rapidmrc/internal/core"
	"rapidmrc/internal/sample"
)

// TestSampledTenantRateOneBitIdentical pins the sampled tenant path at
// rate 1.0 against the classic unsampled tenant: same trace, same
// batching, byte-identical Result — and a zero-width band riding along.
func TestSampledTenantRateOneBitIdentical(t *testing.T) {
	trace := synthTrace(7, 5000)
	raw := rawTrace(trace)
	const instr = 555_555

	svc := New(Config{})
	plain, err := svc.Register("plain", TenantConfig{Target: len(trace)})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := svc.Register("sampled", TenantConfig{
		Target:   len(trace),
		Sampling: sample.Config{Rate: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range []*Tenant{plain, sampled} {
		if err := tn.Feed(raw, instr); err != nil {
			t.Fatal(err)
		}
	}
	want, err := plain.Snapshot(true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sampled.Snapshot(true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Result, got.Result) {
		t.Fatalf("rate-1.0 tenant diverges from unsampled tenant")
	}
	if got.SamplingRate != 1.0 {
		t.Errorf("epoch sampling rate %v, want 1.0", got.SamplingRate)
	}
	if len(got.BandLow) == 0 || len(got.BandHigh) == 0 {
		t.Fatal("sampled epoch carries no band")
	}
	for i := range got.BandLow {
		if got.BandLow[i] != got.Result.MRC.MPKI[i] || got.BandHigh[i] != got.Result.MRC.MPKI[i] {
			t.Fatalf("rate-1.0 band not collapsed onto the curve at point %d", i)
		}
	}
	if want.SamplingRate != 0 || want.BandLow != nil {
		t.Errorf("unsampled epoch reports sampling fields: %+v", want)
	}
	st := sampled.Stats()
	if st.SamplingRate != 1.0 {
		t.Errorf("stats sampling rate %v, want 1.0", st.SamplingRate)
	}
}

// TestSampledTenantBands checks a genuinely down-sampled tenant: far
// fewer stack references, a non-degenerate ordered band, and the stats
// surface the rate and band width for /metrics.
func TestSampledTenantBands(t *testing.T) {
	trace := synthTrace(11, 60_000)
	raw := rawTrace(trace)

	svc := New(Config{})
	tn, err := svc.Register("app", TenantConfig{
		Target:       len(trace),
		EpochEntries: 20_000,
		Sampling:     sample.Config{Rate: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.Feed(raw, 9_999_999); err != nil {
		t.Fatal(err)
	}
	ep, err := tn.Snapshot(true)
	if err != nil {
		t.Fatal(err)
	}
	// The engine reports the threshold-quantized effective rate
	// (round(0.1 * Buckets) / Buckets), not the requested value verbatim.
	if math.Abs(ep.SamplingRate-0.1) > 1e-6 {
		t.Errorf("sampling rate %v, want ~0.1", ep.SamplingRate)
	}
	if ep.EffSamples <= 0 {
		t.Errorf("effective samples %v", ep.EffSamples)
	}
	width := 0.0
	for i := range ep.BandLow {
		if ep.BandLow[i] > ep.Result.MRC.MPKI[i] || ep.BandHigh[i] < ep.Result.MRC.MPKI[i] {
			t.Fatalf("band excludes the curve at point %d", i)
		}
		width += ep.BandHigh[i] - ep.BandLow[i]
	}
	if width <= 0 {
		t.Fatal("degenerate band at rate 0.1")
	}
	st := tn.Stats()
	if math.Abs(st.SamplingRate-0.1) > 1e-6 {
		t.Errorf("stats sampling rate %v", st.SamplingRate)
	}
	if st.BandWidthMPKI <= 0 {
		t.Errorf("stats band width %v", st.BandWidthMPKI)
	}
}

// TestRegisterSamplingValidation pins the typed rejection of bad rates,
// negative ones included: a rejected registration adds no tenant.
func TestRegisterSamplingValidation(t *testing.T) {
	svc := New(Config{})
	for i, rate := range []float64{-0.0000001 - 1, -0.5, 1.5, 2, math.NaN(), math.Inf(1)} {
		_, err := svc.Register("bad", TenantConfig{Sampling: sample.Config{Rate: rate}})
		var re *sample.RateError
		if !errors.As(err, &re) {
			t.Errorf("case %d: rate %v: got %v, want *sample.RateError", i, rate, err)
		}
		if n := svc.Stats().Tenants; n != 0 {
			t.Errorf("case %d: rate %v registered a tenant (%d)", i, rate, n)
		}
	}

}

// TestPoolRecyclesSampledEngines pins the sampled engine's pooled
// lifecycle: an evicted tenant's engine is retained and re-served to a
// matching registration, and the recycled engine's curves stay
// bit-identical to a fresh one's.
func TestPoolRecyclesSampledEngines(t *testing.T) {
	trace := synthTrace(3, 4000)
	raw := rawTrace(trace)
	scfg := sample.Config{Rate: 0.5}

	svc := New(Config{})
	a, err := svc.Register("a", TenantConfig{Target: len(trace), Sampling: scfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Feed(raw, 1000); err != nil {
		t.Fatal(err)
	}
	if err := svc.Evict("a"); err != nil {
		t.Fatal(err)
	}
	if got := svc.Pool().Stats().Idle; got != 1 {
		t.Fatalf("idle engines = %d, want 1", got)
	}
	b, err := svc.Register("b", TenantConfig{Target: len(trace), Sampling: scfg})
	if err != nil {
		t.Fatal(err)
	}
	if st := svc.Pool().Stats(); st.Idle != 0 || st.Hits == 0 {
		t.Fatalf("recycled engine not reused: %+v", st)
	}
	if err := b.Feed(raw, 424_242); err != nil {
		t.Fatal(err)
	}
	got, err := b.Snapshot(true)
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := sample.NewEngine(b.cfg.Engine, scfg, len(trace))
	if err != nil {
		t.Fatal(err)
	}
	var corr core.StreamCorrector
	for _, l := range trace {
		fresh.Feed(corr.Feed(l))
	}
	want, err := fresh.Snapshot(424_242)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got.Result) {
		t.Fatal("recycled sampled engine diverges from fresh")
	}
	// A different sampling config must not match the retained engine.
	svc.Evict("b")
	other := scfg
	other.Rate = 0.25
	c, err := svc.Register("c", TenantConfig{Target: len(trace), Sampling: other})
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.Sampling != other {
		t.Fatalf("config not preserved: %+v", c.cfg.Sampling)
	}
	if st := svc.Pool().Stats(); st.Idle != 1 {
		t.Fatalf("mismatched engine was consumed: %+v", st)
	}
}
