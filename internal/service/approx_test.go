package service

import (
	"fmt"
	"math/rand"
	"testing"

	"rapidmrc/internal/approx"
	"rapidmrc/internal/core"
	"rapidmrc/internal/mem"
)

// smallEngine is a compact geometry so the tier tests run on short
// traces.
func smallEngine() core.Config {
	cfg := core.DefaultConfig()
	cfg.StackLines = 64
	cfg.Points = 8
	cfg.LinesPerPoint = 8
	return cfg
}

// uniformTrace is a smooth workload the analytical tier handles well.
func uniformTrace(seed int64, ws, n int) []mem.Line {
	r := rand.New(rand.NewSource(seed))
	out := make([]mem.Line, n)
	for i := range out {
		out[i] = mem.Line(r.Intn(ws))
	}
	return out
}

// TestServeAnalytical pins the fast path: a smooth workload under a
// permissive threshold serves from the estimator — no engine snapshot —
// and the served epoch respects the policy invariant (uncertainty within
// threshold, sane monotone curve).
func TestServeAnalytical(t *testing.T) {
	const threshold = 0.9
	svc := New(Config{})
	tn, err := svc.Register("app", TenantConfig{
		Target: 6000,
		Engine: smallEngine(),
		Approx: approx.PolicyConfig{Threshold: threshold},
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := uniformTrace(21, 40, 6000)
	if err := tn.Feed(rawTrace(trace), 24_000); err != nil {
		t.Fatal(err)
	}
	ep, err := tn.Serve(true)
	if err != nil {
		t.Fatal(err)
	}
	if ep.Tier != approx.TierAnalytical {
		t.Fatalf("tier %v (reason %q), want analytical", ep.Tier, ep.TierReason)
	}
	if ep.Estimator != "che" {
		t.Errorf("estimator %q", ep.Estimator)
	}
	if ep.Uncertainty > threshold {
		t.Fatalf("served uncertainty %v beyond threshold %v", ep.Uncertainty, threshold)
	}
	mpki := ep.Result.MRC.MPKI
	if len(mpki) != 8 {
		t.Fatalf("curve has %d points", len(mpki))
	}
	for i := 1; i < len(mpki); i++ {
		if mpki[i] > mpki[i-1]+1e-9 {
			t.Fatalf("analytical curve not monotone: %v", mpki)
		}
	}
	// The estimate must be close to the real simulated curve for this
	// easy workload.
	sim, err := tn.Snapshot(true)
	if err != nil {
		t.Fatal(err)
	}
	if d := core.Distance(ep.Result.MRC, sim.Result.MRC); d > 0.05*sim.Result.MRC.MPKI[0]+1e-9 {
		t.Errorf("estimate vs simulation distance %v too large (top %v)",
			d, sim.Result.MRC.MPKI[0])
	}
	st := tn.Stats()
	if st.Tier != "analytical" || st.ApproxServed != 1 {
		t.Errorf("stats %+v", st)
	}
}

// TestServeEscalatesOnUncertainty pins the escalation path: a cliff
// workload under a strict threshold must be served from the real engine,
// and the escalation banks a cross-validation error measurement.
func TestServeEscalatesOnUncertainty(t *testing.T) {
	svc := New(Config{})
	tn, err := svc.Register("cliff", TenantConfig{
		Target: 6000,
		Engine: smallEngine(),
		Approx: approx.PolicyConfig{Threshold: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := make([]mem.Line, 6000)
	for i := range trace {
		trace[i] = mem.Line(i % 32) // cyclic loop: knee at 32 lines
	}
	if err := tn.Feed(rawTrace(trace), 24_000); err != nil {
		t.Fatal(err)
	}
	ep, err := tn.Serve(true)
	if err != nil {
		t.Fatal(err)
	}
	if ep.Tier != approx.TierSimulated || ep.TierReason != "uncertain" {
		t.Fatalf("tier %v reason %q, want simulated/uncertain", ep.Tier, ep.TierReason)
	}
	if ep.Result.Hist == nil {
		t.Fatal("escalated serve did not come from the engine")
	}
	st := tn.Stats()
	if st.Escalations != 1 || st.SimServed != 1 {
		t.Errorf("stats %+v", st)
	}
	if st.CrossValError < 0 {
		t.Error("escalation did not record a cross-validation error")
	}
}

// TestServePhaseChangeCooldown pins the phase integration: a latched
// phase change forces simulation and approx.DefaultCooldown serves hold
// the analytical tier off before it resumes.
func TestServePhaseChangeCooldown(t *testing.T) {
	svc := New(Config{})
	tn, err := svc.Register("app", TenantConfig{
		Target: 6000,
		Engine: smallEngine(),
		Approx: approx.PolicyConfig{Threshold: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.Feed(rawTrace(uniformTrace(31, 40, 6000)), 24_000); err != nil {
		t.Fatal(err)
	}
	tn.Flush()

	// Latch a phase change as the auto-epoch observer would.
	tn.mu.Lock()
	tn.phasePending = true
	tn.mu.Unlock()

	if ep, err := tn.Serve(false); err != nil || ep.TierReason != "phase-change" {
		t.Fatalf("ep %+v err %v, want phase-change escalation", ep, err)
	}
	for i := 0; i < approx.DefaultCooldown; i++ {
		if ep, err := tn.Serve(false); err != nil || ep.TierReason != "cooldown" {
			t.Fatalf("serve %d: %+v err %v, want cooldown", i, ep, err)
		}
	}
	if ep, err := tn.Serve(false); err != nil || ep.Tier != approx.TierAnalytical {
		t.Fatalf("post-cooldown: %+v err %v, want analytical", ep, err)
	}
}

// TestServeDisabledMatchesSnapshot pins that with the analytical tier
// off (the default zero threshold, or a negative one), Serve is
// bit-identical to the classic Snapshot path — the tier is purely
// additive.
func TestServeDisabledMatchesSnapshot(t *testing.T) {
	svc := New(Config{})
	for _, threshold := range []float64{0, -1} {
		id := fmt.Sprintf("app%v", threshold)
		tn, err := svc.Register(id, TenantConfig{Target: 4000, Approx: approx.PolicyConfig{Threshold: threshold}})
		if err != nil {
			t.Fatal(err)
		}
		trace := synthTrace(17, 4000)
		if err := tn.Feed(rawTrace(trace), 100_000); err != nil {
			t.Fatal(err)
		}
		ep, err := tn.Serve(true)
		if err != nil {
			t.Fatal(err)
		}
		if ep.Tier != approx.TierSimulated || ep.TierReason != "disabled" {
			t.Fatalf("threshold %v: tier %v reason %q", threshold, ep.Tier, ep.TierReason)
		}
		want, err := tn.Snapshot(true)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range want.Result.MRC.MPKI {
			if ep.Result.MRC.MPKI[i] != v {
				t.Fatalf("threshold %v: disabled Serve diverges from Snapshot at %d: %v vs %v",
					threshold, i, ep.Result.MRC.MPKI[i], v)
			}
		}
	}
}

// TestServeNeverExceedsThreshold is the service-level version of the
// policy property: across many random workloads and thresholds, an
// analytical serve's uncertainty never exceeds the tenant's threshold.
func TestServeNeverExceedsThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	svc := New(Config{})
	for trial := 0; trial < 10; trial++ {
		threshold := 0.05 + 0.9*rng.Float64()
		tn, err := svc.Register("t"+string(rune('a'+trial)), TenantConfig{
			Target: 4000,
			Engine: smallEngine(),
			Approx: approx.PolicyConfig{Threshold: threshold},
		})
		if err != nil {
			t.Fatal(err)
		}
		ws := 4 + rng.Intn(200)
		if err := tn.Feed(rawTrace(uniformTrace(int64(trial), ws, 4000)), 16_000); err != nil {
			t.Fatal(err)
		}
		ep, err := tn.Serve(true)
		if err != nil {
			t.Fatal(err)
		}
		if ep.Tier == approx.TierAnalytical && ep.Uncertainty > threshold {
			t.Fatalf("trial %d: served uncertainty %v > threshold %v",
				trial, ep.Uncertainty, threshold)
		}
	}
}
