package approx

import (
	"math/rand"
	"testing"
)

func estimate(u float64, ratio ...float64) *Estimate {
	if ratio == nil {
		ratio = []float64{0.5, 0.4, 0.3, 0.2}
	}
	return &Estimate{Estimator: "test", MissRatio: ratio, Uncertainty: u}
}

// TestPolicyNeverServesUncertain is the policy's safety property: over
// randomized thresholds and sequences of decisions, the policy never
// serves an analytical estimate whose uncertainty exceeds the escalation
// threshold, whose disagreement exceeds DefaultDisagreement, or that
// follows a phase change within DefaultCooldown serves.
func TestPolicyNeverServesUncertain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		cfg := PolicyConfig{Threshold: rng.Float64()}
		p := NewPolicy(cfg)
		sinceChange := DefaultCooldown + 1
		for step := 0; step < 200; step++ {
			var primary *Estimate
			if rng.Float64() < 0.9 {
				primary = estimate(rng.Float64())
			}
			var secondary *Estimate
			if rng.Float64() < 0.5 {
				secondary = estimate(rng.Float64(),
					rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
			}
			phaseChange := rng.Float64() < 0.1
			// A phase change reported with no estimate decides
			// "warming" and starts no cooldown.
			if primary != nil {
				sinceChange++
				if phaseChange {
					sinceChange = 0
				}
			}
			d := p.Decide(primary, secondary, phaseChange)
			if d.Tier == TierAnalytical {
				if primary == nil {
					t.Fatalf("trial %d step %d: served analytical with no estimate", trial, step)
				}
				if primary.Uncertainty > cfg.Threshold {
					t.Fatalf("trial %d step %d: served uncertainty %v > threshold %v",
						trial, step, primary.Uncertainty, cfg.Threshold)
				}
				if sinceChange <= DefaultCooldown {
					t.Fatalf("trial %d step %d: served analytical %d serves after a phase change",
						trial, step, sinceChange)
				}
				if secondary != nil && d.Disagreement > DefaultDisagreement {
					t.Fatalf("trial %d step %d: served disagreement %v > %v",
						trial, step, d.Disagreement, DefaultDisagreement)
				}
				if d.Reason != "" {
					t.Fatalf("trial %d step %d: analytical serve with reason %q", trial, step, d.Reason)
				}
			} else if d.Reason == "" {
				t.Fatalf("trial %d step %d: simulated serve without a reason", trial, step)
			}
		}
		st := p.Stats()
		if st.Analytical+st.Simulated != 200 {
			t.Fatalf("trial %d: stats count %d+%d != 200", trial, st.Analytical, st.Simulated)
		}
	}
}

// TestPolicyDisabled pins the zero config: analytical tier off, every
// decision simulates, no escalations counted.
func TestPolicyDisabled(t *testing.T) {
	p := NewPolicy(PolicyConfig{})
	for i := 0; i < 5; i++ {
		d := p.Decide(estimate(0), nil, false)
		if d.Tier != TierSimulated || d.Reason != "disabled" {
			t.Fatalf("decision %d: %+v, want simulated/disabled", i, d)
		}
	}
	if st := p.Stats(); st.Escalations != 0 || st.Simulated != 5 {
		t.Fatalf("stats %+v", st)
	}
}

// TestPolicyPhaseChangeCooldown pins the state machine: a phase change
// escalates and the next DefaultCooldown serves stay simulated before the
// analytical tier resumes.
func TestPolicyPhaseChangeCooldown(t *testing.T) {
	p := NewPolicy(PolicyConfig{Threshold: 0.5})
	good := estimate(0.1)

	if d := p.Decide(good, nil, false); d.Tier != TierAnalytical {
		t.Fatalf("initial serve: %+v", d)
	}
	if d := p.Decide(good, nil, true); d.Reason != "phase-change" {
		t.Fatalf("phase change: %+v", d)
	}
	for i := 0; i < DefaultCooldown; i++ {
		if d := p.Decide(good, nil, false); d.Reason != "cooldown" {
			t.Fatalf("cooldown serve %d: %+v", i, d)
		}
	}
	if d := p.Decide(good, nil, false); d.Tier != TierAnalytical {
		t.Fatalf("post-cooldown serve: %+v", d)
	}
	st := p.Stats()
	if st.Escalations != 1 || st.Analytical != 2 || st.Simulated != 1+DefaultCooldown {
		t.Fatalf("stats %+v", st)
	}
}

// TestPolicyDisagreement pins the cross-estimator signal: agreement
// serves analytically, divergence past DefaultDisagreement escalates.
func TestPolicyDisagreement(t *testing.T) {
	p := NewPolicy(PolicyConfig{Threshold: 0.5})
	a := estimate(0.1, 0.5, 0.4, 0.3, 0.2)
	close := estimate(0.1, 0.5, 0.41, 0.3, 0.2)
	far := estimate(0.1, 0.9, 0.1, 0.05, 0.01)

	if d := p.Decide(a, close, false); d.Tier != TierAnalytical {
		t.Fatalf("agreement: %+v", d)
	}
	if d := p.Decide(a, far, false); d.Reason != "disagreement" {
		t.Fatalf("divergence: %+v", d)
	}
	// Mismatched lengths and zero-height primaries are maximal
	// disagreement, not a crash.
	if d := p.Decide(a, estimate(0.1, 0.5), false); d.Reason != "disagreement" {
		t.Fatalf("length mismatch: %+v", d)
	}
	zero := estimate(0.1, 0, 0, 0, 0)
	if d := p.Decide(zero, far, false); d.Reason != "disagreement" {
		t.Fatalf("zero-height primary vs massy secondary: %+v", d)
	}
	if d := p.Decide(zero, estimate(0.1, 0, 0, 0, 0), false); d.Tier != TierAnalytical {
		t.Fatalf("two zero curves agree: %+v", d)
	}
}

// TestPolicyWarming pins the nil-primary path.
func TestPolicyWarming(t *testing.T) {
	p := NewPolicy(PolicyConfig{Threshold: 0.5})
	if d := p.Decide(nil, nil, false); d.Reason != "warming" {
		t.Fatalf("nil primary: %+v", d)
	}
}

// TestPolicyDefaults pins the enablement rule: a positive threshold
// turns the analytical tier on, the zero config leaves it off.
func TestPolicyDefaults(t *testing.T) {
	if !(PolicyConfig{Threshold: 0.4}).Enabled() {
		t.Fatal("threshold 0.4 should enable the analytical tier")
	}
	if (PolicyConfig{}).Enabled() {
		t.Fatal("zero config should be disabled")
	}
}

// TestTierString pins the labels exposed via /curve and /metrics.
func TestTierString(t *testing.T) {
	if TierSimulated.String() != "simulated" || TierAnalytical.String() != "analytical" {
		t.Fatalf("tier labels: %q %q", TierSimulated, TierAnalytical)
	}
	if got := Tier(7).String(); got != "tier(7)" {
		t.Fatalf("unknown tier: %q", got)
	}
}
