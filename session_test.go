package rapidmrc

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"rapidmrc/internal/approx"
	"rapidmrc/internal/sample"
	"rapidmrc/internal/service"
)

// TestTierDecisionAgreesAcrossSurfaces pins the single tier decision:
// the same captured trace handed to Engine.Estimate and to a service
// tenant read with Serve(true) must produce bit-identical verdicts —
// tier, reason, uncertainty, disagreement — and the identical served
// curve, over zoo apps that mix flat curves (served analytically) with
// knees (escalated).
func TestTierDecisionAgreesAcrossSurfaces(t *testing.T) {
	apps := []string{"gzip", "crafty", "povray", "mcf", "art", "swim", "twolf", "equake"}
	svc := service.New(service.Config{GlobalBudget: -1})
	shapes := map[approx.Shape]int{}
	tiers := map[string]int{}
	for _, app := range apps {
		sys, err := NewSystem(app, WithSeed(3), WithTraceEntries(20_000))
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(200_000)
		trace := sys.Capture()

		curve, est, err := NewEngine().Estimate(trace)
		if err != nil {
			t.Fatalf("%s: Estimate: %v", app, err)
		}
		tn, err := svc.Register(app, service.TenantConfig{
			Target:    len(trace.Lines),
			MaxQueued: len(trace.Lines),
			Approx:    approx.PolicyConfig{Threshold: approx.DefaultThreshold},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tn.Feed(trace.Lines, trace.Instructions); err != nil {
			t.Fatal(err)
		}
		ep, err := tn.Serve(true)
		if err != nil {
			t.Fatalf("%s: Serve: %v", app, err)
		}
		if est.Tier != ep.Tier.String() || est.Reason != ep.TierReason ||
			est.Estimator != ep.Estimator ||
			est.Uncertainty != ep.Uncertainty || est.Disagreement != ep.Disagreement {
			t.Errorf("%s: verdicts diverge: Estimate %s/%q/%q u=%v d=%v, tenant %s/%q/%q u=%v d=%v",
				app, est.Tier, est.Reason, est.Estimator, est.Uncertainty, est.Disagreement,
				ep.Tier, ep.TierReason, ep.Estimator, ep.Uncertainty, ep.Disagreement)
		}
		if !reflect.DeepEqual(curve.MPKI, ep.Result.MRC.MPKI) {
			t.Errorf("%s: served curves diverge:\nEstimate %v\ntenant   %v", app, curve.MPKI, ep.Result.MRC.MPKI)
		}
		shapes[approx.ClassifyShape(curve.MPKI)]++
		tiers[est.Tier]++
	}
	if shapes[approx.ShapeFlat] == 0 || shapes[approx.ShapeKnee] == 0 {
		t.Errorf("app set lost its shape mix: %v", shapes)
	}
	if tiers["analytical"] == 0 || tiers["simulated"] == 0 {
		t.Errorf("app set exercises one tier only: %v", tiers)
	}
}

// TestProfileRejectionsMatchAcrossSurfaces pins Open's profiling-field
// rejections as one typed error, whichever surface the configuration
// arrives through: a service Register, the Online workflow, or
// NewSystem (which System.Stream needs, so the bad configuration is
// refused before any machine boots).
func TestProfileRejectionsMatchAcrossSurfaces(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tenant service.TenantConfig
		opts   []SystemOption
		field  string
	}{
		{"rate above 1", service.TenantConfig{Sampling: sample.Config{Rate: 1.5}},
			[]SystemOption{WithSamplingRate(1.5)}, "Sampling"},
	} {
		check := func(surface string, err error) {
			t.Helper()
			var pe *service.ProfileError
			if !errors.As(err, &pe) || pe.Field != tc.field {
				t.Errorf("%s via %s: got %v, want *service.ProfileError on %s", tc.name, surface, err, tc.field)
			}
			var re *sample.RateError
			if isRate := strings.HasPrefix(tc.name, "rate"); errors.As(err, &re) != isRate {
				t.Errorf("%s via %s: *sample.RateError cause %v, want %v", tc.name, surface, !isRate, isRate)
			}
		}
		_, err := NewSystem("mcf", tc.opts...)
		check("NewSystem", err)
		_, _, _, err = Online("mcf", tc.opts...)
		check("Online", err)
		_, err = service.New(service.Config{}).Register("t", tc.tenant)
		check("Register", err)
	}
}
