package experiments

import (
	"context"
	"fmt"
	"io"

	"rapidmrc/internal/approx"
	"rapidmrc/internal/core"
	"rapidmrc/internal/cpu"
	"rapidmrc/internal/platform"
	"rapidmrc/internal/report"
	"rapidmrc/internal/runner"
	"rapidmrc/internal/workload"
)

// ApproxRow is one application's analytical-vs-simulated cross-validation:
// both estimators run on the reuse-time profile of the same corrected
// trace the Mattson simulation consumed, so every difference is model
// error, not sampling noise.
type ApproxRow struct {
	App string
	// Shape classifies the simulated curve (the ground truth here).
	Shape approx.Shape
	// TopMPKI is the simulated curve's 1-color point, the error scale.
	TopMPKI float64
	// ErrChe and ErrFA are each estimator's mean absolute MPKI distance
	// from the simulated curve; RelChe and RelFA are the same as a
	// fraction of TopMPKI (0 when the curve is flat zero).
	ErrChe, ErrFA float64
	RelChe, RelFA float64
	// Uncertainty and Disagreement are the serving policy's inputs;
	// Escalate is its verdict at the default threshold.
	Uncertainty  float64
	Disagreement float64
	Escalate     bool
}

// ApproxSummary aggregates cross-validation error by curve-shape class.
type ApproxSummary struct {
	Shape      approx.Shape
	Apps       int
	MeanRelChe float64
	MeanRelFA  float64
	Escalated  int
}

// ExtApprox cross-validates the internal/approx analytical estimators
// against the full Mattson simulation over the workload zoo: one probing
// period per application, the same corrected trace through both paths,
// error broken down by curve-shape class (flat/knee/steep). The per-app
// table shows where the fluid approximation holds and where the
// escalation policy correctly refuses to serve it.
func ExtApprox(w io.Writer, cfg Config) ([]ApproxRow, []ApproxSummary, error) {
	names := cfg.apps()

	rows := make([]ApproxRow, len(names))
	err := runner.ForEach(context.Background(), cfg.Parallel, len(names), func(i int) error {
		p := cfg.captureWarm(workload.MustByName(names[i]), platform.Options{Mode: cpu.Complex}, cfg.entries())

		sim, err := p.curve()
		if err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
		prof, err := approx.ProfileTrace(p.lines, core.DefaultConfig())
		if err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
		che, err := approx.CheFagin{}.Estimate(prof, p.stats.Instructions)
		if err != nil {
			return fmt.Errorf("%s: che: %w", names[i], err)
		}
		fa, err := approx.FullyAssociative{}.Estimate(prof, p.stats.Instructions)
		if err != nil {
			return fmt.Errorf("%s: fullassoc: %w", names[i], err)
		}
		d := approx.NewPolicy(approx.PolicyConfig{Threshold: approx.DefaultThreshold}).
			Decide(che, fa, false)

		top := sim.MRC.MPKI[0]
		row := ApproxRow{
			App:          names[i],
			Shape:        approx.ClassifyShape(sim.MRC.MPKI),
			TopMPKI:      top,
			ErrChe:       core.Distance(che.MRC, sim.MRC),
			ErrFA:        core.Distance(fa.MRC, sim.MRC),
			Uncertainty:  d.Uncertainty,
			Disagreement: d.Disagreement,
			Escalate:     d.Tier == approx.TierSimulated,
		}
		if top > 0 {
			row.RelChe = row.ErrChe / top
			row.RelFA = row.ErrFA / top
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	summaries := summarizeApprox(rows)

	fmt.Fprintf(w, "Extension: analytical estimators (internal/approx) cross-validated against the Mattson simulation\n")
	fmt.Fprintf(w, "One probing period per app (%d entries), identical corrected trace through both paths.\n", cfg.entries())
	fmt.Fprintf(w, "Err = mean |analytical - simulated| MPKI; Rel = Err / simulated 1-color MPKI.\n\n")
	cells := make([][]string, len(rows))
	for i, r := range rows {
		esc := ""
		if r.Escalate {
			esc = "escalate"
		}
		cells[i] = []string{
			r.App, r.Shape.String(), report.F(r.TopMPKI),
			report.F(r.ErrChe), fmt.Sprintf("%.3f", r.RelChe),
			report.F(r.ErrFA), fmt.Sprintf("%.3f", r.RelFA),
			fmt.Sprintf("%.3f", r.Uncertainty), fmt.Sprintf("%.3f", r.Disagreement), esc,
		}
	}
	fmt.Fprint(w, report.Table([]string{
		"App", "Shape", "Top", "ErrChe", "RelChe", "ErrFA", "RelFA",
		"Uncert", "Disagree", "Policy"}, cells))

	fmt.Fprintf(w, "\nBy curve-shape class (policy threshold %.2f):\n", approx.DefaultThreshold)
	sc := make([][]string, len(summaries))
	for i, s := range summaries {
		sc[i] = []string{
			s.Shape.String(), fmt.Sprintf("%d", s.Apps),
			fmt.Sprintf("%.3f", s.MeanRelChe), fmt.Sprintf("%.3f", s.MeanRelFA),
			fmt.Sprintf("%d/%d", s.Escalated, s.Apps),
		}
	}
	fmt.Fprint(w, report.Table(
		[]string{"Shape", "Apps", "MeanRelChe", "MeanRelFA", "Escalated"}, sc))
	fmt.Fprintln(w)
	return rows, summaries, nil
}

// summarizeApprox folds per-app rows into per-shape-class summaries, in
// Shapes() order; classes with no apps are omitted.
func summarizeApprox(rows []ApproxRow) []ApproxSummary {
	var out []ApproxSummary
	for _, shape := range approx.Shapes() {
		s := ApproxSummary{Shape: shape}
		for _, r := range rows {
			if r.Shape != shape {
				continue
			}
			s.Apps++
			s.MeanRelChe += r.RelChe
			s.MeanRelFA += r.RelFA
			if r.Escalate {
				s.Escalated++
			}
		}
		if s.Apps == 0 {
			continue
		}
		s.MeanRelChe /= float64(s.Apps)
		s.MeanRelFA /= float64(s.Apps)
		out = append(out, s)
	}
	return out
}
