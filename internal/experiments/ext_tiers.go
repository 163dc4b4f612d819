package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"rapidmrc/internal/approx"
	"rapidmrc/internal/color"
	"rapidmrc/internal/core"
	"rapidmrc/internal/cpu"
	"rapidmrc/internal/partition"
	"rapidmrc/internal/platform"
	"rapidmrc/internal/report"
	"rapidmrc/internal/runner"
	"rapidmrc/internal/sample"
	"rapidmrc/internal/workload"
)

// SamplingRates is the sampled engine's rate sweep, full rate first so
// every report carries its own bit-identity control row.
var SamplingRates = []float64{1.0, 0.5, 0.25, 0.1, 0.05, 0.02, 0.01}

// The curve paths ext-tiers compares, in report order. The exact path is
// core.Compute; che and fullassoc are the two estimates approx.Assess
// computes from the reuse-time sampler; tiered is what the production
// tier decision serves: the Che/Fagin estimate where the policy trusts
// it, the exact curve where it escalates. The sampled engine fills the
// paths from pathSampled on, one per rate in SamplingRates.
const (
	pathExact = iota
	pathChe
	pathFA
	pathTiered
	pathSampled
)

// TierCurve is one path's curve for one application's probing period.
type TierCurve struct {
	MRC *core.MRC
	// ModelCycles is the simulation's modeled cost (0 for an analytical
	// curve).
	ModelCycles uint64
	// Err is the mean |path - exact| MPKI distance.
	Err float64
	// Coverage is the fraction of points the sampled engine's confidence
	// band brackets the exact curve (0 for the other paths).
	Coverage float64
	// NsPerRef is the path's wall-clock time per log entry: feed plus
	// curve.
	NsPerRef float64
}

// TierApp is one application's probing period through every path.
type TierApp struct {
	App string
	// Shape classifies the exact curve.
	Shape approx.Shape
	// TopMPKI is the exact curve's 1-color point, the relative-error
	// scale. MRScale converts this log's MPKI into misses per reference:
	// instructions / (1000 × references).
	TopMPKI, MRScale float64
	// Decision is approx.Assess's verdict at the default threshold.
	Decision approx.Decision
	// Curves holds one curve per path, in tierRows order.
	Curves []TierCurve
}

// rel returns err as a fraction of the exact curve's top (0 for a
// flat-zero curve).
func (a TierApp) rel(err float64) float64 {
	if a.TopMPKI <= 0 {
		return 0
	}
	return err / a.TopMPKI
}

// TierRow aggregates one path over the applications and their pairs.
// Name is "exact", "che", "fullassoc", "tiered" or "sampled", and Rate is
// the sampled engine's rate (0 for the other paths).
type TierRow struct {
	Name string
	Rate float64
	// MeanMRErr and MaxMRErr are the per-app miss-ratio MAE (Err scaled
	// by MRScale, the SHARDS papers' metric), averaged and maximized.
	MeanMRErr, MaxMRErr float64
	// MeanCover averages the sampled band's Coverage.
	MeanCover float64
	// MeanRegret and MaxRegret are in MPKI, over every app pair: the
	// exact curves' total at the split partition.ChoosePair picks on
	// this path's curves, minus their total at the exact curves' split.
	// Changed counts the pairs whose split differs from the exact one.
	MeanRegret, MaxRegret float64
	Changed, Pairs        int
	// NsPerRef is the mean wall-clock time per log entry; Speedup is the
	// mean of exact time over this path's time.
	NsPerRef, Speedup float64
}

// ExtTiers compares the curve tiers on one probing period per
// application: the exact simulation, the spatially sampled engine at
// every rate in SamplingRates, and the reuse-time sampler with the
// analytical estimators and the tier decision approx.Assess makes. Every
// path reads the identical corrected log, so every difference is the
// path's own error, and each is judged both by its curve error and by
// the regret of the cache partition it chooses for every app pair, the
// use the paper computes a curve for (§4, Figure 7).
func ExtTiers(w io.Writer, cfg Config) ([]TierApp, []TierRow, error) {
	names := cfg.apps()
	apps := make([]TierApp, len(names))
	err := runner.ForEach(context.Background(), cfg.Parallel, len(names), func(i int) error {
		a, err := cfg.tierApp(names[i])
		if err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
		apps[i] = a
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	rows := summarizeTiers(apps)

	fmt.Fprintf(w, "Extension: the curve tiers against the exact simulation, judged by the partition they choose\n")
	fmt.Fprintf(w, "One probing period per app (%d entries); core.Compute over its corrected log is the exact\n", cfg.entries())
	fmt.Fprintf(w, "reference, and every path reads the identical log. che and fullassoc are the estimates\n")
	fmt.Fprintf(w, "approx.Assess computes from the reuse-time sampler; tiered serves che where the policy\n")
	fmt.Fprintf(w, "(threshold %.2f) trusts it and the exact curve where it escalates; sampled is the SHARDS\n", approx.DefaultThreshold)
	fmt.Fprintf(w, "engine at each rate. MR-MAE = mean |path - exact| miss ratio (misses per reference; the\n")
	fmt.Fprintf(w, "sampled tier's acceptance budget is <= 0.02). Cover = fraction of points the sampled\n")
	fmt.Fprintf(w, "confidence band brackets the exact curve. Regret (MPKI) = over all %d app pairs, the\n", rows[0].Pairs)
	fmt.Fprintf(w, "exact curves' total at the split partition.ChoosePair picks on the path's curves minus\n")
	fmt.Fprintf(w, "their total at the exact split; Changed = pairs whose split differs. ns/ref and Speedup =\n")
	fmt.Fprintf(w, "exact time / path time are wall-clock, so they go to stderr and this report stays byte-stable.\n\n")

	cells := make([][]string, len(rows))
	speed := make([][]string, len(rows))
	for i, r := range rows {
		rate, cover := "-", "-"
		if r.Name == "sampled" {
			rate, cover = fmt.Sprintf("%.2f", r.Rate), fmt.Sprintf("%.2f", r.MeanCover)
		}
		cells[i] = []string{
			r.Name, rate, fmt.Sprintf("%.4f", r.MeanMRErr), fmt.Sprintf("%.4f", r.MaxMRErr), cover,
			fmt.Sprintf("%.4f", r.MeanRegret), fmt.Sprintf("%.3f", r.MaxRegret),
			fmt.Sprintf("%d/%d", r.Changed, r.Pairs),
		}
		speed[i] = []string{r.Name, rate, fmt.Sprintf("%.1f", r.NsPerRef), fmt.Sprintf("%.1fx", r.Speedup)}
	}
	fmt.Fprint(w, report.Table([]string{
		"Path", "Rate", "MeanMR-MAE", "MaxMR-MAE", "Cover", "MeanRegret", "MaxRegret", "Changed"}, cells))
	fmt.Fprintf(os.Stderr, "ext-tiers wall-clock cost per path:\n%s",
		report.Table([]string{"Path", "Rate", "ns/ref", "Speedup"}, speed))

	// Per-app detail: the analytical cross-validation and the policy's
	// inputs, beside the sampled engine at the cheapest rate inside the
	// budget.
	smp := -1
	headers := []string{"App", "Shape", "Top", "ErrChe", "RelChe", "ErrFA", "RelFA", "Uncert", "Disagree", "Policy"}
	fmt.Fprintf(w, "\nPer-app detail (Err = mean |path - exact| MPKI; Rel = Err / exact 1-color MPKI")
	if best := pickSamplingRate(rows, 0.02); best > 0 {
		for k, r := range rows {
			if r.Name == "sampled" && r.Rate == best {
				smp = k
			}
		}
		headers = append(headers, "SmpMR-MAE", "SmpCover")
		fmt.Fprintf(w, ";\nSmp = sampled at rate %.2f, the cheapest with mean MR-MAE <= 0.02", best)
	}
	fmt.Fprintf(w, "):\n")
	cells = make([][]string, len(apps))
	for i, a := range apps {
		verdict := ""
		if a.Decision.Tier == approx.TierSimulated {
			verdict = "escalate"
		}
		che, fa := a.Curves[pathChe].Err, a.Curves[pathFA].Err
		cells[i] = []string{
			a.App, a.Shape.String(), report.F(a.TopMPKI),
			report.F(che), fmt.Sprintf("%.3f", a.rel(che)),
			report.F(fa), fmt.Sprintf("%.3f", a.rel(fa)),
			fmt.Sprintf("%.3f", a.Decision.Uncertainty), fmt.Sprintf("%.3f", a.Decision.Disagreement), verdict,
		}
		if smp >= 0 {
			c := a.Curves[smp]
			cells[i] = append(cells[i], fmt.Sprintf("%.4f", c.Err*a.MRScale), fmt.Sprintf("%.2f", c.Coverage))
		}
	}
	fmt.Fprint(w, report.Table(headers, cells))

	fmt.Fprintf(w, "\nBy curve-shape class (policy threshold %.2f):\n", approx.DefaultThreshold)
	shapes := shapeMeans(apps)
	cells = make([][]string, len(shapes))
	for i, s := range shapes {
		cells[i] = []string{
			s.shape.String(), fmt.Sprintf("%d", s.apps),
			fmt.Sprintf("%.3f", s.relChe), fmt.Sprintf("%.3f", s.relFA),
			fmt.Sprintf("%d/%d", s.escalated, s.apps),
		}
	}
	fmt.Fprint(w, report.Table([]string{"Shape", "Apps", "MeanRelChe", "MeanRelFA", "Escalated"}, cells))
	fmt.Fprintln(w)
	return apps, rows, nil
}

// tierApp captures one probing period for name and runs it through every
// path.
func (c Config) tierApp(name string) (TierApp, error) {
	p := c.captureWarm(workload.MustByName(name), platform.Options{Mode: cpu.Complex}, c.entries())
	a := TierApp{App: name, Curves: make([]TierCurve, pathSampled+len(SamplingRates))}

	t0 := time.Now()
	exact, err := p.curve()
	if err != nil {
		return a, err
	}
	n := len(p.lines)
	a.Curves[pathExact] = TierCurve{MRC: exact.MRC, ModelCycles: exact.ModelCycles, NsPerRef: perRef(t0, n)}

	t0 = time.Now()
	smp, err := approx.NewSampler(core.DefaultConfig(), n)
	if err != nil {
		return a, err
	}
	for _, l := range p.lines {
		smp.Feed(l)
	}
	che, fa, d := approx.Assess(approx.NewPolicy(approx.PolicyConfig{Threshold: approx.DefaultThreshold}),
		smp, p.stats.Instructions, false)
	ns := perRef(t0, n)
	if che == nil || fa == nil {
		return a, fmt.Errorf("no analytical estimate (%s)", d.Reason)
	}
	a.Decision = d
	a.Curves[pathChe] = TierCurve{MRC: che.MRC, NsPerRef: ns}
	a.Curves[pathFA] = TierCurve{MRC: fa.MRC, NsPerRef: ns}
	a.Curves[pathTiered] = a.Curves[pathChe]
	if d.Tier == approx.TierSimulated {
		a.Curves[pathTiered] = a.Curves[pathExact]
		a.Curves[pathTiered].NsPerRef += ns
	}

	for j, rate := range SamplingRates {
		t0 := time.Now()
		eng, err := sample.NewEngine(core.DefaultConfig(), sample.Config{Rate: rate}, n)
		if err != nil {
			return a, fmt.Errorf("rate %v: %w", rate, err)
		}
		for _, l := range p.lines {
			eng.Feed(l)
		}
		res, err := eng.Snapshot(p.stats.Instructions)
		if err != nil {
			return a, fmt.Errorf("rate %v: %w", rate, err)
		}
		cv := TierCurve{MRC: res.MRC, ModelCycles: res.ModelCycles, NsPerRef: perRef(t0, n)}
		b := eng.Bands()
		for k, v := range exact.MRC.MPKI {
			if b.Low[k] <= v && v <= b.High[k] {
				cv.Coverage++
			}
		}
		cv.Coverage /= float64(len(exact.MRC.MPKI))
		a.Curves[pathSampled+j] = cv
	}

	for k := range a.Curves {
		a.Curves[k].Err = core.Distance(a.Curves[k].MRC, exact.MRC)
	}
	a.Shape, a.TopMPKI = approx.ClassifyShape(exact.MRC.MPKI), exact.MRC.MPKI[0]
	a.MRScale = float64(p.stats.Instructions) / (1000 * float64(n))
	return a, nil
}

// perRef returns the wall-clock nanoseconds since t0 per log entry.
func perRef(t0 time.Time, entries int) float64 {
	return float64(time.Since(t0).Nanoseconds()) / float64(entries)
}

// tierRows returns one empty row per path, indexed like TierApp.Curves.
func tierRows() []TierRow {
	rows := []TierRow{{Name: "exact"}, {Name: "che"}, {Name: "fullassoc"}, {Name: "tiered"}}
	for _, rate := range SamplingRates {
		rows = append(rows, TierRow{Name: "sampled", Rate: rate})
	}
	return rows
}

// summarizeTiers folds the applications into one row per path: curve
// error and cost per app, partition regret per app pair.
func summarizeTiers(apps []TierApp) []TierRow {
	rows := tierRows()
	for k := range rows {
		r := &rows[k]
		for _, a := range apps {
			c := a.Curves[k]
			mr := c.Err * a.MRScale
			r.MeanMRErr += mr
			r.MaxMRErr = max(r.MaxMRErr, mr)
			r.MeanCover += c.Coverage
			r.NsPerRef += c.NsPerRef
			r.Speedup += a.Curves[pathExact].NsPerRef / c.NsPerRef
		}
		for i := range apps {
			for j := i + 1; j < len(apps); j++ {
				ei, ej := apps[i].Curves[pathExact].MRC, apps[j].Curves[pathExact].MRC
				x, _ := partition.ChoosePair(apps[i].Curves[k].MRC, apps[j].Curves[k].MRC, color.NumColors)
				xe, _ := partition.ChoosePair(ei, ej, color.NumColors)
				regret := ei.At(x) + ej.At(color.NumColors-x) - (ei.At(xe) + ej.At(color.NumColors-xe))
				r.MeanRegret += regret
				r.MaxRegret = max(r.MaxRegret, regret)
				if x != xe {
					r.Changed++
				}
				r.Pairs++
			}
		}
		if n := float64(len(apps)); n > 0 {
			r.MeanMRErr /= n
			r.MeanCover /= n
			r.NsPerRef /= n
			r.Speedup /= n
		}
		if r.Pairs > 0 {
			r.MeanRegret /= float64(r.Pairs)
		}
	}
	return rows
}

// pickSamplingRate returns the lowest sampled rate whose mean miss-ratio
// MAE stays within budget, or 0 when none qualifies. Miss-ratio units
// are the budget scale because a relative MPKI error divides by the
// 1-color MPKI and so punishes flat near-zero curves for absolute
// deviations that are operationally irrelevant.
func pickSamplingRate(rows []TierRow, budget float64) float64 {
	best := 0.0
	for _, r := range rows {
		if r.Name == "sampled" && r.MeanMRErr <= budget && (best == 0 || r.Rate < best) {
			best = r.Rate
		}
	}
	return best
}

// shapeMean is the analytical cross-validation of one curve-shape class.
type shapeMean struct {
	shape         approx.Shape
	apps          int
	relChe, relFA float64
	escalated     int
}

// shapeMeans averages the estimators' relative error per curve-shape
// class, in approx.Shapes() order; classes with no apps are omitted.
func shapeMeans(apps []TierApp) []shapeMean {
	var out []shapeMean
	for _, shape := range approx.Shapes() {
		s := shapeMean{shape: shape}
		for _, a := range apps {
			if a.Shape != shape {
				continue
			}
			s.apps++
			s.relChe += a.rel(a.Curves[pathChe].Err)
			s.relFA += a.rel(a.Curves[pathFA].Err)
			if a.Decision.Tier == approx.TierSimulated {
				s.escalated++
			}
		}
		if s.apps == 0 {
			continue
		}
		s.relChe /= float64(s.apps)
		s.relFA /= float64(s.apps)
		out = append(out, s)
	}
	return out
}
