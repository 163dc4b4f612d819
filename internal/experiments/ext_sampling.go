package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"rapidmrc/internal/core"
	"rapidmrc/internal/cpu"
	"rapidmrc/internal/platform"
	"rapidmrc/internal/report"
	"rapidmrc/internal/runner"
	"rapidmrc/internal/sample"
	"rapidmrc/internal/workload"
)

// SamplingRates is the rate sweep ext-sampling runs, full rate first so
// every report carries its own bit-identity control row.
var SamplingRates = []float64{1.0, 0.5, 0.25, 0.1, 0.05, 0.02, 0.01}

// SamplingRow is one (application, rate) cell of the sweep: the sampled
// engine against the full simulation on the identical corrected trace,
// so every difference is sampling noise, not capture noise.
type SamplingRow struct {
	App  string
	Rate float64
	// TopMPKI is the full simulation's 1-color point, the error scale.
	TopMPKI float64
	// Err is the mean absolute MPKI distance from the full curve; RelErr
	// is Err / TopMPKI (0 when the full curve is flat zero).
	Err, RelErr float64
	// MRErr is the same distance in dimensionless miss-ratio units
	// (misses per reference, the SHARDS papers' MAE metric): Err scaled
	// by instructions / (1000 × references). Unlike RelErr it does not
	// explode on near-zero flat curves, where a negligible absolute
	// deviation is a large fraction of a tiny top point.
	MRErr float64
	// MRScale is that conversion factor, kept so callers can translate.
	MRScale float64
	// Coverage is the fraction of curve points where the confidence band
	// brackets the full simulation's curve; Width is the band's mean
	// width in MPKI.
	Coverage, Width float64
	// Sampled is how many references passed the spatial filter.
	Sampled int
	// NsPerRef is the sampled engine's feed+snapshot wall time per
	// reference; Speedup is the full engine's time over it, measured on
	// the same trace in the same process.
	NsPerRef float64
	Speedup  float64
	// Identical reports bit-identity with the full simulation (expected
	// exactly at rate 1).
	Identical bool
}

// SamplingSummary aggregates one rate across the application set.
// MeanMRErr is the acceptance metric: mean miss-ratio MAE (see
// SamplingRow.MRErr), the scale the SHARDS literature budgets on.
type SamplingSummary struct {
	Rate        float64
	Apps        int
	MeanRelErr  float64
	MaxRelErr   float64
	MeanMRErr   float64
	MaxMRErr    float64
	MeanCover   float64
	MeanSpeedup float64
}

// ExtSampling sweeps the SHARDS spatial-sampling rate over the workload
// zoo: one probing period per application, the identical corrected
// trace through the full Mattson simulation and through the sampled
// engine at every rate in SamplingRates. For each cell it reports the
// curve error against the full simulation, whether the confidence band
// brackets the true curve, and the measured feed-time speedup — the
// rate-vs-accuracy-vs-cost trade the sampling tier is bought with. Rate
// 1.0 doubles as a live bit-identity check.
func ExtSampling(w io.Writer, cfg Config) ([]SamplingRow, []SamplingSummary, error) {
	names := cfg.apps()

	rows := make([]SamplingRow, len(names)*len(SamplingRates))
	err := runner.ForEach(context.Background(), cfg.Parallel, len(names), func(i int) error {
		pr := cfg.captureWarm(workload.MustByName(names[i]), platform.Options{Mode: cpu.Complex}, cfg.entries())

		// Ground truth and timing baseline: the same engine at full rate
		// (exact profiling) over the same corrected trace.
		full, err := sample.NewEngine(core.DefaultConfig(), sample.Config{}, len(pr.lines))
		if err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
		t0 := time.Now()
		for _, l := range pr.lines {
			full.Feed(l)
		}
		sim, err := full.Snapshot(pr.stats.Instructions)
		fullNs := float64(time.Since(t0).Nanoseconds())
		if err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
		top := sim.MRC.MPKI[0]
		// MPKI → miss-ratio conversion for this trace: misses/reference =
		// MPKI × instructions / (1000 × references).
		mrScale := float64(pr.stats.Instructions) / (1000 * float64(len(pr.lines)))

		for j, rate := range SamplingRates {
			eng, err := sample.NewEngine(core.DefaultConfig(), sample.Config{Rate: rate}, len(pr.lines))
			if err != nil {
				return fmt.Errorf("%s: rate %v: %w", names[i], rate, err)
			}
			t0 := time.Now()
			for _, l := range pr.lines {
				eng.Feed(l)
			}
			res, err := eng.Snapshot(pr.stats.Instructions)
			ns := float64(time.Since(t0).Nanoseconds())
			if err != nil {
				return fmt.Errorf("%s: rate %v: %w", names[i], rate, err)
			}
			b := eng.Bands()
			covered := 0
			for p := range sim.MRC.MPKI {
				if b.Low[p] <= sim.MRC.MPKI[p] && sim.MRC.MPKI[p] <= b.High[p] {
					covered++
				}
			}
			row := SamplingRow{
				App:       names[i],
				Rate:      rate,
				TopMPKI:   top,
				Err:       core.Distance(res.MRC, sim.MRC),
				Coverage:  float64(covered) / float64(len(sim.MRC.MPKI)),
				Width:     b.Width(),
				Sampled:   eng.Sampled(),
				NsPerRef:  ns / float64(len(pr.lines)),
				Speedup:   fullNs / ns,
				Identical: core.Distance(res.MRC, sim.MRC) == 0 && res.ModelCycles == sim.ModelCycles,
			}
			if top > 0 {
				row.RelErr = row.Err / top
			}
			row.MRScale = mrScale
			row.MRErr = row.Err * mrScale
			rows[i*len(SamplingRates)+j] = row
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	summaries := summarizeSampling(rows)

	fmt.Fprintf(w, "Extension: SHARDS spatial sampling (internal/sample) swept against the full Mattson simulation\n")
	fmt.Fprintf(w, "One probing period per app (%d entries), identical corrected trace through both engines.\n", cfg.entries())
	fmt.Fprintf(w, "MR-MAE = mean |sampled - full| miss ratio (misses per reference, the SHARDS accuracy\n")
	fmt.Fprintf(w, "metric and this sweep's <= 0.02 acceptance budget); RelErr = mean |sampled - full| MPKI /\n")
	fmt.Fprintf(w, "full 1-color MPKI (context only: it explodes on flat near-zero curves); Cover = fraction\n")
	fmt.Fprintf(w, "of points the confidence band brackets the full curve. Speedup = full feed time / sampled\n")
	fmt.Fprintf(w, "is a wall-clock ratio, so it goes to stderr and this report stays byte-stable.\n\n")

	sc := make([][]string, len(summaries))
	speed := make([][]string, len(summaries))
	for i, s := range summaries {
		sc[i] = []string{
			fmt.Sprintf("%.2f", s.Rate), fmt.Sprintf("%d", s.Apps),
			fmt.Sprintf("%.4f", s.MeanMRErr), fmt.Sprintf("%.4f", s.MaxMRErr),
			fmt.Sprintf("%.4f", s.MeanRelErr), fmt.Sprintf("%.4f", s.MaxRelErr),
			fmt.Sprintf("%.2f", s.MeanCover),
		}
		speed[i] = []string{fmt.Sprintf("%.2f", s.Rate), fmt.Sprintf("%.1fx", s.MeanSpeedup)}
	}
	fmt.Fprint(w, report.Table(
		[]string{"Rate", "Apps", "MeanMR-MAE", "MaxMR-MAE", "MeanRelErr", "MaxRelErr", "Cover"}, sc))
	fmt.Fprintf(os.Stderr, "ext-sampling mean speedup per rate:\n%s", report.Table([]string{"Rate", "Speedup"}, speed))

	// Per-app detail at the cheapest rate still inside the accuracy
	// budget (the rate the benchsuite and sampled mrcd tenants should use).
	if best := PickSamplingRate(summaries, 0.02); best > 0 {
		fmt.Fprintf(w, "\nPer-app detail at rate %.2f (cheapest with mean MR-MAE <= 0.02):\n", best)
		var cells, appSpeed [][]string
		for _, r := range rows {
			if r.Rate != best {
				continue
			}
			cells = append(cells, []string{
				r.App, report.F(r.TopMPKI), report.F(r.Err), fmt.Sprintf("%.4f", r.MRErr),
				fmt.Sprintf("%.2f", r.Coverage), report.F(r.Width),
				fmt.Sprintf("%d", r.Sampled),
			})
			appSpeed = append(appSpeed, []string{r.App, fmt.Sprintf("%.1fx", r.Speedup)})
		}
		fmt.Fprint(w, report.Table([]string{
			"App", "Top", "Err", "MR-MAE", "Cover", "Width", "Sampled"}, cells))
		fmt.Fprintf(os.Stderr, "ext-sampling per-app speedup at rate %.2f:\n%s", best,
			report.Table([]string{"App", "Speedup"}, appSpeed))
	}
	fmt.Fprintln(w)
	return rows, summaries, nil
}

// summarizeSampling folds per-(app, rate) rows into per-rate summaries,
// in SamplingRates order.
func summarizeSampling(rows []SamplingRow) []SamplingSummary {
	out := make([]SamplingSummary, 0, len(SamplingRates))
	for _, rate := range SamplingRates {
		s := SamplingSummary{Rate: rate}
		for _, r := range rows {
			if r.Rate != rate {
				continue
			}
			s.Apps++
			s.MeanRelErr += r.RelErr
			if r.RelErr > s.MaxRelErr {
				s.MaxRelErr = r.RelErr
			}
			s.MeanMRErr += r.MRErr
			if r.MRErr > s.MaxMRErr {
				s.MaxMRErr = r.MRErr
			}
			s.MeanCover += r.Coverage
			s.MeanSpeedup += r.Speedup
		}
		if s.Apps == 0 {
			continue
		}
		s.MeanRelErr /= float64(s.Apps)
		s.MeanMRErr /= float64(s.Apps)
		s.MeanCover /= float64(s.Apps)
		s.MeanSpeedup /= float64(s.Apps)
		out = append(out, s)
	}
	return out
}

// PickSamplingRate returns the lowest swept rate whose mean miss-ratio
// MAE stays within budget, or 0 when none qualifies. Miss-ratio units
// (not RelErr) are the budget scale because RelErr divides by the
// 1-color MPKI and so punishes flat near-zero curves for absolute
// deviations that are operationally irrelevant.
func PickSamplingRate(summaries []SamplingSummary, budget float64) float64 {
	best := 0.0
	for _, s := range summaries {
		if s.MeanMRErr <= budget && (best == 0 || s.Rate < best) {
			best = s.Rate
		}
	}
	return best
}
