package experiments

import (
	"bytes"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"rapidmrc/internal/approx"
)

// testCfg keeps driver tests fast: quick mode, tiny app subsets.
func testCfg(apps ...string) Config {
	return Config{Seed: 1, Quick: true, Apps: apps}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"ext-dynamic", "ext-globalmrc", "ext-pmubuffer",
		"ext-replacement", "ext-tiers",
		"fig1", "fig2a", "fig2b", "fig2c", "fig3", "fig4",
		"fig5a", "fig5b", "fig5c", "fig5d", "fig5e", "fig6", "fig7",
		"table1", "table2"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries: %v", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	if err := Run("nonesuch", io.Discard, testCfg()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTable1(t *testing.T) {
	var b bytes.Buffer
	if err := Run("table1", &b, testCfg()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"POWER5", "1.5 GHz", "10-way"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("table1 missing %q", want)
		}
	}
}

func TestFigure1(t *testing.T) {
	var b bytes.Buffer
	mrc, err := Figure1(&b, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(mrc) != 16 {
		t.Fatalf("%d points", len(mrc))
	}
	// mcf's offline curve declines substantially (Figure 1 shows ~45→5).
	if mrc[0] < 3*mrc[15] {
		t.Errorf("mcf MRC not declining enough: %v", mrc)
	}
}

func TestFigure2aTimelineShowsPhases(t *testing.T) {
	var b bytes.Buffer
	tl, err := Figure2a(&b, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) != 16 {
		t.Fatalf("%d sizes", len(tl))
	}
	// The 1-color timeline must alternate: max > 1.5× min.
	lo, hi := tl[0][0], tl[0][0]
	for _, v := range tl[0] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi < 1.5*lo {
		t.Errorf("no phase contrast in mcf timeline: min %v max %v", lo, hi)
	}
}

func TestFigure2bPhaseMRCsDiffer(t *testing.T) {
	var b bytes.Buffer
	out, err := Figure2b(&b, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	a, bb := out["phaseA"], out["phaseB"]
	// Phase A (the heavy phase) must sit well above phase B at 1 color.
	if a[0] < 1.5*bb[0] {
		t.Errorf("phase MRCs too similar: A@1=%v B@1=%v", a[0], bb[0])
	}
	avg := out["average"]
	if avg[0] < bb[0] || avg[0] > a[0]*1.1 {
		t.Errorf("average MRC (%v) outside phase envelope [%v, %v]", avg[0], bb[0], a[0])
	}
}

func TestFigure2cBoundariesConsistentAcrossSizes(t *testing.T) {
	var b bytes.Buffer
	out, err := Figure2c(&b, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 16 {
		t.Fatalf("%d sizes", len(out))
	}
	// Most sizes should detect at least one boundary within the window.
	withBoundary := 0
	for _, bs := range out {
		if len(bs) > 0 {
			withBoundary++
		}
	}
	if withBoundary < 12 {
		t.Errorf("only %d/16 sizes detected any boundary", withBoundary)
	}
}

func TestFigure3SubsetAccuracy(t *testing.T) {
	var b bytes.Buffer
	evals, err := Figure3(&b, testCfg("crafty", "twolf", "libquantum"))
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 3 {
		t.Fatalf("%d evals", len(evals))
	}
	for _, ev := range evals {
		if len(ev.Real) != 16 || len(ev.CalcShifted) != 16 {
			t.Fatalf("%s: bad curve lengths", ev.Name)
		}
		if ev.Distance > 3 {
			t.Errorf("%s: distance %.2f too large", ev.Name, ev.Distance)
		}
	}
	// libquantum's stream must show the large negative shift.
	for _, ev := range evals {
		if ev.Name == "libquantum" && ev.Shift > -5 {
			t.Errorf("libquantum shift = %v, want strongly negative", ev.Shift)
		}
	}
}

func TestFigure4Improvements(t *testing.T) {
	var b bytes.Buffer
	out, err := Figure4(&b, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].App != "swim" || out[1].App != "art" {
		t.Fatalf("unexpected fig4 apps: %+v", out)
	}
	for _, r := range out {
		if len(r.Real) != 16 || len(r.Default) != 16 || len(r.Improved) != 16 {
			t.Fatalf("%s: bad lengths", r.App)
		}
	}
}

func TestFigure5aLogSizes(t *testing.T) {
	var b bytes.Buffer
	out, err := Figure5a(&b, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) < 3 {
		t.Fatalf("only %d log sizes", len(out))
	}
	for n, mrc := range out {
		if len(mrc) != 16 {
			t.Fatalf("log %d: %d points", n, len(mrc))
		}
	}
}

func TestFigure5bWarmupMonotoneCold(t *testing.T) {
	var b bytes.Buffer
	out, err := Figure5b(&b, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Zero warmup inflates the curve with cold misses: its 16-color
	// point must be at or above the longest warmup's.
	longest := -1
	for wu := range out {
		if wu > longest {
			longest = wu
		}
	}
	if out[0][15] < out[longest][15]-1e-9 {
		t.Errorf("no-warmup curve (%v) below warmed curve (%v) at 16 colors",
			out[0][15], out[longest][15])
	}
}

func TestFigure5cDecimationShiftsDown(t *testing.T) {
	var b bytes.Buffer
	out, err := Figure5c(&b, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Dropping events lowers the curve (§5.2.5): keep-every-10th sits
	// below the default at every point.
	d1, d10 := out[1], out[10]
	for i := range d1 {
		if d10[i] > d1[i]+1e-9 {
			t.Fatalf("decimated curve above default at point %d: %v vs %v", i, d10[i], d1[i])
		}
	}
	if d10[0] > 0.7*d1[0] {
		t.Errorf("keeping 10%% of events should lose most misses: %v vs %v", d10[0], d1[0])
	}
}

func TestFigure5dAssociativity(t *testing.T) {
	var b bytes.Buffer
	out, err := Figure5d(&b, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// 10-way must track fully associative closely (the paper's point).
	for i := range out[10] {
		gap := out[10][i] - out[0][i]
		if gap < 0 {
			gap = -gap
		}
		if gap > 0.08 {
			t.Errorf("10-way vs fully associative gap %.3f at size %d", gap, i+1)
		}
	}
}

func TestFigure5eModeImpact(t *testing.T) {
	var b bytes.Buffer
	out, err := Figure5e(&b, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	all := out["All enabled"]
	nopf := out["No prefetch"]
	simp := out["No prefetch, single-issue, in-order"]
	if len(all) != 16 || len(nopf) != 16 || len(simp) != 16 {
		t.Fatal("bad curve lengths")
	}
	// Disabling prefetch raises the real curve on average (§5.2.7).
	sum := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s
	}
	if sum(nopf) < sum(all) {
		t.Errorf("no-prefetch real MRC (%v) below complex (%v)", sum(nopf)/16, sum(all)/16)
	}
}

func TestFigure6ModesProduceCurves(t *testing.T) {
	var b bytes.Buffer
	out, err := Figure6(&b, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []string{"mcf", "equake"} {
		if len(out[app]) != 3 {
			t.Fatalf("%s: %d modes", app, len(out[app]))
		}
	}
}

func TestFigure7ChoicesAndGains(t *testing.T) {
	var b bytes.Buffer
	out, err := Figure7(&b, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("%d workloads", len(out))
	}
	for _, r := range out {
		if r.RealChoice < 1 || r.RealChoice > 15 || r.RapidChoice < 1 || r.RapidChoice > 15 {
			t.Errorf("%s: choices %d/%d out of range", r.Workload.A, r.RealChoice, r.RapidChoice)
		}
		if len(r.NormA) != 15 || len(r.NormB) != 15 {
			t.Errorf("%s: spectrum lengths %d/%d", r.Workload.A, len(r.NormA), len(r.NormB))
		}
	}
	// twolf:equake is the headline: the victim must gain with a large
	// partition even in quick mode.
	if out[0].GainRapid < 1 {
		t.Errorf("twolf gain %.1f%%, want clearly positive", out[0].GainRapid)
	}
}

func TestTable2Renders(t *testing.T) {
	var b bytes.Buffer
	evals, err := Table2(&b, testCfg("crafty", "gzip"))
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 2 {
		t.Fatalf("%d rows", len(evals))
	}
	for _, want := range []string{"Workload", "crafty", "gzip", "Average", "VShift"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("table2 missing %q", want)
		}
	}
}

func TestExtPMUBuffer(t *testing.T) {
	var b bytes.Buffer
	pts, err := ExtPMUBuffer(&b, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 3 {
		t.Fatalf("%d buffer depths", len(pts))
	}
	classic, deepest := pts[0], pts[len(pts)-1]
	if classic.Depth != 1 {
		t.Fatalf("first point depth %d", classic.Depth)
	}
	if deepest.CaptureCycles >= classic.CaptureCycles {
		t.Errorf("buffered capture (%d) not cheaper than classic (%d)",
			deepest.CaptureCycles, classic.CaptureCycles)
	}
	if deepest.SlowdownPct <= classic.SlowdownPct {
		t.Errorf("buffered IPC retention (%v%%) not above classic (%v%%)",
			deepest.SlowdownPct, classic.SlowdownPct)
	}
	if deepest.Dropped != 0 || deepest.Stale != 0 {
		t.Error("buffered capture still lossy")
	}
	if deepest.Distance > classic.Distance {
		t.Errorf("buffered accuracy (%v) worse than classic (%v)",
			deepest.Distance, classic.Distance)
	}
}

func TestExtDynamic(t *testing.T) {
	var b bytes.Buffer
	res, err := ExtDynamic(&b, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Recomputations == 0 {
		t.Error("controller never profiled")
	}
	if res.Stats.Repartitions == 0 {
		t.Error("controller never repartitioned")
	}
	// The phased app must not lose to the static split, and the partner
	// must not be sacrificed.
	if res.DynamicIPC[0] < 0.97*res.StaticIPC[0] {
		t.Errorf("phased app regressed: %v vs %v", res.DynamicIPC[0], res.StaticIPC[0])
	}
	if res.DynamicIPC[1] < 0.9*res.StaticIPC[1] {
		t.Errorf("partner sacrificed: %v vs %v", res.DynamicIPC[1], res.StaticIPC[1])
	}
}

func TestExtGlobalMRC(t *testing.T) {
	var b bytes.Buffer
	all, err := ExtGlobalMRC(&b, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("%d pairs", len(all))
	}
	for _, rows := range all {
		for _, r := range rows {
			// Sharing can only hurt: predicted and measured must be at
			// or above the solo full-cache point (within noise).
			if r.PredictedMPKI < r.SoloMPKI-0.5 {
				t.Errorf("%s: prediction %v below solo %v", r.App, r.PredictedMPKI, r.SoloMPKI)
			}
			// Prediction within a factor-of-2 band of measurement for
			// any app with a meaningful miss rate.
			if r.MeasuredMPKI > 1 {
				ratio := r.PredictedMPKI / r.MeasuredMPKI
				if ratio < 0.4 || ratio > 2.5 {
					t.Errorf("%s: predicted %v vs measured %v (ratio %v)",
						r.App, r.PredictedMPKI, r.MeasuredMPKI, ratio)
				}
			}
		}
	}
}

func TestExtReplacement(t *testing.T) {
	var b bytes.Buffer
	out, err := ExtReplacement(&b, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("%d policies", len(out))
	}
	byPolicy := map[string]ReplacementResult{}
	for _, r := range out {
		byPolicy[r.Policy.String()] = r
	}
	// LRU replay must track the stack model far better than MRU.
	if byPolicy["LRU"].MeanAbsGap >= byPolicy["MRU"].MeanAbsGap {
		t.Errorf("LRU gap (%v) not below MRU gap (%v)",
			byPolicy["LRU"].MeanAbsGap, byPolicy["MRU"].MeanAbsGap)
	}
	// And better than FIFO, which ignores reuse.
	if byPolicy["LRU"].MeanAbsGap > byPolicy["FIFO"].MeanAbsGap {
		t.Errorf("LRU gap (%v) above FIFO gap (%v)",
			byPolicy["LRU"].MeanAbsGap, byPolicy["FIFO"].MeanAbsGap)
	}
}

// tiersRun is the one quick ext-tiers run over the full 30-workload zoo
// that TestApproxCrossValidation, TestSamplingSweepSmoke and TestExtTiers
// all check; the capture and every tier run once per test binary.
var tiersRun struct {
	once   sync.Once
	apps   []TierApp
	rows   []TierRow
	report string
	err    error
}

func quickTiers(t *testing.T) ([]TierApp, []TierRow, string) {
	t.Helper()
	tiersRun.once.Do(func() {
		var b bytes.Buffer
		tiersRun.apps, tiersRun.rows, tiersRun.err = ExtTiers(&b, Config{Seed: 1, Quick: true})
		tiersRun.report = b.String()
	})
	if tiersRun.err != nil {
		t.Fatal(tiersRun.err)
	}
	if len(tiersRun.apps) != 30 {
		t.Fatalf("compared %d apps, want the full zoo", len(tiersRun.apps))
	}
	if len(tiersRun.rows) != pathSampled+len(SamplingRates) {
		t.Fatalf("%d rows, want %d", len(tiersRun.rows), pathSampled+len(SamplingRates))
	}
	return tiersRun.apps, tiersRun.rows, tiersRun.report
}

func checkReport(t *testing.T, report string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(report, w) {
			t.Errorf("report missing %q", w)
		}
	}
}

// TestApproxCrossValidation is the acceptance smoke for the analytical
// tier in ext-tiers: both estimators over the full zoo, error broken down
// by curve-shape class. The bounds are generous versus the measured
// numbers (mean relative error <= 0.003 per class at seed 1) so only a
// genuine model regression trips them, and the policy's uncertainty
// score must separate the classes.
func TestApproxCrossValidation(t *testing.T) {
	apps, _, report := quickTiers(t)
	seen := make(map[string]shapeMean)
	for _, s := range shapeMeans(apps) {
		seen[s.shape.String()] = s
	}
	for _, tc := range []struct {
		shape string
		bound float64
	}{
		// Knee curves are the fluid approximation's hard case; the policy
		// escalates most of them, but even the kept estimates stay close.
		{"flat", 0.05},
		{"steep", 0.05},
		{"knee", 0.10},
	} {
		s, ok := seen[tc.shape]
		if !ok {
			t.Errorf("no %s-shaped curves in the zoo", tc.shape)
			continue
		}
		if s.relChe > tc.bound || s.relFA > tc.bound {
			t.Errorf("%s: mean relative error che %.3f / fullassoc %.3f beyond %.2f",
				tc.shape, s.relChe, s.relFA, tc.bound)
		}
	}
	// Cliff-dominated (knee) curves escalate at the default threshold,
	// smooth flat ones serve analytically.
	var escalated int
	for _, a := range apps {
		esc := a.Decision.Tier == approx.TierSimulated
		if a.Shape == approx.ShapeFlat && esc {
			t.Errorf("%s: flat curve escalated (uncertainty %.3f)", a.App, a.Decision.Uncertainty)
		}
		if esc {
			escalated++
		}
	}
	if escalated == 0 {
		t.Error("no app escalated: the uncertainty score is not discriminating")
	}
	checkReport(t, report, "By curve-shape class", "MeanRelChe", "Escalated")
}

// TestSamplingSweepSmoke is the acceptance smoke for the sampled tier in
// ext-tiers: rate 1.0 has zero error, and some cheaper rate stays within
// the 0.02 miss-ratio MAE budget while actually being cheaper to feed.
func TestSamplingSweepSmoke(t *testing.T) {
	apps, rows, report := quickTiers(t)
	for _, a := range apps {
		if a.MRScale <= 0 {
			t.Errorf("%s: MRScale %v not positive", a.App, a.MRScale)
		}
		for k, r := range rows {
			if r.Name != "sampled" || r.Rate != 1.0 {
				continue
			}
			if c := a.Curves[k]; c.Err != 0 || c.Err*a.MRScale != 0 {
				t.Errorf("%s: rate 1.0 err %v, want exactly 0", a.App, c.Err)
			}
		}
	}
	best := pickSamplingRate(rows, 0.02)
	if best == 0 {
		t.Fatal("no swept rate within the 0.02 miss-ratio budget")
	}
	if best >= 1.0 {
		t.Fatalf("only the unsampled rate met the budget (best %v)", best)
	}
	for _, r := range rows {
		if r.Name != "sampled" || r.Rate != best {
			continue
		}
		if r.MeanMRErr > 0.02 {
			t.Errorf("picked rate %v mean MR-MAE %v beyond budget", best, r.MeanMRErr)
		}
		if r.Speedup <= 1 {
			t.Errorf("picked rate %v mean speedup %vx, want > 1", best, r.Speedup)
		}
	}
	checkReport(t, report, "MR-MAE", "Speedup", "Per-app detail")
}

// TestExtTiers checks what ext-tiers adds to the two tier smokes above:
// the sampled engine at rate 1.0 must be bit-identical to core.Compute,
// the exact path and rate 1.0 must choose every pair's exact partition,
// and no regret may be negative.
func TestExtTiers(t *testing.T) {
	apps, rows, report := quickTiers(t)
	for _, a := range apps {
		exact := a.Curves[pathExact]
		for k, r := range rows {
			if r.Name != "sampled" || r.Rate != 1.0 {
				continue
			}
			c := a.Curves[k]
			if c.ModelCycles != exact.ModelCycles {
				t.Errorf("%s: rate 1.0 ModelCycles %d, core.Compute %d", a.App, c.ModelCycles, exact.ModelCycles)
			}
			for i, v := range exact.MRC.MPKI {
				if math.Float64bits(c.MRC.MPKI[i]) != math.Float64bits(v) {
					t.Errorf("%s: rate 1.0 point %d = %v, core.Compute %v", a.App, i, c.MRC.MPKI[i], v)
				}
			}
		}
	}
	for _, r := range rows {
		if r.Pairs != 30*29/2 {
			t.Errorf("%s %v: %d pairs, want 435", r.Name, r.Rate, r.Pairs)
		}
		if r.MeanRegret < 0 || r.MaxRegret < 0 {
			t.Errorf("%s %v: negative regret (mean %v, max %v)", r.Name, r.Rate, r.MeanRegret, r.MaxRegret)
		}
		if (r.Name == "exact" || r.Name == "sampled" && r.Rate == 1.0) &&
			(r.MeanRegret != 0 || r.MaxRegret != 0 || r.Changed != 0 || r.MeanMRErr != 0 || r.MaxMRErr != 0) {
			t.Errorf("%s %v: regret %v/%v, %d splits changed, MR-MAE %v/%v; want all 0",
				r.Name, r.Rate, r.MeanRegret, r.MaxRegret, r.Changed, r.MeanMRErr, r.MaxMRErr)
		}
	}
	checkReport(t, report, "MeanRegret", "Changed")
}

func TestRunAllQuickSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("full driver sweep in -short mode")
	}
	cfg := testCfg("crafty", "mcf", "twolf", "equake", "vpr", "applu", "ammp", "art", "swim", "libquantum")
	if err := RunAll(io.Discard, cfg); err != nil {
		t.Fatal(err)
	}
}
