package experiments

import (
	"fmt"
	"io"

	"rapidmrc/internal/cache"
	"rapidmrc/internal/core"
	"rapidmrc/internal/cpu"
	"rapidmrc/internal/platform"
	"rapidmrc/internal/report"
	"rapidmrc/internal/workload"
)

// fig4Result holds one improved-RapidMRC comparison.
type fig4Result struct {
	App      string
	Real     []float64
	Default  []float64 // standard capture, shifted
	Improved []float64 // longer log (swim) or simplified mode (art), shifted
}

// Figure4 reproduces the "improved RapidMRC" studies: swim with a 10×
// trace log and art captured in the simplified processor mode.
func Figure4(w io.Writer, cfg Config) ([]fig4Result, error) {
	shiftTo := func(res *core.Result, real []float64) []float64 {
		c := res.MRC.Clone()
		c.Transpose(7, real[7])
		return c.MPKI
	}
	cx := platform.Options{Mode: cpu.Complex}

	var out []fig4Result

	// swim: longer log.
	swim := workload.MustByName("swim")
	realSwim := platform.RealMRC(swim, cfg.realCfg(cpu.Complex))
	resShort, err := cfg.captureWarm(swim, cx, cfg.entries()).curve()
	if err != nil {
		return nil, err
	}
	resLong, err := cfg.captureWarm(swim, cx, cfg.longEntries()).curve()
	if err != nil {
		return nil, err
	}
	out = append(out, fig4Result{
		App:      "swim",
		Real:     realSwim,
		Default:  shiftTo(resShort, realSwim),
		Improved: shiftTo(resLong, realSwim),
	})

	// art: simplified capture mode (no prefetch, single issue, in order).
	art := workload.MustByName("art")
	realArt := platform.RealMRC(art, cfg.realCfg(cpu.Complex))
	resCx, err := cfg.captureWarm(art, cx, cfg.entries()).curve()
	if err != nil {
		return nil, err
	}
	resSimp, err := cfg.captureWarm(art, platform.Options{Mode: cpu.Simplified}, cfg.entries()).curve()
	if err != nil {
		return nil, err
	}
	out = append(out, fig4Result{
		App:      "art",
		Real:     realArt,
		Default:  shiftTo(resCx, realArt),
		Improved: shiftTo(resSimp, realArt),
	})

	fmt.Fprintf(w, "Figure 4: Improved RapidMRC (swim: %d-entry log; art: simplified capture mode)\n\n", cfg.longEntries())
	for _, r := range out {
		dDef := core.Distance(core.NewMRC(r.Default), core.NewMRC(r.Real))
		dImp := core.Distance(core.NewMRC(r.Improved), core.NewMRC(r.Real))
		fmt.Fprintf(w, "--- %s: distance %.2f (default) → %.2f (improved)\n", r.App, dDef, dImp)
		fmt.Fprint(w, report.Series("colors", colorAxis(),
			[]string{"Real", "Default", "Improved"},
			[][]float64{r.Real, r.Default, r.Improved}))
		fmt.Fprint(w, report.Plot(r.App, []string{"Real", "Default", "Improved"},
			[][]float64{r.Real, r.Default, r.Improved}, 48, 10))
		fmt.Fprintln(w)
	}
	return out, nil
}

// mcfTrace captures one mcf probing period for the sensitivity studies.
func mcfTrace(cfg Config, entries int) probe {
	return cfg.captureWarm(workload.MustByName("mcf"), platform.Options{Mode: cpu.Complex}, entries)
}

// Figure5a computes mcf's calculated MRC for increasing trace log sizes
// (warmup fixed at 50 % of each log).
func Figure5a(w io.Writer, cfg Config) (map[int][]float64, error) {
	sizes := []int{102_400, 163_840, 204_800, 409_600, 819_200, 1_638_400}
	if cfg.Quick {
		sizes = []int{12_000, 24_000, 48_000, 96_000}
	}
	big := mcfTrace(cfg, sizes[len(sizes)-1])

	out := make(map[int][]float64, len(sizes))
	names := make([]string, 0, len(sizes))
	series := make([][]float64, 0, len(sizes))
	ecfg := core.DefaultConfig()
	for _, n := range sizes {
		sub := big.lines[:n]
		instr := uint64(float64(big.stats.Instructions) * float64(n) / float64(len(big.lines)))
		c := ecfg
		c.FixedWarmupEntries = n / 2
		res, err := core.Compute(sub, instr, c)
		if err != nil {
			return nil, err
		}
		out[n] = res.MRC.MPKI
		names = append(names, fmt.Sprintf("%dk log", n/1000))
		series = append(series, res.MRC.MPKI)
	}
	fmt.Fprintf(w, "Figure 5a: impact of trace log size on mcf's calculated MRC (warmup = 50%% of log)\n\n")
	fmt.Fprint(w, report.Series("colors", colorAxis(), names, series))
	fmt.Fprint(w, report.Plot("mcf calculated MRC vs log size", names, series, 48, 10))
	return out, nil
}

// Figure5b computes mcf's calculated MRC for a sweep of warmup lengths.
func Figure5b(w io.Writer, cfg Config) (map[int][]float64, error) {
	warmups := []int{81_920, 40_960, 20_480, 10_240, 5_120, 1_280, 0}
	if cfg.Quick {
		warmups = []int{20_480, 10_240, 5_120, 1_280, 0}
	}
	p := mcfTrace(cfg, cfg.entries())

	out := make(map[int][]float64, len(warmups))
	names := make([]string, 0, len(warmups))
	series := make([][]float64, 0, len(warmups))
	for _, wu := range warmups {
		c := core.DefaultConfig()
		c.FixedWarmupEntries = wu
		res, err := core.Compute(p.lines, p.stats.Instructions, c)
		if err != nil {
			return nil, err
		}
		out[wu] = res.MRC.MPKI
		names = append(names, fmt.Sprintf("%d warmup", wu))
		series = append(series, res.MRC.MPKI)
	}
	fmt.Fprintf(w, "Figure 5b: impact of warmup length on mcf's calculated MRC (%d-entry log)\n\n", cfg.entries())
	fmt.Fprint(w, report.Series("colors", colorAxis(), names, series))
	fmt.Fprint(w, report.Plot("mcf calculated MRC vs warmup", names, series, 48, 10))
	return out, nil
}

// Figure5c emulates additional PMU event loss by decimating the trace log
// ("keep every Nth entry") and recomputing the MRC.
func Figure5c(w io.Writer, cfg Config) (map[int][]float64, error) {
	keeps := []int{1, 2, 4, 6, 8, 10}
	p := mcfTrace(cfg, cfg.longEntries()) // the paper uses the 1600k log here

	out := make(map[int][]float64, len(keeps))
	names := make([]string, 0, len(keeps))
	series := make([][]float64, 0, len(keeps))
	for _, k := range keeps {
		sub := core.Decimate(p.lines, k)
		res, err := core.Compute(sub, p.stats.Instructions, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		out[k] = res.MRC.MPKI
		if k == 1 {
			names = append(names, "Default")
		} else {
			names = append(names, fmt.Sprintf("Keep every %dth", k))
		}
		series = append(series, res.MRC.MPKI)
	}
	fmt.Fprintf(w, "Figure 5c: impact of missed events on mcf's calculated MRC\n")
	fmt.Fprintf(w, "(decimating the %d-entry log; instructions held constant)\n\n", cfg.longEntries())
	fmt.Fprint(w, report.Series("colors", colorAxis(), names, series))
	fmt.Fprint(w, report.Plot("mcf calculated MRC vs event loss", names, series, 48, 10))
	return out, nil
}

// Figure5d replays the mcf trace through set-associative caches of
// varying associativity and size (the Dinero experiment), showing that
// ≥10-way behaves like fully associative.
func Figure5d(w io.Writer, cfg Config) (map[int][]float64, error) {
	lines := mcfTrace(cfg, cfg.entries()).lines

	ways := []int{10, 32, 64, 0}
	sizesKB := make([]float64, 16)
	out := make(map[int][]float64, len(ways))
	names := []string{"10-way", "32-way", "64-way", "Fully Assoc."}
	warm := len(lines) / 5
	for wi, ww := range ways {
		rates := make([]float64, 16)
		for i := 0; i < 16; i++ {
			sizeBytes := int64(i+1) * 960 * 128
			sizesKB[i] = float64(sizeBytes) / 1024
			c := cache.Config{Name: "dinero", SizeBytes: sizeBytes, LineSize: 128, Ways: ww}
			rates[i] = cache.Replay(c, lines, warm).MissRate()
		}
		out[ww] = rates
		_ = wi
	}
	fmt.Fprintf(w, "Figure 5d: impact of set associativity (trace replay, x = cache size in kB)\n\n")
	fmt.Fprint(w, report.Series("kB", sizesKB, names,
		[][]float64{out[10], out[32], out[64], out[0]}))
	fmt.Fprint(w, report.Plot("mcf miss rate vs size by associativity", names,
		[][]float64{out[10], out[32], out[64], out[0]}, 48, 10))

	// Quantify: max gap between 10-way and fully associative.
	maxGap := 0.0
	for i := range out[10] {
		if g := out[10][i] - out[0][i]; g > maxGap {
			maxGap = g
		}
	}
	fmt.Fprintf(w, "\nmax miss-rate gap 10-way vs fully associative: %.4f\n", maxGap)
	return out, nil
}

// Figure5e measures mcf's real MRC under the three machine modes.
func Figure5e(w io.Writer, cfg Config) (map[string][]float64, error) {
	app := workload.MustByName("mcf")
	modes := []struct {
		name string
		mode cpu.Mode
	}{
		{"All enabled", cpu.Complex},
		{"No prefetch", cpu.NoPrefetch},
		{"No prefetch, single-issue, in-order", cpu.Simplified},
	}
	out := make(map[string][]float64, len(modes))
	names := make([]string, len(modes))
	series := make([][]float64, len(modes))
	for i, m := range modes {
		out[m.name] = platform.RealMRC(app, cfg.realCfg(m.mode))
		names[i] = m.name
		series[i] = out[m.name]
	}
	fmt.Fprintf(w, "Figure 5e: impact of machine mode on mcf's real MRC\n\n")
	fmt.Fprint(w, report.Series("colors", colorAxis(), names, series))
	fmt.Fprint(w, report.Plot("mcf real MRC by mode", names, series, 48, 10))
	return out, nil
}

// Figure6 captures traces in the three machine modes and compares the
// resulting calculated MRCs for mcf and equake.
func Figure6(w io.Writer, cfg Config) (map[string]map[string][]float64, error) {
	modes := []struct {
		name string
		mode cpu.Mode
	}{
		{"All enabled", cpu.Complex},
		{"No prefetch", cpu.NoPrefetch},
		{"No prefetch, single-issue, in-order", cpu.Simplified},
	}
	out := make(map[string]map[string][]float64, 2)
	fmt.Fprintf(w, "Figure 6: impact of machine mode on the calculated MRC\n\n")
	for _, appName := range []string{"mcf", "equake"} {
		app := workload.MustByName(appName)
		out[appName] = make(map[string][]float64, len(modes))
		names := make([]string, len(modes))
		series := make([][]float64, len(modes))
		for i, md := range modes {
			res, err := cfg.captureWarm(app, platform.Options{Mode: md.mode}, cfg.entries()).curve()
			if err != nil {
				return nil, err
			}
			out[appName][md.name] = res.MRC.MPKI
			names[i] = md.name
			series[i] = res.MRC.MPKI
		}
		fmt.Fprintf(w, "--- %s (calculated, untransposed)\n", appName)
		fmt.Fprint(w, report.Series("colors", colorAxis(), names, series))
		fmt.Fprint(w, report.Plot(appName+" calculated MRC by capture mode", names, series, 48, 10))
		fmt.Fprintln(w)
	}
	return out, nil
}
