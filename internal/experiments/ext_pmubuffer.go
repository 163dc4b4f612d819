package experiments

import (
	"fmt"
	"io"

	"rapidmrc/internal/core"
	"rapidmrc/internal/cpu"
	"rapidmrc/internal/platform"
	"rapidmrc/internal/report"
	"rapidmrc/internal/workload"
)

// BufferPoint is one row of the future-PMU study.
type BufferPoint struct {
	Depth int
	// CaptureCycles is the probing-period cost.
	CaptureCycles uint64
	// SlowdownPct is the application's IPC during capture as a
	// percentage of its untraced IPC (the paper measures 24 % on
	// average for the depth-1 hardware).
	SlowdownPct float64
	// Dropped and Stale are the artifact counts.
	Dropped, Stale int
	// Distance is the v-offset-matched distance to the real MRC.
	Distance float64
}

// ExtPMUBuffer evaluates the trace-buffer hardware the paper wishes for
// in §6: the overflow exception amortizes over the buffer depth and the
// buffer records every access faithfully. The paper predicts this would
// "greatly reduce monitoring overhead" and produce "more accurate MRCs";
// this experiment quantifies both on the simulated platform.
func ExtPMUBuffer(w io.Writer, cfg Config) ([]BufferPoint, error) {
	const app = "mcf"
	depths := []int{1, 16, 64, 256, 1024}
	warm := cfg.warmSkip()

	appCfg := workload.MustByName(app)
	real := core.NewMRC(platform.RealMRC(appCfg, cfg.realCfg(cpu.Complex)))

	// Untraced baseline IPC over a comparable window.
	base := platform.NewMachine(workload.New(appCfg, cfg.Seed), platform.Options{
		Mode: cpu.Complex, L3Enabled: true, Seed: cfg.Seed,
	})
	base.RunInstructions(warm)
	base.ResetMetrics()
	base.RunInstructions(warm / 2)
	baseIPC := base.Metrics().IPC()

	out := make([]BufferPoint, 0, len(depths))
	rows := make([][]string, 0, len(depths))
	for _, d := range depths {
		p := cfg.captureWarm(appCfg, platform.Options{Mode: cpu.Complex, TraceBuffer: d}, cfg.entries())
		res, err := p.curve()
		if err != nil {
			return nil, err
		}
		shifted := res.MRC.Clone()
		shifted.Transpose(7, real.At(8))

		ipcDuring := float64(p.stats.Instructions) / float64(p.stats.Cycles)
		pt := BufferPoint{
			Depth:         d,
			CaptureCycles: p.stats.Cycles,
			SlowdownPct:   100 * ipcDuring / baseIPC,
			Dropped:       p.stats.Dropped,
			Stale:         p.stats.Stale,
			Distance:      core.Distance(shifted, real),
		}
		out = append(out, pt)
		rows = append(rows, []string{
			fmt.Sprintf("%d", d),
			fmt.Sprintf("%d", pt.CaptureCycles/1e6),
			fmt.Sprintf("%.0f%%", pt.SlowdownPct),
			fmt.Sprintf("%d", pt.Dropped),
			fmt.Sprintf("%d", pt.Stale),
			fmt.Sprintf("%.2f", pt.Distance),
		})
	}

	fmt.Fprintf(w, "Extension: PMU trace buffer (§6 wish list) on %s, %d-entry log\n", app, cfg.entries())
	fmt.Fprintf(w, "Depth 1 = real POWER5 (exception per event, lossy sampling)\n\n")
	fmt.Fprint(w, report.Table(
		[]string{"Depth", "Capture(Mcyc)", "IPC vs untraced", "Dropped", "Stale", "Distance"},
		rows))
	return out, nil
}
