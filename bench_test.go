package rapidmrc

// One benchmark per table and figure of the paper's evaluation, each
// regenerating that experiment's data via the drivers in
// internal/experiments (quick mode, so the whole suite is tractable under
// `go test -bench=.`). The cmd/experiments binary runs the same drivers
// at full fidelity and prints the reports.
//
// The pipeline's layers (capture, stack, engines, machine stepping, the
// real-MRC sweep) are rows of internal/benchsuite; the stack ablation
// against its test oracles is in internal/core.

import (
	"io"
	"testing"

	"rapidmrc/internal/experiments"
)

// benchCfg is the configuration every experiment bench runs with.
func benchCfg(apps ...string) experiments.Config {
	return experiments.Config{Seed: 1, Quick: true, Apps: apps}
}

// runExperiment runs one registered experiment b.N times.
func runExperiment(b *testing.B, id string, cfg experiments.Config) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B)  { runExperiment(b, "table1", benchCfg()) }
func BenchmarkFigure1(b *testing.B) { runExperiment(b, "fig1", benchCfg()) }
func BenchmarkFigure2a(b *testing.B) {
	runExperiment(b, "fig2a", benchCfg())
}
func BenchmarkFigure2b(b *testing.B) {
	runExperiment(b, "fig2b", benchCfg())
}
func BenchmarkFigure2c(b *testing.B) {
	runExperiment(b, "fig2c", benchCfg())
}

// BenchmarkFigure3 regenerates the accuracy comparison for a
// representative application subset: the showcase (mcf), a well-behaved
// app (twolf), a stream (libquantum), and a problematic one (swim).
func BenchmarkFigure3(b *testing.B) {
	runExperiment(b, "fig3", benchCfg("mcf", "twolf", "libquantum", "swim"))
}

func BenchmarkFigure4(b *testing.B)  { runExperiment(b, "fig4", benchCfg()) }
func BenchmarkFigure5a(b *testing.B) { runExperiment(b, "fig5a", benchCfg()) }
func BenchmarkFigure5b(b *testing.B) { runExperiment(b, "fig5b", benchCfg()) }
func BenchmarkFigure5c(b *testing.B) { runExperiment(b, "fig5c", benchCfg()) }
func BenchmarkFigure5d(b *testing.B) { runExperiment(b, "fig5d", benchCfg()) }
func BenchmarkFigure5e(b *testing.B) { runExperiment(b, "fig5e", benchCfg()) }
func BenchmarkFigure6(b *testing.B)  { runExperiment(b, "fig6", benchCfg()) }
func BenchmarkFigure7(b *testing.B)  { runExperiment(b, "fig7", benchCfg()) }

// BenchmarkTable2 regenerates the statistics table for the same subset as
// BenchmarkFigure3.
func BenchmarkTable2(b *testing.B) {
	runExperiment(b, "table2", benchCfg("mcf", "twolf", "libquantum", "swim"))
}

// Extension experiments: the §6 future-PMU ablation, the §5.3 dynamic
// repartitioning controller, and use case (iv) global-MRC prediction.
func BenchmarkExtPMUBuffer(b *testing.B) { runExperiment(b, "ext-pmubuffer", benchCfg()) }
func BenchmarkExtDynamic(b *testing.B)   { runExperiment(b, "ext-dynamic", benchCfg()) }
func BenchmarkExtGlobalMRC(b *testing.B) { runExperiment(b, "ext-globalmrc", benchCfg()) }
func BenchmarkExtReplacement(b *testing.B) {
	runExperiment(b, "ext-replacement", benchCfg())
}

// BenchmarkFig3SweepSerial/Pooled quantify the bounded worker-pool
// runner on the Figure 3 multi-application sweep (same four-app subset
// as BenchmarkFigure3): identical work, pool of 1 vs one worker per CPU.
func BenchmarkFig3SweepSerial(b *testing.B) {
	cfg := benchCfg("mcf", "twolf", "libquantum", "swim")
	cfg.Parallel = 1
	runExperiment(b, "fig3", cfg)
}

func BenchmarkFig3SweepPooled(b *testing.B) {
	cfg := benchCfg("mcf", "twolf", "libquantum", "swim")
	cfg.Parallel = 0 // one worker per CPU
	runExperiment(b, "fig3", cfg)
}

// BenchmarkOnlineEndToEnd is the user-facing workflow: warmup, capture,
// compute, transpose.
func BenchmarkOnlineEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, _, err := Online("gzip", WithSeed(1), WithTraceEntries(20_000)); err != nil {
			b.Fatal(err)
		}
	}
}
