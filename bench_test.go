package rapidmrc

// One benchmark per table and figure of the paper's evaluation, each
// regenerating that experiment's data via the drivers in
// internal/experiments (quick mode, so the whole suite is tractable under
// `go test -bench=.`). The cmd/experiments binary runs the same drivers
// at full fidelity and prints the reports.
//
// The trailing benchmarks are ablations: the capture/compute halves of
// the pipeline in isolation. The stack ablations (the production
// marker-tree stack against its oracles) are in internal/core.

import (
	"fmt"
	"io"
	"testing"

	"rapidmrc/internal/approx"
	"rapidmrc/internal/core"
	"rapidmrc/internal/cpu"
	"rapidmrc/internal/experiments"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/platform"
	"rapidmrc/internal/sample"
	"rapidmrc/internal/workload"
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

// --- Pipeline-stage benchmarks -----------------------------------------

// BenchmarkCaptureTrace measures the probing period alone: simulated
// execution with per-event PMU exceptions.
func BenchmarkCaptureTrace(b *testing.B) {
	m := platform.NewMachine(workload.New(workload.MustByName("twolf"), 1),
		platform.Options{Mode: cpu.Complex, L3Enabled: true, Seed: 1})
	m.RunInstructions(500_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CollectTrace(10_000)
	}
}

// BenchmarkComputeMRC measures the stack-simulation half on a realistic
// captured trace.
func BenchmarkComputeMRC(b *testing.B) {
	cap := benchCapture("twolf")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compute(cap.Lines, cap.Stats.Instructions, core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCapture captures and corrects one default-length probing period
// of app — the trace shape the service's tenants feed.
func benchCapture(app string) platform.Capture {
	m := platform.NewMachine(workload.New(workload.MustByName(app), 1),
		platform.Options{Mode: cpu.Complex, L3Enabled: true, Seed: 1})
	m.RunInstructions(500_000)
	cap := m.CollectTrace(160_000)
	core.CorrectPrefetchRepetitions(cap.Lines)
	return cap
}

// BenchmarkApproxSampler is the analytical tier's capture cost, the tap
// a tiered session adds to every reference: a fresh reuse-time sampler
// fed one corrected mcf probing period.
func BenchmarkApproxSampler(b *testing.B) {
	trace := benchCapture("mcf").Lines
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := approx.NewSampler(core.DefaultConfig(), len(trace))
		if err != nil {
			b.Fatal(err)
		}
		for _, l := range trace {
			s.Feed(l)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(trace)), "ns/ref")
}

// BenchmarkApproxAssess is the analytical tier's serving cost: one tier
// decision (both estimators over the live histogram, then the policy)
// on a sampler that has consumed a whole mcf probing period.
func BenchmarkApproxAssess(b *testing.B) {
	trace := benchCapture("mcf").Lines
	s, err := approx.NewSampler(core.DefaultConfig(), len(trace))
	if err != nil {
		b.Fatal(err)
	}
	for _, l := range trace {
		s.Feed(l)
	}
	pol := approx.NewPolicy(approx.PolicyConfig{Threshold: approx.DefaultThreshold})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e, _ := approx.Assess(pol, s, 4_000_000, false); e == nil {
			b.Fatal("no estimate past warmup")
		}
	}
}

// mcfBenchTraces caches corrected mcf probing periods by length for the
// stream-vs-batch benches (each captured once, shared), with
// the capture's instruction count for MPKI normalization.
var mcfBenchTraces = map[int]struct {
	lines []mem.Line
	instr uint64
}{}

func mcfTraceN(b *testing.B, n int) ([]mem.Line, uint64) {
	b.Helper()
	if c, ok := mcfBenchTraces[n]; ok {
		return c.lines, c.instr
	}
	m := platform.NewMachine(workload.New(workload.MustByName("mcf"), 1),
		platform.Options{Mode: cpu.Complex, L3Enabled: true, Seed: 1})
	m.RunInstructions(500_000)
	cap := m.CollectTrace(n)
	core.CorrectPrefetchRepetitions(cap.Lines)
	mcfBenchTraces[n] = struct {
		lines []mem.Line
		instr uint64
	}{cap.Lines, cap.Stats.Instructions}
	return cap.Lines, cap.Stats.Instructions
}

// BenchmarkStreamVsBatch compares the two halves of the equivalence the
// streaming tentpole pins: the batch core.Compute over a whole resident
// trace against the exact streaming engine (sample.Engine at full rate)
// fed one reference at a time, on the paper's 160 k mcf probing period
// and the Figure 4a-scale 1600 k one.
// Both arms consume the identical corrected trace; ns/ref is the metric
// the 1.5× acceptance bound reads, and allocs/op shows the stream's
// O(stack) footprint against batch's O(entries) input.
func BenchmarkStreamVsBatch(b *testing.B) {
	for _, n := range []int{160_000, 1_600_000} {
		trace, instr := mcfTraceN(b, n)
		name := fmt.Sprintf("%dk", n/1000)
		b.Run("batch/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Compute(trace, instr, core.DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(trace)), "ns/ref")
		})
		b.Run("stream/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e, err := sample.NewEngine(core.DefaultConfig(), sample.Config{}, len(trace))
				if err != nil {
					b.Fatal(err)
				}
				for _, l := range trace {
					e.Feed(l)
				}
				if _, err := e.Snapshot(instr); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(trace)), "ns/ref")
		})
	}
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

// BenchmarkMachineStep measures the raw simulated-execution rate in
// ns/ref: one machine, warm caches, the mcf reference stream.
func BenchmarkMachineStep(b *testing.B) {
	m := platform.NewMachine(workload.New(workload.MustByName("mcf"), 1),
		platform.Options{Mode: cpu.Complex, L3Enabled: true, Seed: 1})
	m.RunRefs(200_000)
	b.ResetTimer()
	m.RunRefs(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/ref")
}

// BenchmarkRealMRCSweep is the tentpole measurement: the full 16-partition
// real-MRC sweep of §5.2.1 on one application, per-machine (the legacy
// one-simulation-per-size strategy, regenerating the stream 16 times)
// against the shared-stream fan-out (one generator pass, leader L1, all
// machines replaying each chunk). Both arms run serially so the comparison
// is work, not parallelism; the acceptance bound is shared ≥ 2× faster.
func BenchmarkRealMRCSweep(b *testing.B) {
	app := workload.MustByName("mcf")
	for _, arm := range []struct {
		name  string
		sweep func(workload.Config, platform.RealMRCConfig) []float64
	}{{"perMachine", platform.RealMRCPerMachine}, {"shared", platform.RealMRC}} {
		b.Run(arm.name, func(b *testing.B) {
			cfg := platform.DefaultRealMRCConfig()
			cfg.Workers = 1
			for i := 0; i < b.N; i++ {
				if mrc := arm.sweep(app, cfg); len(mrc) != 16 {
					b.Fatalf("got %d-point curve", len(mrc))
				}
			}
		})
	}
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
