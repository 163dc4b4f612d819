// Package benchsuite defines the simulator's microbenchmark rows, the
// data behind BENCH_simulator.json. Each row is one func(*testing.B)
// over a fixed input; one op is one pass over that input, and the row
// reports its cost through b.ReportMetric in ns/ref or ms/op.
//
// `go run ./cmd/benchjson` runs every row through testing.Benchmark and
// writes each entry's median and quartiles over its runs;
// `go test -bench BenchmarkSuite ./internal/benchsuite/` runs the same
// functions under go test.
package benchsuite

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"rapidmrc/internal/approx"
	"rapidmrc/internal/core"
	"rapidmrc/internal/cpu"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/platform"
	"rapidmrc/internal/pmu"
	"rapidmrc/internal/sample"
	"rapidmrc/internal/workload"
)

// Row is one benchmark of the suite.
type Row struct {
	// Name identifies the row: its JSON entry and its go test
	// sub-benchmark.
	Name string
	// Unit is what the row's entries measure: "ns/ref" or "ms/op".
	Unit string
	// Halves, when set, names the entries of a split row in place of
	// Name: one loop times the two halves of a path apart.
	Halves []string
	// Bench runs the row.
	Bench func(*testing.B)
}

// Entry is one metric a row reports.
type Entry struct {
	// Name and Unit identify the JSON entry.
	Name, Unit string
	// Key is the unit b.ReportMetric carries the value under.
	Key string
}

// Entries returns the metrics r reports, in order: its own under the
// bare unit, or each half's under "half-unit".
func (r Row) Entries() []Entry {
	if len(r.Halves) == 0 {
		return []Entry{{r.Name, r.Unit, r.Unit}}
	}
	out := make([]Entry, len(r.Halves))
	for i, h := range r.Halves {
		out[i] = Entry{h, r.Unit, h + "-" + r.Unit}
	}
	return out
}

// perRef makes a row reporting ns/ref: f runs b.N ops and returns the
// refs one op drives.
func perRef(name string, f func(*testing.B) int) Row {
	return Row{Name: name, Unit: "ns/ref", Bench: func(b *testing.B) {
		refs := f(b)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(refs), "ns/ref")
	}}
}

// perOp makes a row reporting ms/op: f runs b.N ops.
func perOp(name string, f func(*testing.B)) Row {
	return Row{Name: name, Unit: "ms/op", Bench: func(b *testing.B) {
		f(b)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
	}}
}

// split makes a row that times a path's two halves apart, in ns/ref: f
// runs b.N ops and returns each half's total time and the refs driven.
func split(name, first, second string, f func(*testing.B) (time.Duration, time.Duration, int)) Row {
	r := Row{Name: name, Unit: "ns/ref", Halves: []string{first, second}}
	r.Bench = func(b *testing.B) {
		d1, d2, refs := f(b)
		e := r.Entries()
		b.ReportMetric(float64(d1.Nanoseconds())/float64(refs), e[0].Key)
		b.ReportMetric(float64(d2.Nanoseconds())/float64(refs), e[1].Key)
	}
	return r
}

// Rows is the suite, in report order.
var Rows = []Row{
	// Stack simulation: the production marker-tree stack at the paper's
	// 15,360-line geometry over the mixed-locality trace, with the walk
	// model, then without it, as mrcd tenants run it.
	perRef("stack_marker", stackRow(func() *core.MarkerStack {
		return core.NewStack(15360, core.DefaultGroupSize)
	})),
	perRef("stack_marker_unpriced", stackRow(func() *core.MarkerStack {
		return core.NewUnpricedStack(15360)
	})),

	// The same trace through the batch core.Compute and through the
	// streaming engine at full rate (exact profiling), snapshot included:
	// the two sides of the stream ≡ batch equivalence. The sampled rows
	// put it through the SHARDS filter at the rates ext-sampling
	// validates; the ratio to stream_engine is the per-reference cost the
	// sampling tier saves.
	perRef("compute_batch", computeBatch),
	perRef("stream_engine", engineRow(0)),
	perRef("sampled_engine_r0.1", engineRow(0.1)),
	perRef("sampled_engine_r0.01", engineRow(0.01)),

	// Analytical tier: the reuse-time sampler over the same trace (the
	// O(1)-per-reference profiling cost), each estimator's per-curve cost
	// from the finished profile, and the tier decision Session.Serve
	// makes before it answers analytically or simulates. A simulated
	// curve costs stream_engine's ns/ref × refs; an estimator reads only
	// the bucketed histogram.
	perRef("approx_profile", approxProfile),
	perOp("approx_che", estimateRow(approx.CheFagin{})),
	perOp("approx_fullassoc", estimateRow(approx.FullyAssociative{})),
	perOp("approx_assess", approxAssess),

	// The PMU capture layer: one 160k-entry mcf probing period appended
	// to a fresh log, the paper's log time.
	perOp("capture_trace", captureTrace),

	// Machine stepping: the full POWER5 model (complex core, prefetcher,
	// L2+L3, PMU) on the mcf reference stream, warm caches. machine_step
	// runs the machine on its own generator, which a producer goroutine
	// reads ahead while the machine steps; step_halves times the two
	// halves apart, serially, on the same stream. On two or more CPUs
	// machine_step is about the larger of the two, on one CPU about their
	// sum.
	perRef("machine_step", machineStep),
	split("step_halves", "workload_gen", "machine_step_refs", stepHalves),

	// The shared sweep's halves on the same stream: sweep_leader
	// generates each chunk, runs the leader L1 over it and compacts it to
	// L2-bound events; sweep_machine_events is one machine stepping those
	// events. A serial 16-partition sweep costs about one leader plus 16
	// machines per ref; pooled, the leader builds the next chunk beside
	// the machines.
	split("sweep_halves", "sweep_leader", "sweep_machine_events", sweepHalves),

	// The 16-partition real-MRC sweep, both strategies, serial workers.
	perOp("realmrc_sweep_permachine", sweepRow(platform.RealMRCPerMachine)),
	perOp("realmrc_sweep_shared", sweepRow(platform.RealMRC)),
}

// stepRefs is the mcf stream one machine-stepping op drives.
const stepRefs = 2_000_000

// mcfOpts is the machine every mcf row runs.
var mcfOpts = platform.Options{Mode: cpu.Complex, L3Enabled: true, Seed: 1}

// mixed is the mixed-locality trace the stack, engine and analytical
// rows replay: a hot set, a warm set and a cold streaming tail.
var mixed = sync.OnceValue(func() []mem.Line {
	r := rand.New(rand.NewSource(5))
	trace := make([]mem.Line, mixedRefs)
	for i := range trace {
		switch r.Intn(4) {
		case 0:
			trace[i] = mem.Line(r.Intn(1000))
		case 1, 2:
			trace[i] = mem.Line(2000 + r.Intn(12000))
		default:
			trace[i] = mem.Line(1_000_000 + i)
		}
	}
	return trace
})

// mixedRefs is the mixed trace's length, and mixedInstr the instruction
// count it is normalized by.
const (
	mixedRefs  = 400_000
	mixedInstr = 3 * mixedRefs
)

func stackRow(newStack func() *core.MarkerStack) func(*testing.B) int {
	return func(b *testing.B) int {
		trace := mixed()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st := newStack()
			for _, l := range trace {
				st.Reference(l)
			}
		}
		return len(trace)
	}
}

func computeBatch(b *testing.B) int {
	trace := mixed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compute(trace, mixedInstr, core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
	return len(trace)
}

func engineRow(rate float64) func(*testing.B) int {
	return func(b *testing.B) int {
		trace := mixed()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, err := sample.NewEngine(core.DefaultConfig(), sample.Config{Rate: rate}, len(trace))
			if err != nil {
				b.Fatal(err)
			}
			for _, l := range trace {
				e.Feed(l)
			}
			if _, err := e.Snapshot(mixedInstr); err != nil {
				b.Fatal(err)
			}
		}
		return len(trace)
	}
}

func approxProfile(b *testing.B) int {
	trace := mixed()
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
	return len(trace)
}

func estimateRow(est approx.Estimator) func(*testing.B) {
	return func(b *testing.B) {
		prof, err := approx.ProfileTrace(mixed(), core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := est.Estimate(prof, mixedInstr); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func approxAssess(b *testing.B) {
	trace := mixed()
	s, err := approx.NewSampler(core.DefaultConfig(), len(trace))
	if err != nil {
		b.Fatal(err)
	}
	for _, l := range trace {
		s.Feed(l)
	}
	pol := approx.NewPolicy(approx.PolicyConfig{Threshold: approx.DefaultThreshold})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e, _ := approx.Assess(pol, s, mixedInstr, false); e == nil {
			b.Fatal(approx.ErrNoSamples)
		}
	}
}

func captureTrace(b *testing.B) {
	m := platform.NewMachine(workload.New(workload.MustByName("mcf"), 1), mcfOpts)
	m.RunInstructions(500_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lines := make([]mem.Line, 0, 160_000)
		m.CollectTrace(160_000, pmu.SinkFunc(func(l mem.Line) { lines = append(lines, l) }))
	}
}

func machineStep(b *testing.B) int {
	m := platform.NewMachine(workload.New(workload.MustByName("mcf"), 1), mcfOpts)
	m.RunRefs(200_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunRefs(stepRefs)
	}
	return stepRefs
}

// stepHalves drives the generator and the machine machine_step runs
// apart: a generator fills one chunk at a time, then a second machine
// steps the chunk with StepRefs, after the same 200,000-ref warm-up.
func stepHalves(b *testing.B) (gen, step time.Duration, refs int) {
	mcf := workload.MustByName("mcf")
	g := workload.New(mcf, 1)
	m := platform.NewMachine(workload.New(mcf, 1), mcfOpts)
	chunk := make([]mem.Ref, 4096)
	for left := 200_000; left > 0; left -= len(chunk) {
		k := mem.ReadBatch(g, chunk[:min(left, len(chunk))])
		m.StepRefs(chunk[:k])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for left := stepRefs; left > 0; left -= len(chunk) {
			c := chunk[:min(left, len(chunk))]
			t0 := time.Now()
			mem.ReadBatch(g, c)
			t1 := time.Now()
			m.StepRefs(c)
			gen += t1.Sub(t0)
			step += time.Since(t1)
		}
	}
	return gen, step, b.N * stepRefs
}

// sweepHalves drives the shared sweep's leader and one machine apart on
// one stream, whole 64 Ki-ref chunks of at least stepRefs per op, after a
// 200,000-ref warm-up.
func sweepHalves(b *testing.B) (lead, step time.Duration, refs int) {
	mcf := workload.MustByName("mcf")
	h := platform.NewSweepHalves(workload.New(mcf, 1))
	m := platform.NewMachine(workload.New(mcf, 1), mcfOpts)
	for done := 0; done < 200_000; {
		done += h.Lead()
		h.Step(m)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for end := refs + stepRefs; refs < end; {
			t0 := time.Now()
			refs += h.Lead()
			t1 := time.Now()
			h.Step(m)
			lead += t1.Sub(t0)
			step += time.Since(t1)
		}
	}
	return lead, step, refs
}

func sweepRow(sweep func(workload.Config, platform.RealMRCConfig) []float64) func(*testing.B) {
	return func(b *testing.B) {
		app := workload.MustByName("mcf")
		cfg := platform.DefaultRealMRCConfig()
		cfg.Workers = 1
		for i := 0; i < b.N; i++ {
			if mrc := sweep(app, cfg); len(mrc) != 16 {
				b.Fatalf("got %d-point curve", len(mrc))
			}
		}
	}
}
