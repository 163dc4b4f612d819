// Package benchsuite runs the simulator's headline performance
// measurements and reports them as machine-readable results — the data
// behind BENCH_simulator.json, regenerated by `go run ./cmd/benchjson`.
//
// The suite deliberately re-measures a small, fixed set of numbers rather
// than wrapping `go test -bench`: each result is one deterministic
// workload driven through one production code path, so a CI smoke run
// stays a few seconds and the JSON schema stays stable.
package benchsuite

import (
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"rapidmrc/internal/approx"
	"rapidmrc/internal/core"
	"rapidmrc/internal/cpu"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/platform"
	"rapidmrc/internal/sample"
	"rapidmrc/internal/workload"
)

// Result is one measured benchmark.
type Result struct {
	// Name identifies the measurement (stable across runs).
	Name string `json:"name"`
	// Metric is the unit of Value ("ns/ref" or "ms/op").
	Metric string `json:"metric"`
	// Value is the best (minimum) of the repetitions.
	Value float64 `json:"value"`
	// Refs is the number of references driven per repetition, when the
	// metric is per-reference.
	Refs int `json:"refs,omitempty"`
}

// Suite is the full report, the schema of BENCH_simulator.json.
type Suite struct {
	// RegeneratedBy documents how to refresh the file.
	RegeneratedBy string `json:"regenerated_by"`
	// GOOS/GOARCH/CPUs identify the host class; absolute numbers are only
	// comparable within one host.
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`
	// GoMaxProcs is the scheduler parallelism the suite ran under.
	GoMaxProcs int      `json:"gomaxprocs"`
	Results    []Result `json:"results"`
}

// Config sizes the suite.
type Config struct {
	// Reps is the number of repetitions per measurement; the minimum is
	// reported. Zero means 3.
	Reps int
	// Quick shrinks every workload ~8× for CI smoke runs.
	Quick bool
}

func (c Config) reps() int {
	if c.Reps <= 0 {
		return 3
	}
	return c.Reps
}

func (c Config) scale(n int) int {
	if c.Quick {
		return n / 8
	}
	return n
}

// minDuration runs f reps times and returns the fastest wall-clock run.
func minDuration(reps int, f func()) time.Duration {
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// nsPerRef converts a duration over n references to ns/ref.
func nsPerRef(d time.Duration, n int) float64 {
	return float64(d.Nanoseconds()) / float64(n)
}

// splitStep times the two halves of stepping a machine on its own
// workload apart: a generator fills one chunk at a time, then a second
// machine steps the chunk with StepRefs, for n refs after the same
// 200,000-ref warm-up machine_step uses. It returns the fastest
// repetition of each half.
func splitStep(reps int, app workload.Config, opts platform.Options, n int) (gen, step time.Duration) {
	g := workload.New(app, opts.Seed)
	m := platform.NewMachine(workload.New(app, opts.Seed), opts)
	chunk := make([]mem.Ref, 4096)
	for left := 200_000; left > 0; left -= len(chunk) {
		k := mem.ReadBatch(g, chunk[:min(left, len(chunk))])
		m.StepRefs(chunk[:k])
	}
	for i := 0; i < reps; i++ {
		var gd, sd time.Duration
		for left := n; left > 0; left -= len(chunk) {
			c := chunk[:min(left, len(chunk))]
			t0 := time.Now()
			mem.ReadBatch(g, c)
			t1 := time.Now()
			m.StepRefs(c)
			gd += t1.Sub(t0)
			sd += time.Since(t1)
		}
		if i == 0 || gd < gen {
			gen = gd
		}
		if i == 0 || sd < step {
			step = sd
		}
	}
	return gen, step
}

// splitSweep times the shared sweep's two halves apart on one stream:
// the leader building each chunk, then one machine stepping its events,
// for at least n refs after a 200,000-ref warm-up. It returns the fastest
// repetition of each half and the refs one repetition drove.
func splitSweep(reps int, app workload.Config, opts platform.Options, n int) (lead, step time.Duration, refs int) {
	h := platform.NewSweepHalves(workload.New(app, opts.Seed))
	m := platform.NewMachine(workload.New(app, opts.Seed), opts)
	for done := 0; done < 200_000; {
		done += h.Lead()
		h.Step(m)
	}
	for i := 0; i < reps; i++ {
		var ld, sd time.Duration
		refs = 0
		for refs < n {
			t0 := time.Now()
			refs += h.Lead()
			t1 := time.Now()
			h.Step(m)
			ld += t1.Sub(t0)
			sd += time.Since(t1)
		}
		if i == 0 || ld < lead {
			lead = ld
		}
		if i == 0 || sd < step {
			step = sd
		}
	}
	return lead, step, refs
}

// mixedTrace builds the mixed-locality synthetic trace the stack and
// stream measurements replay (the same shape as bench_test.go's ablation
// input: hot set, warm set, cold streaming tail).
func mixedTrace(n int) []mem.Line {
	r := rand.New(rand.NewSource(5))
	trace := make([]mem.Line, n)
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
}

// Run executes the suite and returns the report.
func Run(cfg Config) (Suite, error) {
	s := Suite{
		RegeneratedBy: "go run ./cmd/benchjson -o BENCH_simulator.json",
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
	}
	reps := cfg.reps()

	// Stack simulation: the production marker-tree stack at the paper's
	// 15,360-line geometry over the mixed-locality trace.
	stackTrace := mixedTrace(cfg.scale(400_000))
	d := minDuration(reps, func() {
		st := core.NewStack(15360, core.DefaultGroupSize)
		for _, l := range stackTrace {
			st.Reference(l)
		}
	})
	s.Results = append(s.Results, Result{
		Name: "stack_marker", Metric: "ns/ref",
		Value: nsPerRef(d, len(stackTrace)), Refs: len(stackTrace),
	})

	// The same stack without the walk model, as mrcd tenants run it:
	// their walks are unpriced, so the stack skips counting them.
	d = minDuration(reps, func() {
		st := core.NewUnpricedStack(15360)
		for _, l := range stackTrace {
			st.Reference(l)
		}
	})
	s.Results = append(s.Results, Result{
		Name: "stack_marker_unpriced", Metric: "ns/ref",
		Value: nsPerRef(d, len(stackTrace)), Refs: len(stackTrace),
	})

	// Streaming engine: the same trace through the incremental
	// capture→compute path at full rate (exact profiling), snapshot
	// included.
	instr := uint64(3 * len(stackTrace))
	var streamErr error
	d = minDuration(reps, func() {
		e, err := sample.NewEngine(core.DefaultConfig(), sample.Config{}, len(stackTrace))
		if err != nil {
			streamErr = err
			return
		}
		for _, l := range stackTrace {
			e.Feed(l)
		}
		if _, err := e.Snapshot(instr); err != nil {
			streamErr = err
		}
	})
	if streamErr != nil {
		return Suite{}, streamErr
	}
	s.Results = append(s.Results, Result{
		Name: "stream_engine", Metric: "ns/ref",
		Value: nsPerRef(d, len(stackTrace)), Refs: len(stackTrace),
	})

	// Spatially sampled engine: the same trace and snapshot through the
	// SHARDS filter at the rates ext-sampling validates (both inside its
	// 0.02 miss-ratio-MAE budget over the workload zoo). Read these rows
	// against stream_engine: the ratio is the per-reference cost the
	// sampling tier saves, the gap the progressive-reprofiling policy in
	// internal/dynamic trades on.
	for _, rate := range []float64{0.1, 0.01} {
		r := rate
		var smpEngErr error
		d = minDuration(reps, func() {
			e, err := sample.NewEngine(core.DefaultConfig(), sample.Config{Rate: r}, len(stackTrace))
			if err != nil {
				smpEngErr = err
				return
			}
			for _, l := range stackTrace {
				e.Feed(l)
			}
			if _, err := e.Snapshot(instr); err != nil {
				smpEngErr = err
			}
		})
		if smpEngErr != nil {
			return Suite{}, smpEngErr
		}
		s.Results = append(s.Results, Result{
			Name: "sampled_engine_r" + strconv.FormatFloat(r, 'g', -1, 64), Metric: "ns/ref",
			Value: nsPerRef(d, len(stackTrace)), Refs: len(stackTrace),
		})
	}

	// Analytical tier: the reuse-time sampler over the same trace (the
	// O(1)-per-reference profiling cost), then each estimator's per-curve
	// cost from the finished profile. Contrast with stream_engine: a
	// simulated curve costs its ns/ref × refs, while an estimator reads
	// only the bucketed histogram — the ≥100× per-curve gap the tiered
	// serving policy trades on.
	var smpErr error
	d = minDuration(reps, func() {
		smp, err := approx.NewSampler(core.DefaultConfig(), len(stackTrace))
		if err != nil {
			smpErr = err
			return
		}
		for _, l := range stackTrace {
			smp.Feed(l)
		}
	})
	if smpErr != nil {
		return Suite{}, smpErr
	}
	s.Results = append(s.Results, Result{
		Name: "approx_profile", Metric: "ns/ref",
		Value: nsPerRef(d, len(stackTrace)), Refs: len(stackTrace),
	})

	prof, err := approx.ProfileTrace(stackTrace, core.DefaultConfig())
	if err != nil {
		return Suite{}, err
	}
	for _, est := range []approx.Estimator{approx.CheFagin{}, approx.FullyAssociative{}} {
		e := est
		const curves = 64 // batch per repetition: one curve is microseconds
		var estErr error
		d = minDuration(reps, func() {
			for i := 0; i < curves; i++ {
				if _, err := e.Estimate(prof, instr); err != nil {
					estErr = err
					return
				}
			}
		})
		if estErr != nil {
			return Suite{}, estErr
		}
		s.Results = append(s.Results, Result{
			Name: "approx_" + e.Name(), Metric: "ms/op",
			Value: float64(d.Nanoseconds()) / 1e6 / curves,
		})
	}

	// The tier decision a tiered serve makes: both estimators over a
	// live sampler's histogram, then the policy — what Session.Serve
	// pays before it either answers analytically or simulates.
	smp, err := approx.NewSampler(core.DefaultConfig(), len(stackTrace))
	if err != nil {
		return Suite{}, err
	}
	for _, l := range stackTrace {
		smp.Feed(l)
	}
	pol := approx.NewPolicy(approx.PolicyConfig{Threshold: approx.DefaultThreshold})
	const decisions = 64
	var assessErr error
	d = minDuration(reps, func() {
		for i := 0; i < decisions; i++ {
			if e, _ := approx.Assess(pol, smp, instr, false); e == nil {
				assessErr = approx.ErrNoSamples
				return
			}
		}
	})
	if assessErr != nil {
		return Suite{}, assessErr
	}
	s.Results = append(s.Results, Result{
		Name: "approx_assess", Metric: "ms/op",
		Value: float64(d.Nanoseconds()) / 1e6 / decisions,
	})

	// Machine stepping: the full POWER5 model (complex core, prefetcher,
	// L2+L3, PMU) on the mcf reference stream, warm caches. machine_step
	// runs the machine on its own generator, which a producer goroutine
	// reads ahead while the machine steps; workload_gen and
	// machine_step_refs time the two halves apart, serially, on the same
	// stream. On two or more CPUs machine_step is about the larger of the
	// two, on one CPU about their sum.
	stepRefs := cfg.scale(2_000_000)
	mcf := workload.MustByName("mcf")
	opts := platform.Options{Mode: cpu.Complex, L3Enabled: true, Seed: 1}
	m := platform.NewMachine(workload.New(mcf, 1), opts)
	m.RunRefs(200_000)
	d = minDuration(reps, func() { m.RunRefs(stepRefs) })
	s.Results = append(s.Results, Result{
		Name: "machine_step", Metric: "ns/ref",
		Value: nsPerRef(d, stepRefs), Refs: stepRefs,
	})
	genD, stepD := splitStep(reps, mcf, opts, stepRefs)
	s.Results = append(s.Results, Result{
		Name: "workload_gen", Metric: "ns/ref",
		Value: nsPerRef(genD, stepRefs), Refs: stepRefs,
	}, Result{
		Name: "machine_step_refs", Metric: "ns/ref",
		Value: nsPerRef(stepD, stepRefs), Refs: stepRefs,
	})

	// The shared sweep's halves on the same stream: sweep_leader
	// generates each chunk, runs the leader L1 over it and compacts it to
	// L2-bound events; sweep_machine_events is one machine stepping those
	// events. A serial 16-partition sweep costs about one leader plus 16
	// machines per ref; pooled, the leader builds the next chunk beside
	// the machines.
	leadD, evD, sweepRefs := splitSweep(reps, mcf, opts, stepRefs)
	s.Results = append(s.Results, Result{
		Name: "sweep_leader", Metric: "ns/ref",
		Value: nsPerRef(leadD, sweepRefs), Refs: sweepRefs,
	}, Result{
		Name: "sweep_machine_events", Metric: "ns/ref",
		Value: nsPerRef(evD, sweepRefs), Refs: sweepRefs,
	})

	// The 16-partition real-MRC sweep, both strategies, serial workers —
	// the tentpole before/after pair.
	sweepCfg := platform.DefaultRealMRCConfig()
	sweepCfg.Workers = 1
	if cfg.Quick {
		sweepCfg.SkipInstructions /= 8
		sweepCfg.SliceInstructions /= 8
	}
	app := workload.MustByName("mcf")
	sweepReps := reps
	if sweepReps > 2 && !cfg.Quick {
		sweepReps = 2 // full sweeps run for seconds; two repetitions suffice
	}
	sweepCfg.PerMachine = true
	d = minDuration(sweepReps, func() { platform.RealMRC(app, sweepCfg) })
	s.Results = append(s.Results, Result{
		Name: "realmrc_sweep_permachine", Metric: "ms/op",
		Value: float64(d.Microseconds()) / 1000,
	})
	sweepCfg.PerMachine = false
	d = minDuration(sweepReps, func() { platform.RealMRC(app, sweepCfg) })
	s.Results = append(s.Results, Result{
		Name: "realmrc_sweep_shared", Metric: "ms/op",
		Value: float64(d.Microseconds()) / 1000,
	})

	return s, nil
}
