package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"rapidmrc"
	"rapidmrc/internal/core"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/service"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	// Test hooks, not flags: perturbOracle moves one point of every
	// oracle curve by one ULP; maxQueued overrides the mrcd tenants'
	// ingest-queue bound.
	perturbOracle bool
	maxQueued     int
}

// sizes fixes how much work one run does. -compare refuses to pair runs
// whose sizes differ.
type sizes struct {
	Entries      int     `json:"entries"`
	BatchLines   int     `json:"batch_lines"`
	ZooApps      int     `json:"zoo_apps"`
	FeedApps     int     `json:"feed_apps"`
	SweepSkip    uint64  `json:"sweep_skip_instr"`
	SweepSlice   uint64  `json:"sweep_slice_instr"`
	CaptureWarm  uint64  `json:"capture_warm_instr"`
	SetupRepeats int     `json:"setup_repeats"`
	LayerTraces  int     `json:"layer_traces"`
	StepRefs     int     `json:"step_refs"`
	Clients      int     `json:"clients"`
	Seconds      float64 `json:"seconds"`
}

func sizesFor(cfg config) sizes {
	s := sizes{
		Entries:      rapidmrc.TraceEntries,
		BatchLines:   4096,
		ZooApps:      len(rapidmrc.Apps()),
		FeedApps:     len(feedApps),
		SweepSkip:    2_000_000,
		SweepSlice:   1_000_000,
		CaptureWarm:  onlineWarm,
		SetupRepeats: 5,
		LayerTraces:  len(feedApps),
		StepRefs:     1 << 18,
		Clients:      min(2, runtime.NumCPU()),
		Seconds:      cfg.seconds,
	}
	if cfg.quick {
		s.Entries = 10_000
		s.ZooApps = 2
		s.FeedApps = 2
		s.SweepSkip, s.SweepSlice = 50_000, 50_000
		s.CaptureWarm = 50_000
		s.SetupRepeats = 1
		s.LayerTraces = 2
		s.StepRefs = 1 << 13
	}
	return s
}

// feedApps are the applications the mrcd and sweep workloads use: the
// paper's headline cases, spanning small and large working sets, knee
// and gradual curves, and low and high prefetch conversion.
var feedApps = []string{"mcf", "gzip", "swim", "art", "jbb", "apsi", "povray", "libquantum"}

// onlineWarm and onlineMeasure are the instruction counts rapidmrc.Online
// warms up and measures the v-offset over. The online_zoo decomposition
// repeats them; its bit-for-bit check fails if Online changes them.
const (
	onlineWarm    = 500_000
	onlineMeasure = 200_000
)

// metricDef names one metric, its unit and which direction is better.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics every untraced run prints; perLayer those
// every traced run prints. BENCHMARK.json lists the same names and units
// (the tests check that it does).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"curve_ms_p50", "ms", "lower"},
	{"curve_ms_p75", "ms", "lower"},
	{"call_ms_p50", "ms", "lower"},
	{"call_ms_p75", "ms", "lower"},
	{"mrefs_per_s", "Mrefs/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"model_mcycles", "Mcycles", "lower"},
}

var perLayer = []metricDef{
	{"platform.boot_ms", "ms", "lower"},
	{"platform.warm_ms", "ms", "lower"},
	{"platform.capture_ms", "ms", "lower"},
	{"platform.measure_ms", "ms", "lower"},
	{"platform.step_ns_per_ref", "ns/ref", "lower"},
	{"pmu.dropped_frac", "ratio", "lower"},
	{"pmu.stale_frac", "ratio", "lower"},
	{"pmu.instr_per_entry", "instr/entry", "higher"},
	{"workload.gen_ns_per_ref", "ns/ref", "lower"},
	{"core.correct_ns_per_ref", "ns/ref", "lower"},
	{"core.converted_frac", "ratio", "lower"},
	{"core.feed_ns_per_ref", "ns/ref", "lower"},
	{"core.snapshot_us", "us", "lower"},
	{"core.stack_hit_rate", "ratio", "higher"},
	{"core.warmup_frac", "ratio", "lower"},
	{"sample.feed_ns_per_ref", "ns/ref", "lower"},
	{"sample.kept_frac", "ratio", "lower"},
	{"sample.eff_samples", "count", "higher"},
	{"approx.feed_ns_per_ref", "ns/ref", "lower"},
	{"approx.estimate_us", "us", "lower"},
	{"approx.served_frac", "ratio", "higher"},
	{"approx.escalations", "count", "lower"},
	{"service.http_handler_us", "us", "lower"},
	{"service.transport_us", "us", "lower"},
	{"service.json_decode_ns_per_ref", "ns/ref", "lower"},
	{"service.enqueue_us", "us", "lower"},
	{"service.drain_wait_ms", "ms", "lower"},
	{"service.serve_us", "us", "lower"},
	{"service.json_encode_us", "us", "lower"},
	{"service.pool_hit_frac", "ratio", "higher"},
	{"service.epochs_per_period", "count", "lower"},
	{"facade.compute_ms", "ms", "lower"},
	{"trace_overhead_frac", "ratio", "lower"},
}

// metric is one measured value.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Samples int     `json:"samples"`
	// Raw is a host-normalized metric's value as measured (see calib.go).
	Raw float64 `json:"raw,omitempty"`
}

// meta identifies the run and its host.
type meta struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Quick      bool    `json:"quick"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Sizes      sizes   `json:"sizes"`
	WallS      float64 `json:"wall_s"`
	// RefMs is the median time of the reference task in this run; the
	// host-normalized metrics scale by refNominalMs / RefMs.
	RefMs float64 `json:"ref_ms"`
}

// result is everything one run reports; -record writes it whole.
type result struct {
	Meta      meta              `json:"meta"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Model holds the simulated and accuracy values of the run's first
	// pass: deterministic for a seed (but see timingDependent), so two
	// runs of one commit must agree exactly, and a speed-only change must
	// leave them unchanged. Every workload reports model_log_mcycles and
	// model_calc_mcycles; their sum is the model_mcycles metric.
	Model map[string]float64 `json:"model"`
	// Digest hashes every curve of the first pass.
	Digest string   `json:"digest"`
	Checks []string `json:"check_failures,omitempty"`

	spans *analysis
}

func (r *result) set(d metricDef, v float64, samples int) {
	r.Metrics[d.name] = metric{Value: v, Unit: d.unit, Better: d.better, Samples: samples}
}

// loopResult is what a timed loop measured.
type loopResult struct {
	// wall is the loop's time, less the time the reference task took.
	wall time.Duration
	// ops is the number of operations (rounds for mrcd) the loop ran, so
	// a traced loop can replay exactly the untraced loop's work.
	ops     int
	curveMs []float64 // time from starting a probing period to holding its curve
	// callMs is the latency of each of the workload's unit calls: an
	// Online probe, a feed request, a RealMRC sweep.
	callMs    []float64
	refs      float64 // references the measured path processed
	attempted int
	failed    int
	failures  []string
	// The reference task's table and times (see calib.go).
	refTable []uint32
	refMs    []float64
	refTime  time.Duration
}

func (l *loopResult) merge(o *loopResult) {
	l.curveMs = append(l.curveMs, o.curveMs...)
	l.callMs = append(l.callMs, o.callMs...)
	l.refs += o.refs
	l.attempted += o.attempted
	l.failed += o.failed
	l.failures = append(l.failures, o.failures...)
}

// finish closes a loop that started at start and ran n operations.
func (l *loopResult) finish(start time.Time, n int) {
	l.wall = time.Since(start) - l.refTime
	l.ops = n
}

// bench is one workload.
type bench interface {
	// setup builds the workload's inputs from the seed. It runs several
	// times per run (setup_s is the median), with close in between.
	setup(tr *tracer) error
	// loop runs the timed operations: whole passes until the deadline
	// when replay is 0, otherwise exactly replay operations. Untraced, it
	// times the reference task between operations.
	loop(tr *tracer, deadline time.Time, replay int) *loopResult
	// finish runs the untimed oracle checks and fills res.Model and
	// res.Digest. It returns the traces the layer replay uses.
	finish(tr *tracer, lr *loopResult, res *result) ([]*capture, error)
	// layerMode is the tenant configuration the layer replay feeds the
	// daemon path with.
	layerMode() tenantMode
	// close releases what setup built.
	close() error
}

var workloads = []string{"online_zoo", "mrcd_exact", "mrcd_tiers", "realmrc_sweep"}

func newBench(cfg config, sz sizes) (bench, error) {
	switch cfg.workload {
	case "online_zoo":
		return newOnline(cfg, sz), nil
	case "mrcd_exact":
		return newMrcd(cfg, sz, tenantMode{maxQueued: cfg.maxQueued}), nil
	case "mrcd_tiers":
		return newMrcd(cfg, sz, tenantMode{tiered: true, maxQueued: cfg.maxQueued}), nil
	case "realmrc_sweep":
		return newSweep(cfg, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
}

// runWorkload runs one workload: set up several times, run the timed
// loop, and in a traced run replay the same operations with spans on and
// push the workload's traces through every layer alone.
func runWorkload(cfg config) (res *result, err error) {
	start := time.Now()
	sz := sizesFor(cfg)
	b, err := newBench(cfg, sz)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := b.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	res = &result{Meta: hostMeta(cfg, sz), Metrics: make(map[string]metric), Model: make(map[string]float64)}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var setups []float64
	for i := 0; i < sz.SetupRepeats; i++ {
		// Release and collect the previous set-up first, so the memory
		// peak does not depend on when the collector last ran.
		if i > 0 {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if err := b.setup(tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	lr := b.loop(nil, time.Now().Add(time.Duration(cfg.seconds*float64(time.Second))), 0)
	res.Meta.RefMs = quartiles(lr.refMs)[1]
	res.Attempted, res.Failed = lr.attempted, lr.failed
	res.Checks = append(res.Checks, lr.failures...)

	var traced *loopResult
	if cfg.trace {
		traced = b.loop(tr, time.Time{}, lr.ops)
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		res.Checks = append(res.Checks, traced.failures...)
	}
	caps, err := b.finish(tr, lr, res)
	if err != nil {
		return nil, err
	}

	if cfg.trace {
		lf, err := layerReplay(tr, caps, b.layerMode(), sz)
		if err != nil {
			return nil, fmt.Errorf("layer replay: %w", err)
		}
		res.Checks = append(res.Checks, lf...)
		res.spans = tr.analyze()
		res.Checks = append(res.Checks, perLayerMetrics(res, lr, traced)...)
	} else {
		scale := refNominalMs / res.Meta.RefMs
		curve, call := quartiles(lr.curveMs), quartiles(lr.callMs)
		for _, m := range []struct {
			def     metricDef
			raw     float64
			samples int
		}{
			{endToEnd[0], quartiles(setups)[1], len(setups)},
			{endToEnd[1], curve[1], len(lr.curveMs)},
			{endToEnd[2], curve[2], len(lr.curveMs)},
			{endToEnd[3], call[1], len(lr.callMs)},
			{endToEnd[4], call[2], len(lr.callMs)},
			{endToEnd[5], lr.refs / lr.wall.Seconds() / 1e6, lr.attempted},
		} {
			v := m.raw * scale // a time at reference speed
			if m.def.better == "higher" {
				v = m.raw / scale // a rate at reference speed
			}
			res.Metrics[m.def.name] = metric{Value: v, Unit: m.def.unit, Better: m.def.better, Samples: m.samples, Raw: m.raw}
		}
		res.set(endToEnd[6], peakRSSMB(), 1)
		res.set(endToEnd[7], res.Model["model_log_mcycles"]+res.Model["model_calc_mcycles"], 1)
	}
	res.Correct = len(res.Checks) == 0
	res.Meta.WallS = time.Since(start).Seconds()
	return res, nil
}

// keepGoing decides whether a loop, having done some operations, starts
// another. A replay runs exactly replay operations. Otherwise loops stop
// only between whole passes over the workload's inputs (pass operations
// each), so every run measures the same mix: a new pass starts while one
// more pass of the mean length still ends before the deadline, and the
// first pass always runs.
func keepGoing(done, replay, pass int, started, deadline time.Time) bool {
	if replay > 0 {
		return done < replay
	}
	if done%pass != 0 || done == 0 {
		return true
	}
	mean := time.Since(started) / time.Duration(done/pass)
	return !time.Now().Add(mean).After(deadline)
}

// deriveSeed gives every generated input its own seed, a function of the
// run's -seed, the input's stream name and its index.
func deriveSeed(base int64, stream string, i int) int64 {
	x := uint64(14695981039346656037) // FNV-1a over the three parts
	for _, c := range []byte(fmt.Sprintf("%d/%s/%d", base, stream, i)) {
		x ^= uint64(c)
		x *= 1099511628211
	}
	x ^= x >> 30 // splitmix64 finalizer
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// capture is one probing period taken through the facade's System.
type capture struct {
	app      string
	seed     int64
	trace    *rapidmrc.Trace
	measured float64 // MPKI at the full allocation, right after the capture
}

// captureApp boots the simulated machine, warms it, captures one probing
// period and measures the miss rate Online anchors its v-offset at. The
// machine is untouched by curve computation, so measuring right after the
// capture gives the value Online measures after computing.
func captureApp(tr *tracer, parent int, req uint64, app string, seed int64, warm uint64, entries int) (*capture, error) {
	id := tr.begin("platform.boot", parent, req)
	sys, err := rapidmrc.NewSystem(app, rapidmrc.WithSeed(seed), rapidmrc.WithTraceEntries(entries))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("platform.warm", parent, req)
	sys.Run(warm)
	tr.end(id)
	id = tr.begin("platform.capture", parent, req)
	t := sys.Capture()
	tr.end(id)
	id = tr.begin("platform.measure", parent, req)
	m := sys.MeasureMPKI(onlineMeasure)
	tr.end(id)
	tr.add("pmu.entries", float64(len(t.Lines)))
	tr.add("pmu.dropped", float64(t.Dropped))
	tr.add("pmu.stale", float64(t.Stale))
	tr.add("pmu.instr", float64(t.Instructions))
	return &capture{app: app, seed: seed, trace: t, measured: m}, nil
}

// lineSlice copies a raw trace into cache-line form.
func lineSlice(t *rapidmrc.Trace) []mem.Line {
	lines := make([]mem.Line, len(t.Lines))
	for i, l := range t.Lines {
		lines[i] = mem.Line(l)
	}
	return lines
}

// computeCore is the facade's Engine.Compute as its public calls: batch
// prefetch correction, then a pooled stream engine fed the corrected
// trace and snapshotted once.
func computeCore(tr *tracer, parent int, req uint64, pool *service.EnginePool, t *rapidmrc.Trace) (*core.Result, error) {
	lines := lineSlice(t)
	id := tr.begin("core.correct", parent, req)
	converted := core.CorrectPrefetchRepetitions(lines)
	tr.end(id)
	eng, err := pool.Get(core.DefaultConfig(), len(lines), 0)
	if err != nil {
		return nil, err
	}
	id = tr.begin("core.feed", parent, req)
	for _, l := range lines {
		eng.Feed(l)
	}
	tr.end(id)
	id = tr.begin("core.snapshot", parent, req)
	res, err := eng.Snapshot(t.Instructions)
	tr.end(id)
	pool.Put(eng)
	if err != nil {
		return nil, err
	}
	tr.add("core.refs", float64(len(lines)))
	tr.add("core.converted", float64(converted))
	tr.add("core.snapshots", 1)
	tr.add("core.stack_hit_rate", res.StackHitRate)
	tr.add("core.warmup_frac", float64(res.WarmupEntries)/float64(len(lines)))
	return res, nil
}

// digest hashes curves bit for bit.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 14695981039346656037} }

func (d *digest) add(vs ...float64) {
	for _, v := range vs {
		b := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			d.h ^= b & 0xff
			d.h *= 1099511628211
			b >>= 8
		}
	}
}

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h) }

// sameBits reports whether two curves are identical bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// bumpULP moves a curve's first point by one ULP (the oracle-perturbation
// test hook).
func bumpULP(c []float64) {
	if len(c) > 0 {
		c[0] = math.Nextafter(c[0], math.Inf(1))
	}
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// hostMeta records what the run was and where it ran.
func hostMeta(cfg config, sz sizes) meta {
	m := meta{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Trace:      cfg.trace,
		Quick:      cfg.quick,
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Sizes:      sz,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && m.Commit != "unknown" {
			m.Commit += "-dirty"
		}
	}
	return m
}

// cpuModel reads the host CPU's model name.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
