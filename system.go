package rapidmrc

import (
	"fmt"

	"rapidmrc/internal/color"
	"rapidmrc/internal/cpu"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/platform"
	"rapidmrc/internal/pmu"
	"rapidmrc/internal/sample"
	"rapidmrc/internal/service"
	"rapidmrc/internal/workload"
)

// System is a handle on the bundled simulated POWER5 running one of the
// 30 synthetic applications. It is the capture front-end (step 1); the
// Engine is the computation back-end (step 2).
type System struct {
	m   *platform.Machine
	app workload.Config
	opt sysOptions
}

type sysOptions struct {
	mode         cpu.Mode
	colors       color.Set
	l3           bool
	seed         int64
	entries      int
	refColors    int
	traceBuffer  int
	workers      int
	samplingRate float64
	// err records the first invalid option; constructors surface it
	// instead of building a system (validate-at-apply-time).
	err error
}

// fail records the first option error.
func (o *sysOptions) fail(err error) {
	if o.err == nil {
		o.err = err
	}
}

// SystemOption customizes a System or a workflow built on one.
type SystemOption func(*sysOptions)

// WithSeed sets the deterministic seed for the workload and the PMU's
// stochastic artifacts.
func WithSeed(seed int64) SystemOption {
	return func(o *sysOptions) { o.seed = seed }
}

// WithSimplifiedMode runs the processor single-issue, in-order, without
// prefetching (§5.2.8) — trace capture is clean but slow.
func WithSimplifiedMode() SystemOption {
	return func(o *sysOptions) { o.mode = cpu.Simplified }
}

// WithoutPrefetch disables only the hardware prefetchers (§5.2.7).
func WithoutPrefetch() SystemOption {
	return func(o *sysOptions) { o.mode = cpu.NoPrefetch }
}

// WithPartition confines the application to the first n colors.
func WithPartition(n int) SystemOption {
	return func(o *sysOptions) { o.colors = color.First(n) }
}

// WithoutL3 detaches the victim cache (§5.3 does this for two of the
// three multiprogrammed workloads).
func WithoutL3() SystemOption {
	return func(o *sysOptions) { o.l3 = false }
}

// WithTraceEntries overrides the probing-period length (default 160k;
// Figure 4a uses 1600k for swim).
func WithTraceEntries(n int) SystemOption {
	return func(o *sysOptions) { o.entries = n }
}

// WithParallelism bounds the worker pool used by sweeping workflows
// (RealCurve's 16 per-size runs): 1 runs serially, n > 1 uses a pool of
// n goroutines. Omitting the option uses one worker per CPU. n < 1 is
// rejected — the error surfaces from the constructor the options are
// passed to (pass runtime.GOMAXPROCS(0) to ask for one per CPU
// explicitly).
func WithParallelism(n int) SystemOption {
	return func(o *sysOptions) {
		if n < 1 {
			o.fail(fmt.Errorf("rapidmrc: WithParallelism requires at least 1 worker, got %d (omit the option for one per CPU)", n))
			return
		}
		o.workers = n
	}
}

// WithSamplingRate filters the probing period through a SHARDS-style
// spatial sampler before the Mattson stack: only references whose
// hashed line address falls under the rate's threshold reach the
// engine, histogram counts are scaled back by 1/rate, and the curve
// carries a confidence band (Stats.BandLow/BandHigh). Compute cost
// drops roughly in proportion to the rate for a small, quantified
// accuracy cost; rate 1 is bit-identical to the unsampled engine. The
// rate must lie in (0, 1] — anything else, including NaN, is rejected
// at apply time and the error surfaces from the constructor the
// options are passed to, like WithParallelism.
func WithSamplingRate(rate float64) SystemOption {
	return func(o *sysOptions) {
		if err := (sample.Config{Rate: rate}).Validate(); err != nil {
			o.fail(&service.ProfileError{Field: "Sampling", Err: err})
			return
		}
		o.samplingRate = rate
	}
}

// WithReferencePoint overrides the partition size whose measured miss
// rate anchors the v-offset transposition. By default the currently
// configured size is used — its miss rate is free to measure (§3.2); the
// paper's accuracy evaluation instead anchors at the 8-color point of the
// real curve, which the experiment drivers do explicitly.
func WithReferencePoint(colors int) SystemOption {
	return func(o *sysOptions) { o.refColors = colors }
}

// spec is the profiling session a System workflow opens over one
// probing period: the paper's engine defaults with the options'
// sampling rate.
func (o *sysOptions) spec() service.TenantConfig {
	spec := NewEngine().spec(o.entries)
	spec.Sampling.Rate = o.samplingRate
	return spec
}

func defaultSysOptions() sysOptions {
	return sysOptions{
		mode:    cpu.Complex,
		colors:  color.All,
		l3:      true,
		seed:    1,
		entries: TraceEntries,
	}
}

// Apps returns the names of the bundled applications, in the paper's
// Table 2 order.
func Apps() []string { return workload.Names() }

// NewSystem boots the simulated machine running the named application.
func NewSystem(app string, opts ...SystemOption) (*System, error) {
	cfg, err := workload.ByName(app)
	if err != nil {
		return nil, err
	}
	o := defaultSysOptions()
	for _, fn := range opts {
		fn(&o)
	}
	if o.err == nil {
		o.err = o.spec().Validate()
	}
	if o.err != nil {
		return nil, o.err
	}
	m := platform.NewMachine(workload.New(cfg, o.seed), platform.Options{
		Mode:        o.mode,
		Colors:      o.colors,
		L3Enabled:   o.l3,
		Seed:        o.seed,
		TraceBuffer: o.traceBuffer,
	})
	return &System{m: m, app: cfg, opt: o}, nil
}

// App returns the application name the system is running.
func (s *System) App() string { return s.app.Name }

// Run advances the application by n instructions.
func (s *System) Run(n uint64) { s.m.RunInstructions(n) }

// Capture runs one probing period of the configured length and returns
// the raw trace.
func (s *System) Capture() *Trace {
	lines := make([]uint64, 0, max(s.opt.entries, 0))
	st := s.m.CollectTrace(s.opt.entries, pmu.SinkFunc(func(l mem.Line) {
		lines = append(lines, uint64(l))
	}))
	return traceOf(lines, st)
}

// traceOf is a captured log with its capture statistics.
func traceOf(lines []uint64, st pmu.TraceStats) *Trace {
	return &Trace{
		Lines:        lines,
		Instructions: st.Instructions,
		Cycles:       st.Cycles,
		Dropped:      st.Dropped,
		Stale:        st.Stale,
	}
}

// period runs one probing period of the configured length into sess
// through the service's Session.RunPeriod: the machine captures on this
// goroutine while a feeder goroutine feeds sess. keep keeps the log and
// returns it; epochs are stamped with the application's progress since
// the period began.
func (s *System) period(sess *service.Session, keep bool, epochEntries int, onEpoch func(*service.Epoch) bool) ([]uint64, pmu.TraceStats) {
	var st pmu.TraceStats
	start := s.m.Core().Instructions()
	p := service.Period{
		Capture:      func(rec *service.Recorder) { st = s.m.CollectTrace(s.opt.entries, rec) },
		EpochEntries: epochEntries,
		Clock:        func(int) uint64 { return s.m.Core().Instructions() - start },
		OnEpoch:      onEpoch,
	}
	if keep {
		p.Keep = s.opt.entries
	}
	lines := sess.RunPeriod(p) // sets st
	return lines, st
}

// StreamEpoch is one mid-capture snapshot delivered during System.Stream:
// the in-flight curve after exactly Entries log entries, computed while
// the capture holds at that entry.
type StreamEpoch struct {
	// Entries is the number of log entries consumed so far.
	Entries int
	// Instructions is the application's progress since capture start.
	Instructions uint64
	// Curve and Stats are the snapshot (raw, untransposed).
	Curve *Curve
	Stats *Stats
}

// Stream runs one probing period with capture and computation fused:
// the capture hands the log in chunks to a feeder goroutine, which runs
// them through the streaming corrector into the incremental Mattson
// engine while the capture goes on. No trace log is kept — memory is the
// engine's state plus the few chunks queued — so this is the always-on
// form of Capture followed by Engine.Compute, and produces the identical
// curve from the same machine state. The final curve is transposed to
// the miss rate measured at the reference partition size, exactly as
// Online does.
//
// epochEntries > 0 delivers a mid-capture snapshot to onEpoch after every
// that many entries (epochs still inside warmup are skipped); onEpoch may
// be nil. onEpoch runs on the feeder goroutine, one epoch at a time, and
// every call finishes before Stream returns; the capture waits at each
// epoch's last entry until the snapshot is taken. The returned Stats
// carry the capture's artifact counts in addition to the compute
// statistics.
func (s *System) Stream(epochEntries int, onEpoch func(StreamEpoch)) (*Curve, *Stats, error) {
	sess, err := enginePool.Open(s.opt.spec())
	if err != nil {
		return nil, nil, err
	}
	defer sess.Close()
	var see func(*service.Epoch) bool
	if onEpoch != nil {
		see = func(ep *service.Epoch) bool {
			c, cs, _ := fromEpoch(ep, nil)
			onEpoch(StreamEpoch{Entries: ep.Entries, Instructions: ep.Instructions, Curve: c, Stats: cs})
			return false
		}
	}
	_, st := s.period(sess, false, epochEntries, see)
	curve, cstats, err := fromEpoch(sess.Snapshot(st.Instructions))
	if err != nil {
		return nil, nil, err
	}
	cstats.Captured = st.Captured
	cstats.Dropped = st.Dropped
	cstats.Stale = st.Stale
	cstats.CaptureCycles = st.Cycles
	s.anchor(curve, cstats)
	return curve, cstats, nil
}

// anchor transposes a fresh curve, and its confidence band, to the miss
// rate measured at the reference partition size — the currently
// configured size unless WithReferencePoint chose another, whose miss
// rate is free to measure with PMU counters (§3.2).
func (s *System) anchor(curve *Curve, st *Stats) {
	measured := s.MeasureMPKI(200_000)
	ref := s.opt.refColors
	if ref == 0 {
		ref = s.opt.colors.Count()
	}
	st.Shift = curve.Transpose(ref, measured)
	sample.Bands{Low: st.BandLow, High: st.BandHigh}.Shift(st.Shift)
}

// MeasureMPKI runs the application for n instructions and returns its
// measured L2 MPKI over that interval — the PMU-counter measurement used
// to anchor the v-offset.
func (s *System) MeasureMPKI(n uint64) float64 {
	s.m.ResetMetrics()
	s.m.RunInstructions(n)
	return s.m.Metrics().MPKI()
}

// RealCurve measures the application's real MRC offline: one full run per
// partition size, MPKI from PMU counters (§5.2.1). Options understood:
// WithSeed, WithSimplifiedMode / WithoutPrefetch, WithoutL3.
func RealCurve(app string, opts ...SystemOption) (*Curve, error) {
	cfg, err := workload.ByName(app)
	if err != nil {
		return nil, err
	}
	o := defaultSysOptions()
	for _, fn := range opts {
		fn(&o)
	}
	if o.err != nil {
		return nil, o.err
	}
	rc := platform.DefaultRealMRCConfig()
	rc.Mode = o.mode
	rc.L3Enabled = o.l3
	rc.Seed = o.seed
	rc.Workers = o.workers
	return &Curve{MPKI: platform.RealMRC(cfg, rc)}, nil
}

// Online is the end-to-end workflow of the paper: warm up, capture one
// probing period, compute the curve, and transpose it to the measured
// miss rate at the reference partition size. The returned Stats include
// capture artifacts and the modeled costs.
//
// The computation overlaps the capture: the period Stream runs feeds
// each chunk of the log to a feeder goroutine, which corrects and
// stack-simulates it as soon as the capture completes it, so only the
// snapshot is left when the capture ends. The result is bit-identical to
// Engine.Compute over the captured trace.
func Online(app string, opts ...SystemOption) (*Curve, *Stats, *Trace, error) {
	sys, err := NewSystem(app, opts...)
	if err != nil {
		return nil, nil, nil, err
	}
	// Reach steady state before probing (the paper probes at the
	// 10-G-instruction mark; scaled here).
	sys.Run(500_000)
	trace, curve, stats, err := sys.captureProfiled()
	if err != nil {
		return nil, nil, nil, err
	}
	sys.anchor(curve, stats)
	return curve, stats, trace, nil
}

// captureProfiled is Capture followed by profileTrace: the same period
// Stream runs, keeping the log, so the session is fed while the machine
// captures.
func (s *System) captureProfiled() (*Trace, *Curve, *Stats, error) {
	if s.opt.entries <= 0 {
		return nil, nil, nil, errEmptyTrace
	}
	sess, err := enginePool.Open(s.opt.spec())
	if err != nil {
		return nil, nil, nil, err
	}
	defer sess.Close()
	trace := traceOf(s.period(sess, true, 0, nil))
	curve, stats, err := fromEpoch(sess.Snapshot(trace.Instructions))
	return trace, curve, stats, err
}

// CoRunResult reports one application's performance in a co-scheduled run.
type CoRunResult struct {
	App          string
	Colors       int
	Instructions uint64
	Cycles       uint64
	IPC          float64
	MPKI         float64
}

// CoRun executes the named applications concurrently on one shared L2.
// alloc gives each application's color count, assigned left to right as
// disjoint partitions; a nil alloc means uncontrolled sharing (everyone
// may use every color). Options understood: WithSeed, WithoutL3,
// WithSimplifiedMode / WithoutPrefetch. The run warms up for warmup
// instructions per application, then measures until the first application
// completes slice instructions.
func CoRun(apps []string, alloc []int, warmup, slice uint64, opts ...SystemOption) ([]CoRunResult, error) {
	if alloc != nil && len(alloc) != len(apps) {
		return nil, fmt.Errorf("rapidmrc: %d apps but %d allocations", len(apps), len(alloc))
	}
	cfgs := make([]workload.Config, len(apps))
	for i, n := range apps {
		c, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		cfgs[i] = c
	}
	o := defaultSysOptions()
	for _, fn := range opts {
		fn(&o)
	}
	if o.err != nil {
		return nil, o.err
	}
	parts := make([]color.Set, len(apps))
	if alloc == nil {
		for i := range parts {
			parts[i] = color.All
		}
	} else {
		lo := 0
		for i, n := range alloc {
			if n < 1 || lo+n > color.NumColors {
				return nil, fmt.Errorf("rapidmrc: allocation %v does not fit %d colors", alloc, color.NumColors)
			}
			parts[i] = color.Range(lo, lo+n)
			lo += n
		}
	}
	ms := platform.CoRun(cfgs, parts, warmup, slice, platform.CoRunOptions{
		Mode: o.mode, L3Enabled: o.l3, Seed: o.seed,
	})
	out := make([]CoRunResult, len(ms))
	for i, m := range ms {
		out[i] = CoRunResult{
			App:          apps[i],
			Colors:       parts[i].Count(),
			Instructions: m.Instructions,
			Cycles:       m.Cycles,
			IPC:          m.IPC(),
			MPKI:         m.MPKI(),
		}
	}
	return out, nil
}
