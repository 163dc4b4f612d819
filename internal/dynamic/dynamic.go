// Package dynamic implements the closed-loop cache manager the paper
// sketches as future work (§5.3 and §7): monitor each co-scheduled
// application's L2 miss rate with free-running PMU counters, detect phase
// transitions with the §5.2.2 heuristic, re-run RapidMRC for the
// application that changed, re-optimize the partition sizes, and enforce
// them by migrating pages (at the measured 7.3 µs per 4 KB page).
//
// The static pipeline computes the MRC once and partitions once; this
// controller keeps both current as applications move between phases.
package dynamic

import (
	"fmt"

	"rapidmrc/internal/approx"
	"rapidmrc/internal/color"
	"rapidmrc/internal/core"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/partition"
	"rapidmrc/internal/phase"
	"rapidmrc/internal/platform"
	"rapidmrc/internal/pmu"
	"rapidmrc/internal/sample"
	"rapidmrc/internal/service"
	"rapidmrc/internal/workload"
)

// Config parameterizes the controller.
type Config struct {
	// IntervalInstr is the monitoring interval per application.
	IntervalInstr uint64
	// TraceEntries is the probing-period length for recomputations.
	TraceEntries int
	// Detector holds the phase-transition heuristic parameters.
	Detector phase.Config
	// MinGainMPKI is the repartitioning hysteresis: a new allocation is
	// adopted only if it predicts at least this much total-miss
	// improvement, so borderline churn (and its migration cost) is
	// avoided.
	MinGainMPKI float64
	// Colors is the number of partition colors (16).
	Colors int
	// SnapshotEntries is the epoch length for mid-capture curve
	// snapshots during a recomputation: every that many streamed log
	// entries the controller snapshots the in-flight curve and ends the
	// probing period early once consecutive snapshots agree to within
	// ConvergedMPKI. Zero disables early termination (every probing
	// period runs the full TraceEntries).
	SnapshotEntries int
	// ConvergedMPKI is the snapshot-to-snapshot distance below which the
	// in-flight curve counts as settled.
	ConvergedMPKI float64
	// ConvergenceWindow is how many consecutive settled snapshot pairs
	// end a probing period early — the phase.NewConvergence window, which
	// used to be hard-coded at 2. Larger windows demand more evidence
	// before cutting a capture short; zero or negative uses
	// DefaultConvergenceWindow.
	ConvergenceWindow int
	// ApproxThreshold enables the tiered probing path: a recomputation
	// first runs a sampler-only probe (an O(1)-per-sample reuse-time
	// histogram — no Mattson engine) and keeps the analytical curve when
	// the service's tier decision (approx.Assess) trusts it — uncertainty
	// within the threshold and the two estimators in agreement —
	// escalating to a full engine probe otherwise. Zero keeps every probe
	// on the full engine.
	ApproxThreshold float64
	// SamplingRate enables the SHARDS-sampled probing tier: a
	// recomputation for an application whose phase detector reports a
	// stable miss rate (not mid-transition) runs the Mattson engine
	// behind a hash-threshold spatial sampler at this rate, and each
	// accepted sampled probe halves the application's rate for the next
	// refresh (down to SamplingMinRate), so long-stable applications get
	// progressively cheaper recomputations. The sampled curve is kept
	// only when its confidence band stays under SamplingBandMPKI and it
	// cross-validates against the application's banked previous curve
	// (SamplingCrossVal); otherwise the probe escalates to a full-rate
	// engine probe and the application's rate progression resets —
	// mirroring the ApproxThreshold escalation contract. Zero keeps
	// every probe at full rate; rates outside (0, 1] are rejected by New.
	SamplingRate float64
	// SamplingMinRate floors the progressive halving. Zero uses
	// SamplingRate/8.
	SamplingMinRate float64
	// SamplingBandMPKI is the mean confidence-band width above which a
	// sampled probe escalates to full rate. Zero uses
	// DefaultSamplingBandMPKI.
	SamplingBandMPKI float64
	// SamplingCrossVal bounds the banked cross-validation: the sampled
	// curve's mean absolute MPKI distance from the application's previous
	// curve, normalized by the previous curve's mean level, above which
	// the probe escalates. Zero uses DefaultSamplingCrossVal; negative
	// disables cross-validation (band width still gates).
	SamplingCrossVal float64
	// Pool supplies (and reclaims) the stream engines the controller's
	// recomputations run on, so repeated probing periods reset and reuse
	// engine state instead of reallocating it. Nil gets a private pool.
	Pool *service.EnginePool
}

// DefaultConvergenceWindow is the settle window reprofile always used
// before it became configurable.
const DefaultConvergenceWindow = 2

// Sampled-tier escalation defaults (see Config.SamplingBandMPKI and
// Config.SamplingCrossVal).
const (
	DefaultSamplingBandMPKI = 2.0
	DefaultSamplingCrossVal = 0.5
)

// DefaultConfig returns sensible controller parameters.
func DefaultConfig() Config {
	return Config{
		IntervalInstr:     1_000_000,
		TraceEntries:      40_000,
		Detector:          phase.DefaultConfig(),
		MinGainMPKI:       0.5,
		Colors:            color.NumColors,
		SnapshotEntries:   8_000,
		ConvergedMPKI:     0.25,
		ConvergenceWindow: DefaultConvergenceWindow,
	}
}

// Stats summarizes one controlled run.
type Stats struct {
	// Intervals is the number of monitoring intervals executed.
	Intervals int
	// Transitions counts detected phase transitions (across all apps).
	Transitions int
	// Recomputations counts RapidMRC probing periods triggered.
	Recomputations int
	// ProbedEntries is the total log entries streamed across all
	// recomputations; with snapshot convergence enabled it is what the
	// fixed budget Recomputations × TraceEntries shrinks to.
	ProbedEntries int
	// Repartitions counts adopted allocation changes.
	Repartitions int
	// PagesMigrated is the total page-migration volume.
	PagesMigrated int
	// ApproxProfiles counts recomputations settled by the analytical
	// sampler tier; ApproxEscalations counts analytical probes whose
	// uncertainty forced a follow-up full engine probe.
	ApproxProfiles    int
	ApproxEscalations int
	// SampledProfiles counts recomputations settled by the SHARDS-
	// sampled engine tier; SampledEscalations counts sampled probes
	// whose band width or cross-validation forced a follow-up full-rate
	// probe.
	SampledProfiles    int
	SampledEscalations int
	// Allocations records the allocation after each interval (one entry
	// per interval, app-major).
	Allocations [][]int
}

// Controller drives a set of co-scheduled machines.
type Controller struct {
	cfg        Config
	pool       *service.EnginePool
	machines   []*platform.Machine
	detectors  []*phase.Detector
	curves     []*core.MRC
	alloc      []int
	pending    []bool
	pendingAge []int
	// sampleRate is each application's current sampled-tier rate (only
	// populated when the tier is enabled): halved after each accepted
	// sampled probe, reset to Config.SamplingRate on phase transitions
	// and escalations.
	sampleRate []float64
	stats      Stats
}

// New builds a controller over the named applications, started on an
// even partition split. opt carries the machine mode, L3 and seed.
func New(apps []workload.Config, opt platform.CoRunOptions, cfg Config) (*Controller, error) {
	n := len(apps)
	if n < 2 {
		return nil, fmt.Errorf("dynamic: need at least two applications")
	}
	if cfg.Colors == 0 {
		cfg.Colors = color.NumColors
	}
	if cfg.Colors < n {
		return nil, fmt.Errorf("dynamic: %d colors for %d applications", cfg.Colors, n)
	}
	if err := cfg.Detector.Validate(); err != nil {
		return nil, err
	}
	if cfg.SamplingRate != 0 {
		if err := (sample.Config{Rate: cfg.SamplingRate}).Validate(); err != nil {
			return nil, err
		}
		if cfg.SamplingMinRate == 0 {
			cfg.SamplingMinRate = cfg.SamplingRate / 8
		}
		if cfg.SamplingBandMPKI == 0 {
			cfg.SamplingBandMPKI = DefaultSamplingBandMPKI
		}
		if cfg.SamplingCrossVal == 0 {
			cfg.SamplingCrossVal = DefaultSamplingCrossVal
		}
	}

	// Initial allocation: even split, remainder to the first apps.
	alloc := make([]int, n)
	for i := range alloc {
		alloc[i] = cfg.Colors / n
		if i < cfg.Colors%n {
			alloc[i]++
		}
	}
	machines := platform.NewCoScheduled(apps, partition.Sets(alloc), opt)

	pool := cfg.Pool
	if pool == nil {
		pool = service.NewEnginePool(0)
	}
	c := &Controller{
		cfg:        cfg,
		pool:       pool,
		machines:   machines,
		alloc:      alloc,
		curves:     make([]*core.MRC, n),
		pending:    make([]bool, n),
		pendingAge: make([]int, n),
	}
	for i := 0; i < n; i++ {
		c.detectors = append(c.detectors, phase.New(cfg.Detector))
	}
	if cfg.SamplingRate > 0 {
		c.sampleRate = make([]float64, n)
		for i := range c.sampleRate {
			c.sampleRate[i] = cfg.SamplingRate
		}
	}
	return c, nil
}

// Alloc returns the current allocation (colors per application).
func (c *Controller) Alloc() []int {
	out := make([]int, len(c.alloc))
	copy(out, c.alloc)
	return out
}

// Machines exposes the controlled machines (for metrics).
func (c *Controller) Machines() []*platform.Machine { return c.machines }

// Stats returns the controller's counters so far.
func (c *Controller) Stats() Stats { return c.stats }

// runInterval advances every machine by one monitoring interval under
// cycle-synchronized interleaving and returns each one's interval MPKI.
func (c *Controller) runInterval() []float64 {
	targets := make([]uint64, len(c.machines))
	remaining := len(c.machines)
	for i, m := range c.machines {
		m.ResetMetrics()
		targets[i] = m.Core().Instructions() + c.cfg.IntervalInstr
	}
	for remaining > 0 {
		m := platform.NextByCycles(c.machines)
		before := m.Core().Instructions()
		m.Step()
		for i, mm := range c.machines {
			if mm == m && before < targets[i] && m.Core().Instructions() >= targets[i] {
				remaining--
			}
		}
	}
	mpki := make([]float64, len(c.machines))
	for i, m := range c.machines {
		mpki[i] = m.Metrics().MPKI()
	}
	return mpki
}

// reprofile recomputes application i's curve, cheapest trustworthy tier
// first: the analytical probe, then — on a stable miss rate — the
// SHARDS-sampled probe at the application's progressive rate, kept when
// its confidence band is tight (mean width within SamplingBandMPKI) and
// it cross-validates against the banked curve, which halves the rate
// for the next stable refresh (floored at SamplingMinRate). A rejected
// cheap probe escalates to the next tier — a second probing period, the
// honest price of a wrong guess — and a rejected sampled probe resets
// the rate progression. The full-rate engine probe is the last tier.
func (c *Controller) reprofile(i int) {
	if c.cfg.ApproxThreshold > 0 && c.approxProbe(i) {
		return
	}
	// The sampled tier only runs on a stable miss rate: a probe forced
	// through mid-transition (the maxDefer override) captures a phase
	// mixture, where a cheap low-confidence curve is the wrong trade.
	if c.cfg.SamplingRate > 0 && !c.detectors[i].InTransition() {
		ep := c.probe(i, sample.Config{Rate: c.sampleRate[i]})
		ok := ep != nil && (sample.Bands{Low: ep.BandLow, High: ep.BandHigh}).Width() <= c.cfg.SamplingBandMPKI
		if ok && c.curves[i] != nil && c.cfg.SamplingCrossVal > 0 {
			ok = curveDistance(ep.Result.MRC, c.curves[i]) <= c.cfg.SamplingCrossVal
		}
		if ok {
			c.adopt(i, ep.Result.MRC)
			c.stats.SampledProfiles++
			if next := c.sampleRate[i] / 2; next >= c.cfg.SamplingMinRate {
				c.sampleRate[i] = next
			}
			return
		}
		c.stats.SampledEscalations++
		c.sampleRate[i] = c.cfg.SamplingRate
	}
	if ep := c.probe(i, sample.Config{}); ep != nil {
		c.adopt(i, ep.Result.MRC)
	}
}

// capture runs one probing period on machine i and keeps the whole gang
// running, cycle-interleaved, until the log fills — co-runners continue
// to contend for the cache during the capture, exactly as they would on
// the real machine. Samples flow from the PMU into sink as they are
// recorded, so no trace log is materialized; settled, when non-nil, is
// polled after every step with the instructions retired since the
// capture began and ends the period early by returning true. The
// machine's metrics cover exactly the capture window.
func (c *Controller) capture(i int, sink pmu.Sink, settled func(instr uint64) bool) pmu.TraceStats {
	m := c.machines[i]
	p := m.PMU()
	m.ResetMetrics()
	start := m.Core().Instructions()
	p.StartTraceTo(sink, c.cfg.TraceEntries, start, m.Core().Cycles())
	for !p.TraceFull() {
		platform.NextByCycles(c.machines).Step()
		if settled != nil && settled(m.Core().Instructions()-start) {
			break
		}
	}
	_, st := p.FinishTrace(m.Core().Instructions(), m.Core().Cycles())
	c.stats.ProbedEntries += st.Captured
	return st
}

// probe is the engine tier: a profiling session at the given sampling
// configuration (zero for full rate) fed by one capture. When epoch
// snapshots are enabled the capture ends early once the in-flight curve
// settles, so a recomputation costs only as many entries as the curve
// actually needs. The returned epoch's curve is anchored at the current
// partition size; nil means a degenerate capture (cannot happen with
// sane configs), which keeps the old curve.
func (c *Controller) probe(i int, sampling sample.Config) *service.Epoch {
	sess, err := c.pool.Open(service.TenantConfig{
		Engine: core.DefaultConfig(), Target: c.cfg.TraceEntries, Sampling: sampling,
	})
	if err != nil {
		return nil
	}
	defer sess.Close()
	var settled func(uint64) bool
	if c.cfg.SnapshotEntries > 0 && c.cfg.ConvergedMPKI > 0 {
		window := c.cfg.ConvergenceWindow
		if window <= 0 {
			window = DefaultConvergenceWindow
		}
		conv := phase.NewConvergence(c.cfg.ConvergedMPKI, window)
		next := c.cfg.SnapshotEntries
		settled = func(instr uint64) bool {
			if sess.Consumed() < next {
				return false
			}
			next += c.cfg.SnapshotEntries
			ep, err := sess.Snapshot(instr)
			return err == nil && conv.Observe(ep.Result.MRC) // warming epochs never settle
		}
	}
	st := c.capture(i, pmu.SinkFunc(func(l mem.Line) { sess.Feed([]uint64{uint64(l)}) }), settled)
	ep, err := sess.Snapshot(st.Instructions)
	if err != nil {
		return nil
	}
	c.anchor(i, ep.Result.MRC)
	return ep
}

// approxProbe is the analytical tier: the same capture, but samples feed
// a reuse-time sampler instead of a Mattson engine — O(1) per sample, no
// stack walks, no engine drawn from the pool — and the curve comes from
// the characteristic-time estimator. It keeps the estimate and reports
// true only when the shared tier decision trusts it: uncertainty within
// ApproxThreshold and the two estimators in agreement, exactly as the
// service decides. The probe never ends early: without engine snapshots
// there is no convergence signal, but the sampler's per-sample cost is a
// small fraction of a stack update, so the full-length capture is still
// far cheaper.
func (c *Controller) approxProbe(i int) bool {
	smp, err := approx.NewSampler(core.DefaultConfig(), c.cfg.TraceEntries)
	if err != nil {
		return false
	}
	var corr core.StreamCorrector
	st := c.capture(i, pmu.SinkFunc(func(l mem.Line) { smp.Feed(corr.Feed(l)) }), nil)
	pol := approx.NewPolicy(approx.PolicyConfig{Threshold: c.cfg.ApproxThreshold})
	est, d := approx.Assess(pol, smp, st.Instructions, false)
	if d.Tier != approx.TierAnalytical {
		c.stats.ApproxEscalations++
		return false
	}
	c.anchor(i, est.MRC)
	c.adopt(i, est.MRC)
	c.stats.ApproxProfiles++
	return true
}

// anchor transposes a fresh curve to the current partition size using
// the miss rate measured over the capture window itself — any other
// window risks anchoring one phase's curve with another phase's miss
// rate.
func (c *Controller) anchor(i int, mrc *core.MRC) {
	mrc.Transpose(c.alloc[i]-1, c.machines[i].Metrics().MPKI())
}

// adopt makes mrc application i's current curve.
func (c *Controller) adopt(i int, mrc *core.MRC) {
	c.curves[i] = mrc
	c.stats.Recomputations++
}

// curveDistance is the banked cross-validation metric: mean absolute
// MPKI distance between the curves, normalized by the banked curve's
// mean level. Two captures of the same phase land well under 1; a phase
// the detector missed (or a sampled curve that went wrong) shows up as
// a large relative distance.
func curveDistance(got, banked *core.MRC) float64 {
	n := len(got.MPKI)
	if len(banked.MPKI) < n {
		n = len(banked.MPKI)
	}
	if n == 0 {
		return 0
	}
	var diff, level float64
	for i := 0; i < n; i++ {
		d := got.MPKI[i] - banked.MPKI[i]
		if d < 0 {
			d = -d
		}
		diff += d
		level += banked.MPKI[i]
	}
	if level <= 0 {
		if diff > 0 {
			return 1
		}
		return 0
	}
	return diff / level
}

// maybeRepartition re-optimizes the allocation when every application has
// a curve and the predicted gain clears the hysteresis.
func (c *Controller) maybeRepartition() {
	for _, cv := range c.curves {
		if cv == nil {
			return
		}
	}
	proposed := partition.ChooseN(c.curves, c.cfg.Colors)
	same := true
	for i := range proposed {
		if proposed[i] != c.alloc[i] {
			same = false
		}
	}
	if same {
		return
	}
	gain := partition.TotalMisses(c.curves, c.alloc) - partition.TotalMisses(c.curves, proposed)
	if gain < c.cfg.MinGainMPKI {
		return
	}
	sets := partition.Sets(proposed)
	for i, m := range c.machines {
		c.stats.PagesMigrated += m.Repartition(sets[i])
	}
	c.alloc = proposed
	c.stats.Repartitions++
}

// Run executes n monitoring intervals of closed-loop control.
func (c *Controller) Run(n int) Stats {
	for iv := 0; iv < n; iv++ {
		mpki := c.runInterval()
		c.stats.Intervals++
		for i := range c.machines {
			if c.detectors[i].Observe(mpki[i]) {
				c.stats.Transitions++
				c.pending[i] = true
				// A new phase invalidates the stability the progressive
				// sampling rate was earned under.
				if c.sampleRate != nil {
					c.sampleRate[i] = c.cfg.SamplingRate
				}
			}
			// Initial profile once the detector has a baseline. The
			// lifetime interval counter matters here: Run may be called
			// one interval at a time.
			if c.curves[i] == nil && c.stats.Intervals > c.cfg.Detector.Window {
				c.pending[i] = true
			}
			// Probing during a transition would capture a phase mixture;
			// wait until the miss rate settles (§5.2.2's lengthy
			// transitions end when the rate stops moving) — but never
			// defer more than a few intervals, or a volatile application
			// would starve the controller of fresh curves.
			if c.pending[i] {
				c.pendingAge[i]++
			}
			const maxDefer = 4
			if c.pending[i] && (!c.detectors[i].InTransition() || c.pendingAge[i] >= maxDefer) {
				c.reprofile(i)
				c.pending[i] = false
				c.pendingAge[i] = 0
			}
		}
		c.maybeRepartition()
		c.stats.Allocations = append(c.stats.Allocations, c.Alloc())
	}
	return c.stats
}

// DebugCurves summarizes the current curves for diagnostics: each curve's
// 1-, 8- and 16-color points.
func (c *Controller) DebugCurves() string {
	out := ""
	for i, cv := range c.curves {
		if cv == nil {
			out += fmt.Sprintf("[%d:nil]", i)
			continue
		}
		out += fmt.Sprintf("[%d: %.1f/%.1f/%.1f]", i, cv.At(1), cv.At(8), cv.At(16))
	}
	return out
}
