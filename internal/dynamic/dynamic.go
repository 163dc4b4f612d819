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

	"rapidmrc/internal/color"
	"rapidmrc/internal/core"
	"rapidmrc/internal/partition"
	"rapidmrc/internal/phase"
	"rapidmrc/internal/platform"
	"rapidmrc/internal/pmu"
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
	// Pool supplies (and reclaims) the stream engines the controller's
	// recomputations run on, so repeated probing periods reset and reuse
	// engine state instead of reallocating it. Nil gets a private pool.
	Pool *service.EnginePool
}

// convergenceWindow is how many consecutive settled snapshot pairs end
// a probing period early (the phase.NewConvergence window).
const convergenceWindow = 2

// DefaultConfig returns sensible controller parameters.
func DefaultConfig() Config {
	return Config{
		IntervalInstr:   1_000_000,
		TraceEntries:    40_000,
		Detector:        phase.DefaultConfig(),
		MinGainMPKI:     0.5,
		Colors:          color.NumColors,
		SnapshotEntries: 8_000,
		ConvergedMPKI:   0.25,
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

// runInterval advances every machine by one monitoring interval under
// cycle-synchronized interleaving and returns each one's interval MPKI.
func (c *Controller) runInterval() []float64 {
	targets := make([]uint64, len(c.machines))
	for i, m := range c.machines {
		m.ResetMetrics()
		targets[i] = m.Core().Instructions() + c.cfg.IntervalInstr
	}
	platform.RunGang(c.machines, targets)
	mpki := make([]float64, len(c.machines))
	for i, m := range c.machines {
		mpki[i] = m.Metrics().MPKI()
	}
	return mpki
}

// reprofile recomputes application i's curve with one engine probe and
// adopts it; a degenerate capture keeps the old curve.
func (c *Controller) reprofile(i int) {
	if mrc := c.probe(i); mrc != nil {
		c.curves[i] = mrc
		c.stats.Recomputations++
	}
}

// probe runs one probing period on machine i into a pooled exact
// profiling session and keeps the whole gang running, cycle-interleaved,
// until the log fills — co-runners continue to contend for the cache
// during the capture, exactly as they would on the real machine. The
// session is fed by Session.RunPeriod on a feeder goroutine while
// the gang steps, so no trace log is kept. When epoch snapshots are
// enabled the capture ends early once the in-flight curve settles, after
// the step that logged the settling epoch's last entry, so a
// recomputation costs only as many entries as the curve actually needs.
// The returned curve is transposed to the current partition size using
// the miss rate measured over the capture window itself — any other
// window risks anchoring one phase's curve with another phase's miss
// rate. Nil means a degenerate capture (cannot happen with sane configs).
func (c *Controller) probe(i int) *core.MRC {
	sess, err := c.pool.Open(service.TenantConfig{
		Engine: core.DefaultConfig(), Target: c.cfg.TraceEntries,
	})
	if err != nil {
		return nil
	}
	defer sess.Close()

	m := c.machines[i]
	p := m.PMU()
	m.ResetMetrics()
	start := m.Core().Instructions()
	var st pmu.TraceStats
	period := service.Period{
		Capture: func(rec *service.Recorder) {
			p.StartTrace(rec, c.cfg.TraceEntries, start, m.Core().Cycles())
			for !p.TraceFull() {
				platform.NextByCycles(c.machines).Step()
			}
			st = p.FinishTrace(m.Core().Instructions(), m.Core().Cycles())
		},
	}
	if c.cfg.SnapshotEntries > 0 && c.cfg.ConvergedMPKI > 0 {
		conv := phase.NewConvergence(c.cfg.ConvergedMPKI, convergenceWindow)
		period.EpochEntries = c.cfg.SnapshotEntries
		period.Clock = func(int) uint64 { return m.Core().Instructions() - start }
		period.OnEpoch = func(ep *service.Epoch) bool { return conv.Observe(ep.Result.MRC) }
	}
	sess.RunPeriod(period)
	c.stats.ProbedEntries += st.Captured

	ep, err := sess.Snapshot(st.Instructions)
	if err != nil {
		return nil
	}
	mrc := ep.Result.MRC
	mrc.Transpose(c.alloc[i]-1, m.Metrics().MPKI())
	return mrc
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
