package service

import (
	"strconv"
	"sync"
	"sync/atomic"

	"rapidmrc/internal/approx"
	"rapidmrc/internal/core"
	"rapidmrc/internal/phase"
	"rapidmrc/internal/sample"
)

// TenantConfig parameterizes one registered workload. Its profiling
// fields — Engine, Target, NoCorrection, Sampling, Approx — are also the
// spec EnginePool.Open starts a Session from.
type TenantConfig struct {
	// Target is the probing-period length in log entries — the basis of
	// the engine's static-warmup fallback, exactly as in
	// sample.NewEngine. Zero uses DefaultTarget.
	Target int
	// NoCorrection disables the streaming prefetch-repetition rewrite
	// (the zero value keeps the paper's correction on).
	NoCorrection bool
	// MaxQueued bounds the tenant's ingest queue in entries
	// (queued + in-flight). Zero uses the service default.
	MaxQueued int
	// EpochEntries > 0 auto-snapshots the live curve every that many
	// entries fed, so polls can read the latest epoch without forcing a
	// recompute. Zero disables auto-epochs (snapshots on demand only).
	EpochEntries int
	// Engine overrides the compute configuration; the zero value uses
	// core.DefaultConfig() with unpriced walks (CostPerWalk 0), so the
	// stack skips the walk model and an epoch's ModelCycles is
	// entries×CostFixed. A config with CostPerWalk > 0 keeps the paper's
	// full modeled cost.
	Engine core.Config
	// Approx configures the analytical serving tier (see internal/approx).
	// A Threshold ≤ 0 disables the tier for this tenant, making every
	// Serve a full simulation.
	Approx approx.PolicyConfig
	// Sampling configures SHARDS spatial sampling (see internal/sample):
	// a Rate in (0, 1] profiles this tenant through the hash-threshold
	// sampled engine, whose epochs carry confidence bands. A zero Rate
	// profiles at full rate; any other Rate fails Validate.
	Sampling sample.Config
}

// DefaultTarget is the paper's probing-period length (§5.2.3).
const DefaultTarget = 160_000

// Epoch is one snapshot of a session's (a tenant's) live curve.
type Epoch struct {
	// Entries is the number of log entries fed when the snapshot was
	// taken; Instructions the accumulated application progress.
	Entries      int
	Instructions uint64
	// Result is the raw (untransposed) computation result.
	Result *core.Result
	// Converted counts prefetch-repetition rewrites so far.
	Converted int
	// Tier and TierReason describe how this epoch was produced when it
	// came through Serve: TierAnalytical epochs carry an estimator curve
	// (Result.Hist is nil), TierSimulated epochs a full engine snapshot.
	// Plain Snapshot/Live epochs are TierSimulated with an empty reason.
	Tier       approx.Tier
	TierReason string
	// Estimator names the analytical model behind a TierAnalytical epoch.
	Estimator string
	// Uncertainty and Disagreement are the serving decision's inputs (0
	// when the analytical tier is off or still warming).
	Uncertainty  float64
	Disagreement float64
	// SamplingRate is the effective SHARDS sampling rate behind this
	// epoch (0 when the tenant profiles unsampled); BandLow/BandHigh the
	// per-point confidence band at sample.DefaultLevel, and EffSamples
	// the Kish effective sample size behind it. Bands collapse onto the
	// curve at rate 1.0.
	SamplingRate float64
	BandLow      []float64
	BandHigh     []float64
	EffSamples   float64
}

// TenantStats is one tenant's counter snapshot, for /metrics and
// /tenants/{id}/stats.
type TenantStats struct {
	ID string
	// Entries is the number of log entries fed into the engine;
	// Instructions the accumulated progress reported with them.
	Entries      int
	Instructions uint64
	// QueuedEntries and QueuedBatches describe the ingest queue;
	// InFlightEntries is the batch currently being computed.
	QueuedEntries   int
	QueuedBatches   int
	InFlightEntries int
	// Batches counts accepted ingest batches; Sheds counts rejected
	// ones (per-tenant bound or global budget).
	Batches int
	Sheds   int
	// Epochs counts snapshots taken (auto and on demand);
	// LastEpochNanos is the latest snapshot's compute latency.
	Epochs         int
	LastEpochNanos int64
	// Converted, Warming mirror the engine state.
	Converted bool
	Warming   bool
	// Closed reports a finalized (evicted or drained) tenant.
	Closed bool
	// Tier and TierReason echo the last serving decision ("simulated"
	// before any Serve); Uncertainty its analytical-estimate score.
	Tier        string
	TierReason  string
	Uncertainty float64
	// CrossValError is the last cross-validation of the analytical
	// estimate against a real simulated snapshot, as mean absolute MPKI
	// distance (§5.2.1 metric); -1 until one has been measured.
	CrossValError float64
	// ApproxServed / SimServed / Escalations are the tiered policy's
	// decision counters; PhaseTransitions counts detector firings at
	// auto-epoch boundaries.
	ApproxServed     int
	SimServed        int
	Escalations      int
	PhaseTransitions int
	// SamplingRate is the effective SHARDS sampling rate (0 when the
	// tenant profiles unsampled). BandWidthMPKI is the mean
	// confidence-band width of the latest epoch (0 unsampled or at rate
	// 1.0).
	SamplingRate  float64
	BandWidthMPKI float64
}

// batch is one accepted ingest unit.
type batch struct {
	lines []uint64
	instr uint64
}

// Tenant is one registered workload: a profiling Session and a bounded
// ingest queue drained by a dedicated worker goroutine. Producers never
// block: a full queue or an exhausted global budget sheds the batch with
// a typed error. Tenants are created by Service.Register.
type Tenant struct {
	id  string
	svc *Service
	cfg TenantConfig

	// mu guards the session, detector, and last epoch. The worker holds
	// it while feeding a batch; snapshots and serves hold it while
	// computing.
	mu   sync.Mutex
	sess *Session //rapidmrc:guardedby mu (closed once finalized: engine returned to the pool)
	last *Epoch   //rapidmrc:guardedby mu
	next int      //rapidmrc:guardedby mu (next auto-epoch boundary, entries)

	// With the analytical tier on, the detector observes the largest-size
	// MPKI of each auto-epoch as its interval miss rate; phasePending
	// latches a detected transition until the next serving decision
	// consumes it. Both are nil/false with the tier off.
	det          *phase.Detector //rapidmrc:guardedby mu
	phasePending bool            //rapidmrc:guardedby mu

	// qmu guards the ingest queue and lifecycle flags. qcond wakes the
	// worker (work arrived, or closing); dcond wakes Flush waiters
	// (queue fully drained, or worker exited).
	qmu      sync.Mutex
	qcond    *sync.Cond
	dcond    *sync.Cond
	queue    []batch //rapidmrc:guardedby qmu
	head     int     //rapidmrc:guardedby qmu
	qentries int     //rapidmrc:guardedby qmu
	inflight int     //rapidmrc:guardedby qmu
	closed   bool    //rapidmrc:guardedby qmu
	closeErr error   //rapidmrc:guardedby qmu
	discard  bool    //rapidmrc:guardedby qmu
	exited   bool    //rapidmrc:guardedby qmu

	done chan struct{}

	entries atomic.Int64
	instr   atomic.Uint64
	batches atomic.Int64
	sheds   atomic.Int64
}

// newTenant builds a tenant over an open session and starts its worker.
func newTenant(id string, svc *Service, cfg TenantConfig, sess *Session) *Tenant {
	//rapidmrc:unbounded done is a close-only completion signal; nothing ever sends on it
	t := &Tenant{id: id, svc: svc, cfg: cfg, sess: sess, done: make(chan struct{})}
	if sess.policy != nil {
		t.det = phase.New(phase.DefaultConfig())
	}
	if cfg.EpochEntries > 0 {
		t.next = cfg.EpochEntries
	}
	t.qcond = sync.NewCond(&t.qmu)
	t.dcond = sync.NewCond(&t.qmu)
	go t.run()
	return t
}

// ID returns the tenant's registry key.
func (t *Tenant) ID() string { return t.id }

// Feed offers one batch of raw logged cache-line addresses, with the
// application's instruction progress over the batch. It never blocks:
// the batch is copied into the bounded ingest queue, or rejected — with
// a *ShedError (matching ErrOverloaded) when the tenant's queue or the
// service's global admission budget is full, or the tenant's closing
// error once it is finalized.
func (t *Tenant) Feed(lines []uint64, instructions uint64) error {
	n := len(lines)
	if n == 0 {
		return nil
	}
	t.qmu.Lock()
	if t.closed {
		err := t.closeErr
		t.qmu.Unlock()
		return err
	}
	if t.qentries+t.inflight+n > t.cfg.MaxQueued {
		queued := t.qentries + t.inflight
		t.qmu.Unlock()
		t.sheds.Add(1)
		return &ShedError{Tenant: t.id, Entries: n, Queued: queued, Limit: t.cfg.MaxQueued}
	}
	if !t.svc.tryAcquire(n) {
		queued := t.qentries + t.inflight
		t.qmu.Unlock()
		t.sheds.Add(1)
		return &ShedError{Tenant: t.id, Entries: n, Queued: queued,
			Limit: t.svc.cfg.GlobalBudget, Global: true}
	}
	cp := make([]uint64, n)
	copy(cp, lines)
	t.queue = append(t.queue, batch{lines: cp, instr: instructions})
	t.qentries += n
	t.qcond.Signal()
	t.qmu.Unlock()
	t.batches.Add(1)
	return nil
}

// run is the tenant's worker: it drains the ingest queue into the engine
// one batch at a time, releasing the global budget as batches complete
// and taking auto-epoch snapshots at the configured cadence.
func (t *Tenant) run() {
	defer close(t.done)
	for {
		t.qmu.Lock()
		for t.head == len(t.queue) && !t.closed {
			t.qcond.Wait()
		}
		if t.head == len(t.queue) && t.closed {
			discard := t.discard
			t.exited = true
			t.dcond.Broadcast()
			t.qmu.Unlock()
			if !discard {
				// Graceful close (drain): cache a final epoch so the
				// curve stays readable via Live after the engine is gone.
				t.mu.Lock()
				if !t.sess.Closed() && !t.sess.Warming() {
					if ep, err := t.sess.Snapshot(t.instr.Load()); err == nil {
						t.last = ep
					}
				}
				t.mu.Unlock()
			}
			t.recycle()
			return
		}
		b := t.queue[t.head]
		t.queue[t.head] = batch{}
		t.head++
		if t.head == len(t.queue) {
			t.queue = t.queue[:0]
			t.head = 0
		}
		t.qentries -= len(b.lines)
		t.inflight = len(b.lines)
		discard := t.discard
		t.qmu.Unlock()

		if !discard {
			t.consume(b)
		}
		t.svc.release(len(b.lines))

		t.qmu.Lock()
		t.inflight = 0
		if t.head == len(t.queue) {
			t.dcond.Broadcast()
		}
		t.qmu.Unlock()
	}
}

// consume feeds one batch into the engine and takes any due auto-epoch.
func (t *Tenant) consume(b batch) {
	t.mu.Lock()
	t.sess.Feed(b.lines)
	t.entries.Add(int64(len(b.lines)))
	t.instr.Add(b.instr)
	if t.cfg.EpochEntries > 0 && t.sess.Consumed() >= t.next && !t.sess.Warming() {
		if ep, err := t.sess.Snapshot(t.instr.Load()); err == nil {
			t.last = ep
			t.observeEpochLocked(ep)
		}
		for t.next <= t.sess.Consumed() {
			t.next += t.cfg.EpochEntries
		}
	}
	t.mu.Unlock()
}

// observeEpochLocked runs the analytical tier's bookkeeping against a
// fresh simulated epoch: the phase detector consumes the epoch's
// largest-size MPKI as its interval miss rate (a detected transition is
// latched until the next serving decision).
//
//rapidmrc:locked mu
func (t *Tenant) observeEpochLocked(ep *Epoch) {
	if t.det != nil {
		mpki := ep.Result.MRC.MPKI
		if t.det.Observe(mpki[len(mpki)-1]) {
			t.phasePending = true
		}
	}
}

// Snapshot computes a fresh epoch from everything fed so far. With wait
// set it first flushes the ingest queue, so the snapshot covers every
// accepted batch — the read used for final, bit-exact curves. It fails
// with the closing error once the tenant is finalized, or while warmup
// has consumed everything fed.
func (t *Tenant) Snapshot(wait bool) (*Epoch, error) {
	if wait {
		t.Flush()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sess.Closed() {
		return nil, t.finalErr()
	}
	return t.sess.Snapshot(t.instr.Load())
}

// Live returns the latest epoch without forcing a recompute: the last
// auto-epoch (or explicit snapshot) if one exists, otherwise a fresh
// snapshot attempt.
func (t *Tenant) Live() (*Epoch, error) {
	t.mu.Lock()
	if t.last != nil {
		ep := t.last
		t.mu.Unlock()
		return ep, nil
	}
	t.mu.Unlock()
	return t.Snapshot(false)
}

// Serve is the tiered read path (see Session.Serve): with the analytical
// tier enabled it serves the trusted estimate or escalates to a full
// engine snapshot — on uncertainty, estimator disagreement, or a phase
// change detected since the last serve — and caches a simulated epoch as
// the latest. With the tier disabled (or the tenant finalized) it
// behaves exactly like the classic read path: Snapshot(true) under wait,
// Live() otherwise.
func (t *Tenant) Serve(wait bool) (*Epoch, error) {
	if wait {
		t.Flush()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tiered := t.sess.policy != nil && !t.sess.Closed()
	if !tiered && !wait && t.last != nil {
		cp := *t.last
		cp.Tier = approx.TierSimulated
		cp.TierReason = "disabled"
		return &cp, nil
	}
	if t.sess.Closed() {
		return nil, t.finalErr()
	}
	ep, err := t.sess.Serve(t.instr.Load(), t.phasePending)
	t.phasePending = false
	if err != nil {
		return nil, err
	}
	if tiered && ep.Tier == approx.TierSimulated {
		t.last = ep
	}
	return ep, nil
}

// Flush blocks until the ingest queue is fully drained (or the worker
// has exited). The wait is bounded: the queue is capacity-limited and
// only drains.
func (t *Tenant) Flush() {
	t.qmu.Lock()
	for (t.head != len(t.queue) || t.inflight > 0) && !t.exited {
		t.dcond.Wait()
	}
	t.qmu.Unlock()
}

// Stats returns the tenant's counter snapshot.
func (t *Tenant) Stats() TenantStats {
	st := TenantStats{
		ID:           t.id,
		Entries:      int(t.entries.Load()),
		Instructions: t.instr.Load(),
		Batches:      int(t.batches.Load()),
		Sheds:        int(t.sheds.Load()),
	}
	t.qmu.Lock()
	st.QueuedEntries = t.qentries
	st.QueuedBatches = len(t.queue) - t.head
	st.InFlightEntries = t.inflight
	st.Closed = t.closed
	t.qmu.Unlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	sess := t.sess
	st.Epochs = sess.epochs
	st.LastEpochNanos = sess.lastNanos
	st.Converted = sess.corr != nil
	st.Warming = sess.Warming()
	st.Tier = sess.decision.Tier.String()
	st.TierReason = sess.decision.Reason
	st.Uncertainty = sess.decision.Uncertainty
	st.CrossValError = sess.crossVal
	if sess.policy != nil {
		p := sess.policy.Stats()
		st.ApproxServed, st.SimServed, st.Escalations = p.Analytical, p.Simulated, p.Escalations
	}
	if t.det != nil {
		st.PhaseTransitions = t.det.Transitions()
	}
	st.SamplingRate = sess.rate
	if t.last != nil {
		st.BandWidthMPKI = sample.Bands{Low: t.last.BandLow, High: t.last.BandHigh}.Width()
	}
	return st
}

// crossValError returns the session's last banked estimate-vs-simulation
// error (TenantStats.CrossValError) without building the full Stats.
func (t *Tenant) crossValError() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sess.crossVal
}

// close finalizes the tenant: subsequent feeds fail with reason, and the
// worker exits once the queue empties — draining it into the engine, or
// discarding it (releasing the budget either way). Idempotent.
func (t *Tenant) close(reason error, discard bool) {
	t.qmu.Lock()
	if !t.closed {
		t.closed = true
		t.closeErr = reason
		t.discard = discard
	}
	t.qcond.Broadcast()
	t.qmu.Unlock()
}

// recycle closes the session once the worker has exited, returning its
// engine to the pool; any later Snapshot fails instead of touching a
// recycled engine.
func (t *Tenant) recycle() {
	t.mu.Lock()
	t.sess.Close()
	t.mu.Unlock()
}

// finalErr is the error a finalized tenant's reads fail with.
func (t *Tenant) finalErr() error {
	t.qmu.Lock()
	defer t.qmu.Unlock()
	if t.closeErr != nil {
		return t.closeErr
	}
	return ErrStreamClosed
}

// String implements fmt.Stringer for diagnostics.
func (t *Tenant) String() string {
	return "tenant " + t.id + " (" + strconv.Itoa(int(t.entries.Load())) + " entries)"
}
