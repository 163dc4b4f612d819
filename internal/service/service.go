package service

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"rapidmrc/internal/core"
)

// Config parameterizes a Service.
type Config struct {
	// GlobalBudget bounds the total entries admitted but not yet
	// computed, across all tenants — the service-wide backstop that
	// keeps N misbehaving producers from queueing unbounded memory.
	// Zero uses DefaultGlobalBudget; negative disables the bound.
	GlobalBudget int
	// MaxQueued is the per-tenant ingest-queue bound (entries) applied
	// when a tenant's own config leaves it zero. Zero uses
	// DefaultMaxQueued.
	MaxQueued int
	// PoolCapacity bounds the idle-engine pool; zero uses
	// DefaultPoolCapacity.
	PoolCapacity int
}

// Service defaults.
const (
	// DefaultGlobalBudget admits about six probing periods' worth of
	// entries service-wide before shedding.
	DefaultGlobalBudget = 1 << 20
	// DefaultMaxQueued bounds one tenant's queue to well under half a
	// probing period.
	DefaultMaxQueued = 1 << 16
)

// Service is the tenant registry: it owns the engine pool, enforces the
// global admission budget, and hands out Tenants. The facade's one-shot
// entry points and the mrcd daemon both run on top of it. All methods
// are safe for concurrent use.
type Service struct {
	cfg  Config
	pool *EnginePool

	budget atomic.Int64 // remaining global admission budget, entries

	mu       sync.Mutex
	tenants  map[string]*Tenant //rapidmrc:guardedby mu
	draining bool               //rapidmrc:guardedby mu
}

// New returns a Service with the given configuration (zero fields
// defaulted as documented on Config).
func New(cfg Config) *Service {
	if cfg.GlobalBudget == 0 {
		cfg.GlobalBudget = DefaultGlobalBudget
	}
	if cfg.MaxQueued == 0 {
		cfg.MaxQueued = DefaultMaxQueued
	}
	s := &Service{
		cfg:     cfg,
		pool:    NewEnginePool(cfg.PoolCapacity),
		tenants: make(map[string]*Tenant),
	}
	s.budget.Store(int64(cfg.GlobalBudget))
	return s
}

// Pool returns the service's engine pool, shared with facade sessions.
func (s *Service) Pool() *EnginePool { return s.pool }

// Register creates a tenant under id and starts its worker. The tenant
// configuration is defaulted: zero Target becomes DefaultTarget, zero
// MaxQueued inherits the service's, and a zero Engine config becomes
// core.DefaultConfig() with CostPerWalk 0 (see TenantConfig.Engine). Its
// tiers (EpochEntries, Approx, Sampling) are the registration's own. The
// profiling session is then opened from the service's pool. It fails
// with ErrTenantExists if id is taken, ErrDraining during shutdown, or
// Open's error: a *ProfileError for an invalid Sampling field (a
// negative rate included), or the engine constructor's error for an
// invalid configuration.
func (s *Service) Register(id string, cfg TenantConfig) (*Tenant, error) {
	if id == "" {
		return nil, errors.New("service: empty tenant id")
	}
	if cfg.Target == 0 {
		cfg.Target = DefaultTarget
	}
	if cfg.MaxQueued == 0 {
		cfg.MaxQueued = s.cfg.MaxQueued
	}
	if cfg.Engine == (core.Config{}) {
		// No service surface reads a tenant's modeled cycles, so its
		// walks go unpriced and the stack skips the walk model.
		cfg.Engine = core.DefaultConfig()
		cfg.Engine.CostPerWalk = 0
	}
	sess, err := s.pool.Open(cfg)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		sess.Close()
		return nil, ErrDraining
	}
	if _, ok := s.tenants[id]; ok {
		s.mu.Unlock()
		sess.Close()
		return nil, ErrTenantExists
	}
	t := newTenant(id, s, cfg, sess)
	s.tenants[id] = t
	s.mu.Unlock()
	return t, nil
}

// Lookup returns the tenant registered under id, or ErrUnknownTenant.
func (s *Service) Lookup(id string) (*Tenant, error) {
	s.mu.Lock()
	t, ok := s.tenants[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrUnknownTenant
	}
	return t, nil
}

// Evict removes the tenant under id: pending queued batches are
// discarded, the worker exits, and its engine returns to the pool. It
// blocks until the worker has finished, so a successful Evict means the
// tenant holds no budget and no goroutine.
func (s *Service) Evict(id string) error {
	s.mu.Lock()
	t, ok := s.tenants[id]
	if ok {
		delete(s.tenants, id)
	}
	s.mu.Unlock()
	if !ok {
		return ErrUnknownTenant
	}
	t.close(ErrStreamClosed, true)
	<-t.done
	return nil
}

// Tenants returns the registered tenants, sorted by ID.
func (s *Service) Tenants() []*Tenant {
	s.mu.Lock()
	out := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Drain finalizes every tenant gracefully: registration and feeding stop
// (feeds fail with ErrDraining), queued batches are computed, and the
// call returns once every worker has exited and recycled its engine —
// the SIGTERM path of the daemon. Tenants stay registered so final
// curves remain readable; their Snapshots serve the drained state.
func (s *Service) Drain() {
	s.mu.Lock()
	s.draining = true
	ts := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	for _, t := range ts {
		t.close(ErrDraining, false)
	}
	for _, t := range ts {
		<-t.done
	}
}

// Stats aggregates the service-level counters.
type Stats struct {
	Tenants int
	// BudgetRemaining is the unconsumed global admission budget in
	// entries (-1 when the bound is disabled).
	BudgetRemaining int
	BudgetTotal     int
	Draining        bool
	Pool            PoolStats
}

// Stats returns a service-level counter snapshot.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	n := len(s.tenants)
	draining := s.draining
	s.mu.Unlock()
	remaining := -1
	if s.cfg.GlobalBudget > 0 {
		remaining = int(s.budget.Load())
	}
	return Stats{
		Tenants:         n,
		BudgetRemaining: remaining,
		BudgetTotal:     s.cfg.GlobalBudget,
		Draining:        draining,
		Pool:            s.pool.Stats(),
	}
}

// tryAcquire takes n entries from the global budget, failing without
// blocking when the budget cannot cover them.
func (s *Service) tryAcquire(n int) bool {
	if s.cfg.GlobalBudget < 0 {
		return true
	}
	for {
		cur := s.budget.Load()
		if cur < int64(n) {
			return false
		}
		if s.budget.CompareAndSwap(cur, cur-int64(n)) {
			return true
		}
	}
}

// release returns n entries to the global budget.
func (s *Service) release(n int) {
	if s.cfg.GlobalBudget < 0 {
		return
	}
	s.budget.Add(int64(n))
}
