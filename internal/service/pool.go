// Package service is the tenant-capable core behind the facade and the
// mrcd daemon: a registry of concurrently profiled workloads, a
// capacity-bounded pool that recycles compute engines across tenants
// (reset-and-reuse instead of reallocating the ~1.3 MB of stack, index,
// and histogram state each probing period costs), and explicit
// backpressure between capture and compute — bounded per-tenant ingest
// queues under a global admission budget, shedding with a typed error
// instead of blocking the producer.
//
// Every profiling path — service tenants, the facade's one-shot
// workflows and streams, and the dynamic controller's probes — runs as a
// Session opened from the pool, so a host serving hundreds of tenants
// and a single CLI invocation exercise identical compute paths; the
// property tests pin exact results bit-identical to core.Compute.
package service

import (
	"errors"
	"slices"
	"strconv"
	"sync"

	"rapidmrc/internal/core"
	"rapidmrc/internal/sample"
)

// PoolStats counts pool traffic, for the metrics endpoint.
type PoolStats struct {
	// Idle is the number of engines currently retained.
	Idle int
	// Hits counts Gets served by resetting a retained engine; Misses
	// counts Gets that had to construct; Drops counts Puts discarded
	// because the pool was at capacity.
	Hits, Misses, Drops int
}

// EnginePool recycles stream engines across sessions and tenants. A
// request either resets a retained engine of the matching configuration
// or constructs a fresh one; Put returns an engine for reuse, dropping it
// when the pool already holds its capacity (the bound keeps a burst of
// evictions from pinning engine memory forever). The zero value is not
// usable; use NewEnginePool. All methods are safe for concurrent use.
//
// Reset-and-reuse is bit-identity-preserving: a recycled engine produces
// exactly the results a newly constructed one would, pinned by the pool
// property tests.
type EnginePool struct {
	mu       sync.Mutex
	capacity int              // immutable after construction
	idle     []*sample.Engine //rapidmrc:guardedby mu
	hits     int              //rapidmrc:guardedby mu
	misses   int              //rapidmrc:guardedby mu
	drops    int              //rapidmrc:guardedby mu
}

// DefaultPoolCapacity bounds how many idle engines a pool retains when
// the caller does not choose.
const DefaultPoolCapacity = 64

// NewEnginePool returns a pool retaining at most capacity idle engines;
// capacity <= 0 uses DefaultPoolCapacity.
func NewEnginePool(capacity int) *EnginePool {
	if capacity <= 0 {
		capacity = DefaultPoolCapacity
	}
	return &EnginePool{capacity: capacity}
}

// Get returns an engine for one probing period of target entries,
// sampling at rate: 0 profiles exactly (the same as 1), anything else
// must lie in (0, 1]. Profiling callers open a Session instead, which
// also validates the rest of a TenantConfig.
func (p *EnginePool) Get(cfg core.Config, target int, rate float64) (*sample.Engine, error) {
	return p.get(cfg, sample.Config{Rate: rate}, target)
}

// get resets a retained engine matching (cfg, scfg) or constructs a
// fresh one. A retained engine must match the compute configuration and
// the normalized sampling configuration exactly (the rate sizes the
// scaled stack, so a mismatch cannot be Reset away). An invalid target
// or sampling configuration is rejected before the free list is
// touched, so a bad request neither consumes a retained engine nor
// counts as a hit.
func (p *EnginePool) get(cfg core.Config, scfg sample.Config, target int) (*sample.Engine, error) {
	if target <= 0 {
		return nil, errors.New("service: engine target " + strconv.Itoa(target) + " must be positive")
	}
	scfg = scfg.Normalize()
	if err := scfg.Validate(); err != nil {
		return nil, err
	}
	if e := p.take(cfg, scfg); e != nil {
		return e, e.Reset(target)
	}
	return sample.NewEngine(cfg, scfg, target)
}

// take pops the most recently retained engine built for (cfg, scfg), or
// returns nil.
func (p *EnginePool) take(cfg core.Config, scfg sample.Config) *sample.Engine {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.idle) - 1; i >= 0; i-- {
		if e := p.idle[i]; e.Config() == cfg && e.SampleConfig() == scfg {
			p.idle = slices.Delete(p.idle, i, i+1)
			p.hits++
			return e
		}
	}
	p.misses++
	return nil
}

// Put returns an engine to the pool. A nil engine, and engines beyond
// the pool's capacity, are discarded.
func (p *EnginePool) Put(e *sample.Engine) {
	if e == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) >= p.capacity {
		p.drops++
		return
	}
	p.idle = append(p.idle, e)
}

// Stats returns a snapshot of the pool's counters.
func (p *EnginePool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Idle:   len(p.idle),
		Hits:   p.hits,
		Misses: p.misses,
		Drops:  p.drops,
	}
}
