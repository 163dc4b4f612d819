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
// property tests pin the results bit-identical to the pre-service serial
// engines.
package service

import (
	"errors"
	"slices"
	"strconv"
	"sync"

	"rapidmrc/internal/core"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/sample"
)

// Engine is the incremental compute core a session drives: the serial
// core.StreamEngine (O(stack) memory, O(points) snapshots), the
// chunk-parallel core.Feeder (buffers the trace, snapshots recompute
// in parallel), or the SHARDS-sampled sample.Engine. The exact engines
// produce bit-identical results for the same feed sequence, and so does
// the sampled one at rate 1.0.
type Engine interface {
	Feed(mem.Line)
	Consumed() int
	Warming() bool
	Snapshot(instructions uint64) (*core.Result, error)
}

// PoolStats counts pool traffic, for the metrics endpoint.
type PoolStats struct {
	// IdleSerial, IdleParallel, and IdleSampled are the engines
	// currently retained.
	IdleSerial, IdleParallel, IdleSampled int
	// Hits counts Gets served by resetting a retained engine; Misses
	// counts Gets that had to construct; Drops counts Puts discarded
	// because the pool was at capacity.
	Hits, Misses, Drops int
}

// engineKey is what a retained engine must match to serve a request:
// the compute configuration, the sampling configuration (the rate sizes
// the scaled stack, so a mismatch cannot be Reset away), and whether it
// is the chunk-parallel feeder.
type engineKey struct {
	cfg      core.Config
	sampling sample.Config
	parallel bool
}

// Engine kinds, the per-kind retention bound's and PoolStats' unit.
const (
	kindSerial = iota
	kindParallel
	kindSampled
	numKinds
)

func (k engineKey) kind() int {
	switch {
	case k.parallel:
		return kindParallel
	case k.sampling != (sample.Config{}):
		return kindSampled
	}
	return kindSerial
}

// keyOf returns a pooled engine's key; ok is false for nil and foreign
// Engine implementations.
func keyOf(e Engine) (k engineKey, ok bool) {
	switch e := e.(type) {
	case *core.StreamEngine:
		return engineKey{cfg: e.Config()}, true
	case *core.Feeder:
		return engineKey{cfg: e.Config(), parallel: true}, true
	case *sample.Engine:
		return engineKey{cfg: e.Config(), sampling: e.SampleConfig()}, true
	}
	return engineKey{}, false
}

// idleEngine is one retained engine with its matching key.
type idleEngine struct {
	key engineKey
	eng Engine
}

// EnginePool recycles stream engines across sessions and tenants. A
// request either resets a retained engine of the matching configuration
// or constructs a fresh one; Put returns an engine for reuse, dropping it
// when the pool already holds its capacity of that kind (the bound keeps
// a burst of evictions from pinning engine memory forever). The zero
// value is not usable; use NewEnginePool. All methods are safe for
// concurrent use.
//
// Reset-and-reuse is bit-identity-preserving: a recycled engine produces
// exactly the results a newly constructed one would, pinned by the pool
// property tests.
type EnginePool struct {
	mu       sync.Mutex
	capacity int          // immutable after construction
	idle     []idleEngine //rapidmrc:guardedby mu
	hits     int          //rapidmrc:guardedby mu
	misses   int          //rapidmrc:guardedby mu
	drops    int          //rapidmrc:guardedby mu
}

// DefaultPoolCapacity bounds how many idle engines of each kind a pool
// retains when the caller does not choose.
const DefaultPoolCapacity = 64

// NewEnginePool returns a pool retaining at most capacity idle engines
// of each kind (serial, parallel, sampled); capacity <= 0 uses
// DefaultPoolCapacity.
func NewEnginePool(capacity int) *EnginePool {
	if capacity <= 0 {
		capacity = DefaultPoolCapacity
	}
	return &EnginePool{capacity: capacity}
}

// Get returns an exact engine for one probing period: workers == 0
// selects the serial incremental engine, workers >= 1 the chunk-parallel
// feeder with that many chunk passes. Profiling callers open a Session
// instead, which also validates and picks the sampled engine.
func (p *EnginePool) Get(cfg core.Config, target, workers int) (Engine, error) {
	return p.get(engineKey{cfg: cfg, parallel: workers > 0}, target, workers)
}

// get resets a retained engine matching k or constructs a fresh one. An
// invalid target is rejected before the free list is touched, so a bad
// request neither consumes a retained engine nor counts as a hit.
func (p *EnginePool) get(k engineKey, target, workers int) (Engine, error) {
	if target <= 0 {
		return nil, errors.New("service: engine target " + strconv.Itoa(target) + " must be positive")
	}
	switch e := p.take(k).(type) {
	case *core.Feeder:
		return e, e.Reset(target, workers)
	case *core.StreamEngine:
		return e, e.Reset(target)
	case *sample.Engine:
		return e, e.Reset(target)
	}
	switch k.kind() {
	case kindParallel:
		return core.NewFeeder(k.cfg, target, workers)
	case kindSampled:
		return sample.NewEngine(k.cfg, k.sampling, target)
	}
	return core.NewStreamEngine(k.cfg, target)
}

// take pops the most recently retained engine matching k, or returns nil.
func (p *EnginePool) take(k engineKey) Engine {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.idle) - 1; i >= 0; i-- {
		if p.idle[i].key == k {
			e := p.idle[i].eng
			p.idle = slices.Delete(p.idle, i, i+1)
			p.hits++
			return e
		}
	}
	p.misses++
	return nil
}

// Put returns an engine to the pool. Engines beyond the pool's capacity
// for their kind, and nil or foreign Engine implementations, are
// discarded.
func (p *EnginePool) Put(e Engine) {
	k, ok := keyOf(e)
	if !ok {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.idleCounts()[k.kind()] >= p.capacity {
		p.drops++
		return
	}
	p.idle = append(p.idle, idleEngine{key: k, eng: e})
}

// idleCounts counts the retained engines by kind.
//
//rapidmrc:locked mu
func (p *EnginePool) idleCounts() [numKinds]int {
	var n [numKinds]int
	for _, r := range p.idle {
		n[r.key.kind()]++
	}
	return n
}

// Stats returns a snapshot of the pool's counters.
func (p *EnginePool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	idle := p.idleCounts()
	return PoolStats{
		IdleSerial:   idle[kindSerial],
		IdleParallel: idle[kindParallel],
		IdleSampled:  idle[kindSampled],
		Hits:         p.hits,
		Misses:       p.misses,
		Drops:        p.drops,
	}
}
