package core

// The chunk-parallel form of Compute: one trace is split into K chunks,
// exact reuse distances are computed inside each chunk concurrently
// (Bennett–Kruskal marker counting, the PARDA decomposition), chunk
// boundaries are reconciled in a serial merge that resolves each chunk's
// first-touch references against the upstream chunks' last-access
// tables, and the resulting distance array is replayed through the same
// warmup, histogram, and cost-model loop as Compute. Results are
// bit-identical to Compute — the equivalence is property-tested against
// it — and a one-chunk run is Compute itself.
//
// Why this works: the capacity-limited stack distance of a reference is
// its unbounded LRU stack depth when that depth is ≤ StackLines, and
// Infinite otherwise (the LRU inclusion property — a line at depth d sits
// in every LRU cache of capacity ≥ d and no smaller one). The unbounded
// depth is 1 + the number of distinct lines touched since the previous
// access, which decomposes cleanly across a chunk boundary: distinct
// lines strictly inside the chunk prefix (the first-touch record index)
// plus distinct lines between the previous access and the chunk start
// that are not re-touched in the prefix (a marker-tree range count during
// the merge). The cost model is then replayed from the distance sequence
// alone — see walkmodel.go.

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strconv"

	"rapidmrc/internal/mem"
	"rapidmrc/internal/runner"
)

// Distance-array sentinels. Resolved entries hold 1..StackLines for hits
// and StackLines+1 for capacity misses (any depth beyond the stack is
// equivalent — the serial engine reports them all as Infinite).
const (
	distCold       = -1 // first global touch: a cold miss
	distUnresolved = 0  // chunk-local first touch, pending the merge
)

// chunkRec is one first-touch record: the line, where it first appeared
// in the chunk (the distance-array slot the merge must fill), and its
// last access in the chunk (the marker position it contributes upstream).
// last lives in the line table while the chunk pass runs — the hit path
// must not touch a second random array — and is copied here by a single
// sequential fixup sweep before the merge reads it.
type chunkRec struct {
	line        mem.Line
	first, last int32
}

// chunk computes exact in-chunk reuse distances for refs[lo:hi] and
// collects the first-touch records the merge resolves. Each chunk owns
// its table and tree; only its own dist[lo:hi] range is written, so
// chunks run concurrently with no shared mutable state.
type chunk struct {
	lo, hi int
	recs   []chunkRec
	table  *lineTable
	tree   markerTree
	sink   uint64 // keeps the prefetch touch loop's loads observable
}

// run processes the chunk. capC is the stack capacity; distances beyond
// it are clamped to capC+1 (the merge and assembly never need the exact
// value of a miss).
func (c *chunk) run(refs []mem.Line, dist []int32, capC int32) {
	n := c.hi - c.lo
	c.tree.init(n)
	// Size for a ~50% distinct-line fraction: chunk boundaries turn every
	// cross-boundary reuse into a fresh first touch, so chunks see a far
	// higher distinct fraction than the whole trace — and a mid-run
	// rehash costs more than the larger initial clear.
	c.table = newLineTable(n/2 + 16)
	c.recs = make([]chunkRec, 0, n/2+16)
	local := refs[c.lo:c.hi]
	out := dist[c.lo:c.hi]
	// Software pipelining: the table is far larger than the cache, so
	// each probe is a memory stall — and probing refs one at a time
	// serializes those stalls behind the tree work. Touching the home
	// slots of a whole window first issues the loads independently, so
	// the misses overlap; the logic pass then probes warm lines. The
	// touch loop's XOR sink defeats dead-load elimination.
	var sink uint64
	for base := 0; base < n; base += probeWindow {
		m := base + probeWindow
		if m > n {
			m = n
		}
		for _, line := range local[base:m] {
			sink ^= uint64(c.table.slots[c.table.slot(line)].key)
		}
		for i := base; i < m; i++ {
			line := local[i]
			// First-probe fast path: the home slot resolves the great
			// majority of lookups at ≤50% load, and a slot's key never
			// changes once inserted — so a fresh hit here needs no call
			// and no probe walk.
			e := &c.table.slots[c.table.slot(line)]
			var j int32
			if e.key == line && e.val != 0 {
				j = e.last
				e.last = int32(i)
			} else {
				var seen bool
				j, seen = c.table.touch(line, int32(len(c.recs)), int32(i))
				if !seen {
					c.recs = append(c.recs, chunkRec{line: line, first: int32(i)})
					c.tree.mark(i)
					out[i] = distUnresolved
					continue
				}
			}
			// Every marker sits below i (only prior positions are marked),
			// so the markers strictly between j and i are the distinct
			// lines seen so far minus those marked at or below j.
			d := int32(len(c.recs)) - c.tree.prefixMove(int(j), i) + 1
			if d > capC {
				d = capC + 1
			}
			out[i] = d
		}
	}
	c.sink = sink
	// Fixup sweep: copy each line's final in-chunk position from the
	// table (val = record index, last = position) into its record, one
	// sequential pass over the slots.
	for si := range c.table.slots {
		e := &c.table.slots[si]
		if e.val != 0 {
			c.recs[e.val-1].last = e.last
		}
	}
}

// probeWindow is the software-pipelining width of the chunk pass's table
// probes — roughly the number of outstanding cache misses a core can
// sustain.
const probeWindow = 16

// merge resolves every chunk's first-touch records, in chunk order,
// against a global last-access view of all earlier chunks. For a record
// with B earlier first-touches in its chunk and previous global access p,
// the depth is B + |lines last-touched in (p, chunkStart)| + 1: the B
// in-chunk lines were all first-touched before this reference (records
// are in first-touch order), and processing records in that order has
// already moved their markers to positions ≥ chunkStart — so the range
// count over (p, chunkStart) counts exactly the upstream-only lines, with
// no double counting.
func merge(chunks []chunk, dist []int32, n int, capC int32) {
	var gtree markerTree
	gtree.init(n)
	gtable := newLineTable(n/4 + 16)
	var sink uint64
	for ci := range chunks {
		c := &chunks[ci]
		cs := c.lo
		// All of this chunk's range counts share cs as their upper end:
		// csPrefix tracks the markers below the chunk start. It only
		// changes when a seen record's move pulls its marker from p < cs
		// up to this chunk — one decrement, no requery.
		var csPrefix int32
		if cs > 0 {
			csPrefix = gtree.prefix(cs - 1)
		}
		touched := 0
		for bi := range c.recs {
			// Overlap gtable misses the same way the chunk pass does:
			// touch the home slots of the next record window before
			// probing any of them.
			if bi == touched {
				m := touched + probeWindow
				if m > len(c.recs) {
					m = len(c.recs)
				}
				for _, r := range c.recs[touched:m] {
					sink ^= uint64(gtable.slots[gtable.slot(r.line)].key)
				}
				touched = m
			}
			r := &c.recs[bi]
			last := int32(cs) + r.last
			e := &gtable.slots[gtable.slot(r.line)]
			var p int32
			var seen bool
			if e.key == r.line && e.val != 0 {
				p, seen = e.val-1, true
				e.val = last + 1
			} else {
				p, seen = gtable.swap(r.line, last)
			}
			if !seen {
				dist[cs+int(r.first)] = distCold
				gtree.mark(int(last))
				continue
			}
			if int32(bi) >= capC {
				// Depth ≥ B+1 > capacity regardless of the upstream count.
				dist[cs+int(r.first)] = capC + 1
				gtree.move(int(p), int(last))
			} else {
				d := int32(bi) + csPrefix - gtree.prefixMove(int(p), int(last)) + 1
				if d > capC {
					d = capC + 1
				}
				dist[cs+int(r.first)] = d
			}
			csPrefix--
		}
	}
	chunks[0].sink ^= sink
}

// replayStack is a Stack whose distances were computed ahead of time by
// the chunk passes and their merge, so the parallel path runs Compute's
// own warmup and histogram loop: each Reference returns the next
// precomputed distance and replays the range list's walk cost from it.
// Before the stack fills every miss is a cold one, so the walk model's
// size — and with it Full() — evolves exactly as the serial stack's.
type replayStack struct {
	dist []int32
	next int
	walk walkModel
}

// Reference implements Stack; the line itself is already accounted for
// in the distance array. One unsigned compare classifies hit vs miss
// (uint32(d−1) < capacity ⟺ 1 ≤ d ≤ capacity; cold −1 and clamped
// capacity+1 both wrap out of range).
//
//rapidmrc:hotpath
func (r *replayStack) Reference(mem.Line) int {
	d := r.dist[r.next]
	r.next++
	if uint32(d-1) < uint32(r.walk.capacity) {
		r.walk.hit(int(d))
		return int(d)
	}
	r.walk.miss()
	return Infinite
}

func (r *replayStack) Len() int      { return r.walk.size }
func (r *replayStack) Full() bool    { return r.walk.size == r.walk.capacity }
func (r *replayStack) Walks() uint64 { return r.walk.walks }
func (r *replayStack) Reset()        { r.next = 0; r.walk.reset() }

// compute is the shared core of Compute, ComputeParallel, and the
// feeder's Snapshot: with one chunk it simulates the production stack
// over the trace; otherwise it runs the chunk passes and the boundary
// merge, then replays the distances through the same loop. target is the
// probing-period length the static warmup fallback is a fraction of —
// len(refs) for the batch paths, the declared stream target for the
// feeder.
func compute(refs []mem.Line, instructions uint64, cfg Config, target, workers int) (*Result, error) {
	n := len(refs)
	// One chunk per runnable worker: every extra chunk only adds
	// first-touch records for the serial merge to resolve, so splitting
	// beyond GOMAXPROCS is pure overhead — chunks that cannot run
	// concurrently buy nothing. (Distances are independent of the split;
	// the worker-count equivalence tests pin that, raising GOMAXPROCS so
	// multi-chunk merges are exercised even on small hosts.)
	k := runner.Workers(workers)
	if max := runtime.GOMAXPROCS(0); k > max {
		k = max
	}
	if k > n {
		k = n
	}
	if k == 1 {
		return simulate(newStack(cfg.StackLines, cfg.GroupSize), refs, instructions, cfg, target)
	}
	if n >= math.MaxInt32 {
		return nil, errors.New("core: trace of " + strconv.Itoa(n) + " entries exceeds the int32 position space")
	}

	dist := make([]int32, n)
	capC := int32(cfg.StackLines)
	chunks := make([]chunk, k)
	base, rem := n/k, n%k
	lo := 0
	for i := range chunks {
		hi := lo + base
		if i < rem {
			hi++
		}
		chunks[i] = chunk{lo: lo, hi: hi}
		lo = hi
	}
	if err := runner.ForEach(context.Background(), k, k, func(i int) error {
		chunks[i].run(refs, dist, capC)
		return nil
	}); err != nil {
		return nil, err
	}

	merge(chunks, dist, n, capC)
	return simulate(&replayStack{dist: dist, walk: newWalkModel(cfg.StackLines, cfg.GroupSize)},
		refs, instructions, cfg, target)
}

// ComputeParallel is Compute with the reuse distances computed by up to
// workers concurrent chunk passes; the *Result (curve, histogram, warmup
// outcome, stack hit rate, ModelCycles) is bit-identical to Compute's.
// workers follows runner.Workers semantics — n > 0 is used as given,
// anything else means one per available CPU — and is additionally capped
// at GOMAXPROCS: chunks that cannot run concurrently only inflate the
// serial merge. The result is independent of the worker count.
func ComputeParallel(trace []mem.Line, instructions uint64, cfg Config, workers int) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(trace) == 0 {
		return nil, errors.New("core: empty trace log")
	}
	res, err := compute(trace, instructions, cfg, len(trace), workers)
	if err == errAllWarmup {
		return nil, errors.New("core: warmup consumed the entire " + strconv.Itoa(len(trace)) + "-entry trace")
	}
	return res, err
}
