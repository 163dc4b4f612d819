// Package core implements RapidMRC itself: the Mattson LRU stack
// simulator (a Bennett–Kruskal marker tree, with the paper-era range list
// of Kim, Hill & Wood kept as its cost model), stack distance histograms,
// MRC generation with warmup handling, the trace corrections of §3.1.1,
// vertical-offset transposition, and the MPKI distance metric of §5.2.1.
package core

import (
	"math/bits"

	"rapidmrc/internal/mem"
)

// Infinite is the distance reported for a reference whose line is not in
// the stack (a cold miss, or a line already pushed off the bottom of the
// capacity-limited stack).
const Infinite = -1

// Stack is a capacity-limited LRU stack supporting Mattson's algorithm:
// Reference returns the 1-based stack distance of the line (Infinite when
// absent) and moves it to the top, evicting the bottom entry if the stack
// overflows.
type Stack interface {
	Reference(line mem.Line) (dist int)
	// Len is the number of lines currently on the stack.
	Len() int
	// Full reports whether the stack has reached capacity — the signal
	// the automatic warmup policy waits for (§5.2.4).
	Full() bool
	// Walks returns the cumulative number of range-list groups (or, for
	// the naive stack, entries) the paper-era implementation would
	// traverse — the input to the calculation cost model. A MarkerStack
	// built to count walks reports this modeled count even though its
	// real work is sub-linear, so the DESIGN.md §5 calibration is
	// implementation-independent; an unpriced MarkerStack reports 0.
	Walks() uint64
	// Reset empties the stack and zeroes Walks while retaining its
	// allocations, so a pooled engine can be recycled across probing
	// periods without reconstruction. A reset stack is indistinguishable
	// from a newly built one of the same geometry.
	Reset()
}

// DefaultGroupSize is the range-list group size. 64 balances the group
// walk (capacity/64 pointer hops) against in-group copies.
const DefaultGroupSize = 64

// MarkerStack is the production stack: an Olken / Bennett–Kruskal
// marker tree over a sliding window of reference positions. The line
// table maps each line to the position of its latest reference, and the
// tree carries one marker per line at that position, so the markers
// after a line's previous position count exactly the distinct lines
// referenced since — its stack depth minus one. A reference costs one
// table probe and one fused count-and-move in the tree.
//
// The window spans 2×capacity positions. When it fills, the most recent
// capacity lines are renumbered to the front of the window, in order,
// and every older line is dropped: its depth is already past capacity,
// so its next reference misses whether or not the table remembers it.
// Memory is therefore O(capacity) however long the stream, and the
// renumbering costs O(capacity) once per ≥ capacity references.
//
// The paper's cost model counts range-list walks, which a marker tree
// does not perform. A stack built by NewStack replays the range list's
// group sizes from the distances (walkModel), so its distances, Len/Full,
// and modeled Walks() are bit-identical to WalkRangeStack's and the
// DESIGN.md §5 calibration is unchanged. That replay is about 40% of a
// reference's time, so a stack whose walks are not priced
// (NewUnpricedStack, or NewStackFor with a zero CostPerWalk) skips it
// and reports zero Walks(); its distances and Len/Full are the same.
type MarkerStack struct {
	capacity int
	table    lineTable  // line → position of its latest reference
	tree     markerTree // one marker per tabled line, at that position
	lines    []mem.Line // lines[p] = the line referenced at position p
	next     int        // position of the next reference
	walk     *walkModel // nil when walks are not counted
}

// NewStack returns an empty production stack holding at most capacity
// lines that counts walks; groupSize (≤ 0 = DefaultGroupSize) is the
// range-list group size the modeled walks are counted against.
func NewStack(capacity, groupSize int) *MarkerStack {
	s := NewUnpricedStack(capacity)
	s.walk = newWalkModel(capacity, groupSize)
	return s
}

// NewUnpricedStack returns an empty production stack holding at most
// capacity lines that does not count walks: Walks() stays 0.
func NewUnpricedStack(capacity int) *MarkerStack {
	if capacity <= 0 {
		panic("core: non-positive stack capacity")
	}
	window := 2 * capacity
	s := &MarkerStack{
		capacity: capacity,
		lines:    make([]mem.Line, window),
	}
	// Every tabled line holds a distinct window position, so the table
	// never exceeds window entries and, sized for one more, never grows.
	s.table.init(window + 1)
	s.tree.init(window)
	return s
}

// NewStackFor returns a production stack of the given capacity that
// counts walks only when cfg prices them (CostPerWalk > 0). Modeled
// cycles, entries×CostFixed + walks×CostPerWalk, come out the same
// either way, since unpriced walks contribute zero.
func NewStackFor(cfg Config, capacity int) *MarkerStack {
	if cfg.CostPerWalk == 0 {
		return NewUnpricedStack(capacity)
	}
	return NewStack(capacity, cfg.GroupSize)
}

// Len implements Stack. An LRU stack holds every distinct line seen up
// to its capacity; the table holds exactly those lines, plus, between
// renumberings, lines already pushed past capacity.
func (s *MarkerStack) Len() int { return min(s.table.n, s.capacity) }

// Full implements Stack.
func (s *MarkerStack) Full() bool { return s.table.n >= s.capacity }

// Walks implements Stack; an unpriced stack reports 0.
func (s *MarkerStack) Walks() uint64 {
	if s.walk == nil {
		return 0
	}
	return s.walk.walks
}

// Reset implements Stack: the table, tree, and walk model are cleared in
// place, so a reset stack allocates nothing.
func (s *MarkerStack) Reset() {
	s.table.reset()
	s.tree.init(len(s.lines))
	s.next = 0
	if s.walk != nil {
		s.walk.reset()
	}
}

// Reference implements Stack.
//
//rapidmrc:hotpath
func (s *MarkerStack) Reference(line mem.Line) int {
	if s.next == len(s.lines) {
		s.renumber()
	}
	i := s.next
	s.next++
	s.lines[i] = line
	p, seen := s.table.touch(line, int32(i))
	if !seen {
		s.tree.mark(i)
		if s.walk != nil {
			s.walk.miss()
		}
		return Infinite
	}
	// Every marker sits at or below p or strictly between p and i; the
	// latter are the distinct lines referenced since line's previous
	// reference.
	d := s.table.n - int(s.tree.prefixMove(int(p), i)) + 1
	if d > s.capacity {
		if s.walk != nil {
			s.walk.miss()
		}
		return Infinite
	}
	if s.walk != nil {
		s.walk.hit(d)
	}
	return d
}

// renumber makes room when the window is full: the most recent capacity
// markers — the lines still on the stack — move to positions 0..k-1 in
// their current order, and the older lines leave the table. Kept lines
// are compacted in place (a kept marker's new position never exceeds its
// old one), then the table and tree are rebuilt from them.
func (s *MarkerStack) renumber() {
	drop := s.table.n - s.capacity
	k := 0
	for w, word := range s.tree.bits {
		for ; word != 0; word &= word - 1 {
			if drop > 0 {
				drop--
				continue
			}
			s.lines[k] = s.lines[w<<6+bits.TrailingZeros64(word)]
			k++
		}
	}
	s.table.reset()
	s.tree.init(len(s.lines))
	for q, line := range s.lines[:k] {
		s.table.touch(line, int32(q))
		s.tree.mark(q)
	}
	s.next = k
}
