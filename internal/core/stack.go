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

// NaiveStack is the textbook O(n)-per-reference LRU stack. It exists as
// the oracle for property-testing the production stack and for the
// ablation benchmark.
type NaiveStack struct {
	capacity int
	lines    []mem.Line // index 0 = MRU
	walks    uint64
}

// NewNaiveStack returns an empty stack holding at most capacity lines.
func NewNaiveStack(capacity int) *NaiveStack {
	if capacity <= 0 {
		panic("core: non-positive stack capacity")
	}
	return &NaiveStack{capacity: capacity}
}

// Reference implements Stack.
func (s *NaiveStack) Reference(line mem.Line) int {
	for i, l := range s.lines {
		if l == line {
			s.walks += uint64(i + 1)
			copy(s.lines[1:i+1], s.lines[:i])
			s.lines[0] = line
			return i + 1
		}
	}
	s.walks += uint64(len(s.lines))
	if len(s.lines) < s.capacity {
		s.lines = append(s.lines, 0)
	}
	copy(s.lines[1:], s.lines[:len(s.lines)-1])
	s.lines[0] = line
	return Infinite
}

// Len implements Stack.
func (s *NaiveStack) Len() int { return len(s.lines) }

// Full implements Stack.
func (s *NaiveStack) Full() bool { return len(s.lines) == s.capacity }

// Walks implements Stack.
func (s *NaiveStack) Walks() uint64 { return s.walks }

// Reset implements Stack.
func (s *NaiveStack) Reset() {
	s.lines = s.lines[:0]
	s.walks = 0
}

// DefaultGroupSize is the range-list group size. 64 balances the group
// walk (capacity/64 pointer hops) against in-group copies.
const DefaultGroupSize = 64

// WalkRangeStack is the paper-era range list of Kim et al. [20]: a
// doubly-linked list of groups of up to 2×groupSize lines with a
// line→group index. A reference walks the group list to sum distances, so
// it costs O(#groups + groupSize) instead of O(capacity). It is retained
// as the reference for the production stack (MarkerStack): the two must
// agree exactly on distances AND on Walks(), which calibrates the cost
// model.
type WalkRangeStack struct {
	capacity  int
	groupSize int
	head      *rgroup // MRU side
	tail      *rgroup // LRU side
	index     map[mem.Line]*rgroup
	size      int
	walks     uint64
}

type rgroup struct {
	lines      []mem.Line // MRU order within the group
	prev, next *rgroup
}

// NewWalkRangeStack returns an empty walking range-list stack.
func NewWalkRangeStack(capacity, groupSize int) *WalkRangeStack {
	if capacity <= 0 {
		panic("core: non-positive stack capacity")
	}
	if groupSize <= 0 {
		groupSize = DefaultGroupSize
	}
	g := &rgroup{lines: make([]mem.Line, 0, 2*groupSize)}
	return &WalkRangeStack{
		capacity:  capacity,
		groupSize: groupSize,
		head:      g,
		tail:      g,
		index:     make(map[mem.Line]*rgroup, capacity),
	}
}

// Len implements Stack.
func (s *WalkRangeStack) Len() int { return s.size }

// Full implements Stack.
func (s *WalkRangeStack) Full() bool { return s.size == s.capacity }

// Walks implements Stack.
func (s *WalkRangeStack) Walks() uint64 { return s.walks }

// Reset implements Stack.
func (s *WalkRangeStack) Reset() {
	g := &rgroup{lines: make([]mem.Line, 0, 2*s.groupSize)}
	s.head, s.tail = g, g
	clear(s.index)
	s.size = 0
	s.walks = 0
}

// groupCount returns the current number of groups (used by the cost model
// for miss-path walks).
func (s *WalkRangeStack) groupCount() int {
	n := 0
	for g := s.head; g != nil; g = g.next {
		n++
	}
	return n
}

// Reference implements Stack.
func (s *WalkRangeStack) Reference(line mem.Line) int {
	g, ok := s.index[line]
	if !ok {
		// Miss: the paper-era implementation still pays a full range-list
		// walk to establish absence; model that cost.
		s.walks += uint64(s.groupCount())
		s.pushFront(line)
		s.index[line] = s.head
		s.size++
		if s.size > s.capacity {
			s.evictTail()
		}
		return Infinite
	}

	// Distance: lines in groups above g, plus position within g.
	dist := 0
	walks := uint64(0)
	for cur := s.head; cur != g; cur = cur.next {
		dist += len(cur.lines)
		walks++
	}
	s.walks += walks + 1
	pos := -1
	for i, l := range g.lines {
		if l == line {
			pos = i
			break
		}
	}
	dist += pos + 1

	// Remove from its group and move to the top.
	g.lines = append(g.lines[:pos], g.lines[pos+1:]...)
	if len(g.lines) == 0 {
		s.unlink(g)
	} else if len(g.lines) < s.groupSize/2 && g.next != nil {
		s.mergeWithNext(g)
	}
	s.pushFront(line)
	s.index[line] = s.head
	return dist
}

// pushFront prepends line to the head group, splitting it when it grows
// to twice the group size.
func (s *WalkRangeStack) pushFront(line mem.Line) {
	h := s.head
	h.lines = append(h.lines, 0)
	copy(h.lines[1:], h.lines[:len(h.lines)-1])
	h.lines[0] = line
	if len(h.lines) >= 2*s.groupSize {
		s.splitHead()
	}
}

// splitHead moves the back half of the head group into a new second
// group, reindexing the moved lines.
func (s *WalkRangeStack) splitHead() {
	h := s.head
	half := len(h.lines) / 2
	back := &rgroup{lines: make([]mem.Line, len(h.lines)-half, 2*s.groupSize)}
	copy(back.lines, h.lines[half:])
	h.lines = h.lines[:half]

	back.next = h.next
	back.prev = h
	if h.next != nil {
		h.next.prev = back
	} else {
		s.tail = back
	}
	h.next = back
	for _, l := range back.lines {
		s.index[l] = back
	}
}

// mergeWithNext folds g.next into g, reindexing the absorbed lines; if
// the merged group is oversized it is immediately re-split by the next
// head split... merging keeps groups ≥ groupSize/2 so the group count
// stays Θ(capacity/groupSize).
func (s *WalkRangeStack) mergeWithNext(g *rgroup) {
	n := g.next
	if len(g.lines)+len(n.lines) >= 2*s.groupSize {
		return // merging would immediately violate the size bound
	}
	for _, l := range n.lines {
		s.index[l] = g
	}
	g.lines = append(g.lines, n.lines...)
	s.unlink(n)
}

// unlink removes group g from the list; an empty list is replaced with a
// fresh head group so pushFront always has a target.
func (s *WalkRangeStack) unlink(g *rgroup) {
	if g.prev != nil {
		g.prev.next = g.next
	} else {
		s.head = g.next
	}
	if g.next != nil {
		g.next.prev = g.prev
	} else {
		s.tail = g.prev
	}
	if s.head == nil {
		fresh := &rgroup{lines: make([]mem.Line, 0, 2*s.groupSize)}
		s.head, s.tail = fresh, fresh
	}
}

// evictTail drops the LRU line.
func (s *WalkRangeStack) evictTail() {
	t := s.tail
	last := t.lines[len(t.lines)-1]
	t.lines = t.lines[:len(t.lines)-1]
	delete(s.index, last)
	s.size--
	if len(t.lines) == 0 && (t.prev != nil || t.next != nil || t != s.head) {
		s.unlink(t)
	}
}

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
