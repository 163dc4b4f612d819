package core

// The reference stacks the production MarkerStack is checked against.
// They live in test code: nothing outside the tests and the stack
// ablation benchmarks runs them.

import "rapidmrc/internal/mem"

// lenStack is a Stack whose length the property tests compare.
type lenStack interface {
	Stack
	// Len is the number of lines currently on the stack.
	Len() int
}

// Len is the number of lines on the stack. An LRU stack holds every
// distinct line seen up to its capacity; the table holds exactly those
// lines, plus, between renumberings, lines already pushed past capacity.
// Only the property tests read it.
func (s *MarkerStack) Len() int { return min(s.table.n, s.capacity) }

// NaiveStack is the textbook O(n)-per-reference LRU stack: the oracle
// the production stack is property-tested against, and the slow arm of
// the stack ablation benchmarks.
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

// Len implements lenStack.
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

// WalkRangeStack is the paper-era range list of Kim et al. [20]: a
// doubly-linked list of groups of up to 2×groupSize lines with a
// line→group index. A reference walks the group list to sum distances, so
// it costs O(#groups + groupSize) instead of O(capacity). It is the
// oracle for the production stack (MarkerStack): the two must agree
// exactly on distances AND on Walks(), which calibrates the cost model.
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

// Len implements lenStack.
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
