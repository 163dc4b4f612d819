package cache

import "rapidmrc/internal/mem"

// entry is one cached line plus its dirty bit, the node type of the
// policy sets (policy.go).
type entry struct {
	line  mem.Line
	dirty bool
}

// Meta-word encoding of the flat LRU fast path: the low byte is the
// valid-line count, the remaining bits are a per-position dirty bitmask.
const (
	metaN     = 0xff
	dirtyBit0 = uint64(1) << 8
)

// metaInsertFront rewrites the dirty bitmask of meta for a move-to-front
// of position i: bits [0, i) shift up one and d lands at position 0. The
// count byte is preserved.
//
//rapidmrc:hotpath
func metaInsertFront(meta uint64, i int, d bool) uint64 {
	mask := meta >> 8
	low := mask & (1<<i - 1)
	mask = mask&^(1<<(i+1)-1) | low<<1
	if d {
		mask |= 1
	}
	return meta&metaN | mask<<8
}

// metaRemove rewrites the dirty bitmask of meta for removal of position
// i: bits above it shift down one. The count byte is preserved.
//
//rapidmrc:hotpath
func metaRemove(meta uint64, i int) uint64 {
	mask := meta >> 8
	low := mask & (1<<i - 1)
	mask = mask>>1&^(1<<i-1) | low
	return meta&metaN | mask<<8
}

// flatLRU is the storage of the LRU fast path: every set lives in ways+1
// consecutive uint64 words of one flat array — a meta word (valid count
// plus dirty bitmask) followed by the line addresses in MRU→LRU order.
// Against a per-set header holding a slice, this removes the dependent
// pointer chase on every set visit: the host fetches one sequential run
// of words, which is what bounds a partition sweep holding dozens of
// megabytes of simulated cache state. Lookup and move-to-front are
// O(ways), which beats pointer chasing for the small associativities
// real caches use, and no operation allocates. The meta encoding caps
// the fast path at 56 ways; wider LRU caches use mapSet.
type flatLRU struct {
	ways   int
	stride int
	words  []uint64
}

// flatMaxWays is the widest set the meta word can describe.
const flatMaxWays = 56

func newFlatLRU(nsets, ways int) *flatLRU {
	if ways > flatMaxWays {
		panic("cache: flatLRU supports at most 56 ways")
	}
	return &flatLRU{ways: ways, stride: ways + 1, words: make([]uint64, nsets*(ways+1))}
}

// setWords returns the meta+lines window of one set.
//
//rapidmrc:hotpath
func (f *flatLRU) setWords(set int) []uint64 {
	b := set * f.stride
	return f.words[b : b+f.stride : b+f.stride]
}

//rapidmrc:hotpath
func (f *flatLRU) access(set int, line mem.Line, dirty bool) Result {
	w := f.setWords(set)
	meta := w[0]
	n := int(meta & metaN)
	l := uint64(line)
	// Hit on the MRU line needs no reordering — only a possible dirty-bit
	// set — and it is the overwhelmingly common hit position.
	if n > 0 && w[1] == l {
		if dirty {
			w[0] = meta | dirtyBit0
		}
		return Result{Hit: true}
	}
	lines := w[1 : 1+n]
	for i := 1; i < n; i++ {
		if lines[i] == l {
			d := dirty || meta&(dirtyBit0<<i) != 0
			copy(lines[1:i+1], lines[:i])
			lines[0] = l
			w[0] = metaInsertFront(meta, i, d)
			return Result{Hit: true}
		}
	}
	// Miss: allocate at MRU, evicting the LRU entry if full.
	if n < f.ways {
		copy(w[2:2+n], w[1:1+n])
		w[1] = l
		w[0] = metaInsertFront(meta, n, dirty) + 1
		return Result{}
	}
	victim := mem.Line(w[n])
	victimDirty := meta&(dirtyBit0<<(n-1)) != 0
	copy(w[2:1+n], w[1:n])
	w[1] = l
	w[0] = metaInsertFront(meta, n-1, dirty)
	return Result{Evicted: true, Victim: victim, VictimDirty: victimDirty}
}

//rapidmrc:hotpath
func (f *flatLRU) probe(set int, line mem.Line) bool {
	w := f.setWords(set)
	n := int(w[0] & metaN)
	l := uint64(line)
	lines := w[1 : 1+n]
	for i := range lines {
		if lines[i] == l {
			return true
		}
	}
	return false
}

// insert is Cache.Insert's one-scan fast path: a present line is
// refreshed keeping its dirty bit, an absent one is allocated (exactly
// access), without scanning the set twice.
//
//rapidmrc:hotpath
func (f *flatLRU) insert(set int, line mem.Line, dirty bool) Result {
	w := f.setWords(set)
	meta := w[0]
	n := int(meta & metaN)
	l := uint64(line)
	if n > 0 && w[1] == l {
		return Result{Hit: true}
	}
	lines := w[1 : 1+n]
	for i := 1; i < n; i++ {
		if lines[i] == l {
			d := meta&(dirtyBit0<<i) != 0
			copy(lines[1:i+1], lines[:i])
			lines[0] = l
			w[0] = metaInsertFront(meta, i, d)
			return Result{Hit: true}
		}
	}
	if n < f.ways {
		copy(w[2:2+n], w[1:1+n])
		w[1] = l
		w[0] = metaInsertFront(meta, n, dirty) + 1
		return Result{}
	}
	victim := mem.Line(w[n])
	victimDirty := meta&(dirtyBit0<<(n-1)) != 0
	copy(w[2:1+n], w[1:n])
	w[1] = l
	w[0] = metaInsertFront(meta, n-1, dirty)
	return Result{Evicted: true, Victim: victim, VictimDirty: victimDirty}
}

//rapidmrc:hotpath
func (f *flatLRU) invalidate(set int, line mem.Line) (present, dirty bool) {
	w := f.setWords(set)
	meta := w[0]
	n := int(meta & metaN)
	l := uint64(line)
	lines := w[1 : 1+n]
	for i := range lines {
		if lines[i] == l {
			d := meta&(dirtyBit0<<i) != 0
			copy(lines[i:n-1], lines[i+1:n])
			w[0] = metaRemove(meta, i) - 1
			return true, d
		}
	}
	return false, false
}

// flush empties every set (line words are left stale; the count bytes
// make them unreachable).
func (f *flatLRU) flush() {
	for i := 0; i < len(f.words); i += f.stride {
		f.words[i] = 0
	}
}

// lenTotal returns the number of valid lines across all sets.
func (f *flatLRU) lenTotal() int {
	n := 0
	for i := 0; i < len(f.words); i += f.stride {
		n += int(f.words[i] & metaN)
	}
	return n
}

// mapSet implements a wide (e.g. fully associative) set as a hash map plus
// an intrusive doubly-linked LRU list, giving O(1) operations.
type mapSet struct {
	ways  int
	nodes map[mem.Line]*lruNode
	head  *lruNode // MRU
	tail  *lruNode // LRU
}

type lruNode struct {
	line       mem.Line
	dirty      bool
	prev, next *lruNode
}

func newMapSet(ways int) *mapSet {
	return &mapSet{ways: ways, nodes: make(map[mem.Line]*lruNode, ways)}
}

func (s *mapSet) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (s *mapSet) pushFront(n *lruNode) {
	n.next = s.head
	if s.head != nil {
		s.head.prev = n
	}
	s.head = n
	if s.tail == nil {
		s.tail = n
	}
}

func (s *mapSet) access(line mem.Line, dirty bool) Result {
	if n, ok := s.nodes[line]; ok {
		n.dirty = n.dirty || dirty
		s.unlink(n)
		s.pushFront(n)
		return Result{Hit: true}
	}
	res := Result{}
	if len(s.nodes) >= s.ways {
		v := s.tail
		s.unlink(v)
		delete(s.nodes, v.line)
		res.Evicted = true
		res.Victim = v.line
		res.VictimDirty = v.dirty
	}
	n := &lruNode{line: line, dirty: dirty}
	s.nodes[line] = n
	s.pushFront(n)
	return res
}

func (s *mapSet) probe(line mem.Line) bool {
	_, ok := s.nodes[line]
	return ok
}

func (s *mapSet) touch(line mem.Line) bool {
	n, ok := s.nodes[line]
	if !ok {
		return false
	}
	s.unlink(n)
	s.pushFront(n)
	return true
}

func (s *mapSet) invalidate(line mem.Line) (present, dirty bool) {
	n, ok := s.nodes[line]
	if !ok {
		return false, false
	}
	s.unlink(n)
	delete(s.nodes, line)
	return true, n.dirty
}

func (s *mapSet) flush() {
	s.nodes = make(map[mem.Line]*lruNode, s.ways)
	s.head, s.tail = nil, nil
}

func (s *mapSet) len() int { return len(s.nodes) }
