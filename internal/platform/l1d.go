package platform

import "rapidmrc/internal/mem"

// The private L1-D of Table 1: 32 KiB of 128-byte lines, 4-way, true LRU
// within each of its 64 sets, indexed by virtual line (line mod 64). It is
// store-through and no-allocate, so it never holds a dirty line and has no
// victim to report: its whole state is which lines each set holds, in
// recency order. That makes it simpler than a general cache.Cache, which
// tracks dirty bits, counts and statistics the machine never reads; this
// type is the L1-D of every Machine and of the shared sweep's leader.
// cache.New(Power5().L1D) is its test oracle.
const (
	l1dSets = 64
	l1dWays = 4
)

// l1dEmpty marks an empty way. mem.LineOf never returns it (a line is an
// address shifted right by log2(mem.LineSize)), so no lookup matches it.
const l1dEmpty = ^mem.Line(0)

// l1d is the L1-D's replacement state.
type l1d struct {
	sets [l1dSets]l1dSet
}

// l1dSet is one set's lines, MRU first. Empty ways are l1dEmpty and, since
// a fill shifts the set towards the LRU end, they always sit at its tail.
type l1dSet [l1dWays]mem.Line

// newL1D returns an empty L1-D.
func newL1D() *l1d {
	c := new(l1d)
	for i := range c.sets {
		c.sets[i] = l1dSet{l1dEmpty, l1dEmpty, l1dEmpty, l1dEmpty}
	}
	return c
}

// hit reports whether line is in the set, moving it to the MRU way if so.
//
//rapidmrc:hotpath
func (s *l1dSet) hit(line mem.Line) bool {
	switch line {
	case s[0]:
	case s[1]:
		s[0], s[1] = line, s[0]
	case s[2]:
		s[0], s[1], s[2] = line, s[0], s[1]
	case s[3]:
		s[0], s[1], s[2], s[3] = line, s[0], s[1], s[2]
	default:
		return false
	}
	return true
}

// load looks line up for a load and reports a hit. A miss allocates the
// line at the MRU way, dropping the set's LRU line.
//
//rapidmrc:hotpath
func (c *l1d) load(line mem.Line) bool {
	s := &c.sets[line&(l1dSets-1)]
	if s.hit(line) {
		return true
	}
	s[0], s[1], s[2], s[3] = line, s[0], s[1], s[2]
	return false
}

// store looks line up for a store and reports a hit. A hit refreshes the
// line's recency; a miss leaves the cache untouched (no-allocate).
//
//rapidmrc:hotpath
func (c *l1d) store(line mem.Line) bool {
	return c.sets[line&(l1dSets-1)].hit(line)
}
