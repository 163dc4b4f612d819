package cache

import (
	"math/rand"
	"strconv"

	"rapidmrc/internal/mem"
)

// Policy selects the replacement policy of a cache. The stack algorithm
// RapidMRC builds on assumes LRU (§2.1 of the paper: "the MRC of a Least
// Recently Used policy may be significantly different from that of a Most
// Recently Used policy for the same memory access sequence"); the other
// policies exist for the ablation that quantifies how much the LRU
// assumption matters.
type Policy uint8

const (
	// LRU evicts the least recently used line (the default, and the only
	// policy with the stack/inclusion property).
	LRU Policy = iota
	// FIFO evicts the oldest-inserted line; hits do not refresh.
	FIFO
	// Random evicts a uniformly random line (deterministic per cache via
	// a seeded generator).
	Random
	// MRU evicts the most recently used line — pathological for loops
	// larger than the cache, which is why the paper calls it out.
	MRU
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "Random"
	case MRU:
		return "MRU"
	default:
		return "Policy(" + strconv.Itoa(int(p)) + ")"
	}
}

// policySet implements FIFO, Random and MRU for ordinary associativities.
// For FIFO, entries stay in insertion order; for MRU/Random, entries are
// kept in recency order like the flat LRU sets but the victim choice
// differs. The entry array is allocated once (len == ways) and the first
// n slots are valid, so no operation allocates.
type policySet struct {
	policy Policy
	n      int
	ents   []entry
	rng    *rand.Rand
}

func newPolicySet(policy Policy, ways int, rng *rand.Rand) *policySet {
	return &policySet{policy: policy, ents: make([]entry, ways), rng: rng}
}

// find returns the index of line or -1.
func (s *policySet) find(line mem.Line) int {
	for i := 0; i < s.n; i++ {
		if s.ents[i].line == line {
			return i
		}
	}
	return -1
}

// moveToFront refreshes recency order (MRU/Random bookkeeping; FIFO keeps
// insertion order, so hits leave the order untouched).
func (s *policySet) moveToFront(i int, dirty bool) {
	e := entry{line: s.ents[i].line, dirty: s.ents[i].dirty || dirty}
	copy(s.ents[1:i+1], s.ents[:i])
	s.ents[0] = e
}

// victimIndex picks the slot to evict from a full set.
func (s *policySet) victimIndex() int {
	switch s.policy {
	case FIFO:
		return s.n - 1 // oldest insertion
	case Random:
		return s.rng.Intn(s.n)
	case MRU:
		return 0 // most recent
	default:
		return s.n - 1
	}
}

func (s *policySet) access(line mem.Line, dirty bool) Result {
	if i := s.find(line); i >= 0 {
		if s.policy == FIFO {
			s.ents[i].dirty = s.ents[i].dirty || dirty
		} else {
			s.moveToFront(i, dirty)
		}
		return Result{Hit: true}
	}
	res := Result{}
	if s.n >= len(s.ents) {
		v := s.victimIndex()
		res.Evicted = true
		res.Victim = s.ents[v].line
		res.VictimDirty = s.ents[v].dirty
		copy(s.ents[v:s.n-1], s.ents[v+1:s.n])
		s.n--
	}
	// Insert at the front (newest).
	copy(s.ents[1:s.n+1], s.ents[:s.n])
	s.ents[0] = entry{line: line, dirty: dirty}
	s.n++
	return res
}

func (s *policySet) probe(line mem.Line) bool { return s.find(line) >= 0 }

func (s *policySet) touch(line mem.Line) bool {
	i := s.find(line)
	if i < 0 {
		return false
	}
	if s.policy != FIFO {
		s.moveToFront(i, s.ents[i].dirty)
	}
	return true
}

func (s *policySet) invalidate(line mem.Line) (present, dirty bool) {
	i := s.find(line)
	if i < 0 {
		return false, false
	}
	d := s.ents[i].dirty
	copy(s.ents[i:s.n-1], s.ents[i+1:s.n])
	s.n--
	return true, d
}
