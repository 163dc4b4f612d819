package core

// walkModel replays the group-size evolution of the paper-era range list
// (WalkRangeStack) from a (hit-depth | miss) event sequence, reproducing
// its Walks() bit-exactly without tracking line identity. The observation: every
// structural decision the range list makes — where a hit lands, which
// group splits, merges, or empties, what the miss walk costs — depends
// only on the 1-based hit depth and the current group sizes, never on
// which line sits where. So once a marker tree has produced exact
// distances, a sizes-only replay yields the same modeled walk count the
// range list would have accumulated, keeping ModelCycles bit-identical
// to the paper-era cost model.
//
// Layout: the group sizes live in a deque with the TAIL at buf[s] and
// the HEAD at buf[e-1], plus block sums over fixed walkBlock-wide
// absolute windows of buf. Growing at the head end makes every
// steady-state structural event O(1): a head push bumps buf[e-1], a head
// split writes the new head at buf[e] (one cell, no shift), a head merge
// drops e, and a tail eviction advances s. Mid-list removals (deep hits
// emptying or merging a group) close the gap from whichever end is
// nearer — deep groups sit near s, so that shift is short too. The
// head-first array layout this replaces paid an O(G) shift-plus-rebuild
// on every split, merge, and tail drain.
type walkModel struct {
	capacity  int
	groupSize int
	buf       []int32 // group sizes; live window [s, e), tail at s, head at e-1
	blocks    []int32 // blocks[b] = sum of buf[b*walkBlock:(b+1)*walkBlock] ∩ [s,e)
	s, e      int
	size      int // total lines = sum of live group sizes
	walks     uint64
}

// walkBlock is the block width of the two-level sum. 16 balances the
// block-sum scan against the in-block scan at the paper geometry's ~240
// groups (the bidirectional scan halves the effective distance).
const walkBlock = 16

func newWalkModel(capacity, groupSize int) *walkModel {
	if groupSize <= 0 {
		groupSize = DefaultGroupSize
	}
	// Typically ~capacity/groupSize+2 live groups; double it so head
	// growth compacts rarely, and round up to whole blocks (compact grows
	// the arrays when small groups outnumber that). Both arrays
	// carry 4 extra zero cells so findGroup's 4-wide strides can read
	// past either end of the live window without bounds checks failing
	// (cells outside [s,e) are always zero, so the reads are inert).
	g := 2 * (4 + capacity/groupSize)
	g = (g + walkBlock - 1) &^ (walkBlock - 1)
	return &walkModel{
		capacity:  capacity,
		groupSize: groupSize,
		buf:       make([]int32, g+4),
		blocks:    make([]int32, g/walkBlock+4),
		s:         0,
		e:         1,
	}
}

// reset empties the modeled list in place: one zero-size head group and
// no walks.
func (m *walkModel) reset() {
	clear(m.buf)
	clear(m.blocks)
	m.s, m.e = 0, 1
	m.size = 0
	m.walks = 0
}

// compact slides the live window back to the front of buf and rebuilds
// the block sums — only when head growth runs off the end, so its O(G)
// cost amortizes over ~G head splits. A window more than half full moves
// into arrays of twice the size instead: merges only fire below
// groupSize/2 lines, so runs of one- and two-line groups can push the
// group count toward capacity, far past capacity/groupSize.
func (m *walkModel) compact() {
	n := m.e - m.s
	if g := len(m.buf) - 4; 2*n > g {
		buf := make([]int32, 2*g+4)
		copy(buf, m.buf[m.s:m.e])
		m.buf, m.blocks = buf, make([]int32, 2*g/walkBlock+4)
	} else {
		copy(m.buf, m.buf[m.s:m.e])
		clear(m.buf[n:m.e])
		clear(m.blocks)
	}
	m.s, m.e = 0, n
	for i := 0; i < n; i++ {
		m.blocks[i/walkBlock] += m.buf[i]
	}
}

// findGroup locates the group containing 1-based depth d, returning its
// absolute buf index — scanning from whichever end is closer. size is
// the sum of all group sizes, so a depth past the midpoint resolves
// faster from the tail; deep hits cluster there (the warm working set
// sits near capacity), which would make a head-only scan walk most of
// the list on the hottest path.
//
// Both scan directions stride four cells at a time and resolve the exit
// cell branchlessly from sign bits: the scans are short runs of
// dependent compare-and-accumulate with a data-dependent exit, so the
// mispredicted exits — not the adds — dominate their cost, and a 4-wide
// stride takes one predictable branch per four cells. The strides may
// read up to 3 cells past the live window; those cells are kept zero
// (and the arrays padded), which leaves the running sums unchanged.
//
//rapidmrc:hotpath
func (m *walkModel) findGroup(d int) int {
	if rb := int32(m.size - d); rb < int32(d) {
		// rb lines lie below the target: consume suffix sums from the
		// tail while they fit (consume block k iff s_k ≤ rb−acc).
		b := m.s / walkBlock
		acc := int32(0)
		for {
			s0 := m.blocks[b]
			s1 := s0 + m.blocks[b+1]
			s2 := s1 + m.blocks[b+2]
			s3 := s2 + m.blocks[b+3]
			if acc+s3 > rb {
				t := rb - acc
				m0 := (s0 - t - 1) >> 31 // −1 iff s0 ≤ t
				m1 := (s1 - t - 1) >> 31
				m2 := (s2 - t - 1) >> 31
				b += int(-m0 - m1 - m2)
				acc += s0&m0 + (s1-s0)&m1 + (s2-s1)&m2
				break
			}
			acc += s3
			b += 4
		}
		q := b * walkBlock
		if q < m.s {
			q = m.s
		}
		for {
			t0 := m.buf[q]
			t1 := t0 + m.buf[q+1]
			t2 := t1 + m.buf[q+2]
			t3 := t2 + m.buf[q+3]
			if acc+t3 > rb {
				u := rb - acc
				m0 := (t0 - u - 1) >> 31
				m1 := (t1 - u - 1) >> 31
				m2 := (t2 - u - 1) >> 31
				return q + int(-m0-m1-m2)
			}
			acc += t3
			q += 4
		}
	}
	rem := int32(d)
	b := (m.e - 1) / walkBlock
	for b >= 3 {
		s0 := m.blocks[b]
		s1 := s0 + m.blocks[b-1]
		s2 := s1 + m.blocks[b-2]
		s3 := s2 + m.blocks[b-3]
		if s3 >= rem {
			m0 := (s0 - rem) >> 31 // −1 iff s0 < rem
			m1 := (s1 - rem) >> 31
			m2 := (s2 - rem) >> 31
			b += int(m0 + m1 + m2)
			rem -= s0&m0 + (s1-s0)&m1 + (s2-s1)&m2
			break
		}
		rem -= s3
		b -= 4
	}
	for rem > m.blocks[b] {
		rem -= m.blocks[b]
		b--
	}
	q := b*walkBlock + walkBlock - 1
	if q > m.e-1 {
		q = m.e - 1
	}
	for q >= 3 {
		t0 := m.buf[q]
		t1 := t0 + m.buf[q-1]
		t2 := t1 + m.buf[q-2]
		t3 := t2 + m.buf[q-3]
		if t3 >= rem {
			m0 := (t0 - rem) >> 31
			m1 := (t1 - rem) >> 31
			m2 := (t2 - rem) >> 31
			return q + int(m0+m1+m2)
		}
		rem -= t3
		q -= 4
	}
	for rem > m.buf[q] {
		rem -= m.buf[q]
		q--
	}
	return q
}

// miss replays a stack miss: the paper-era walk visits every group to
// establish absence, then the line is pushed and the tail evicted on
// overflow.
func (m *walkModel) miss() {
	m.walks += uint64(m.e - m.s)
	m.pushFront()
	m.size++
	if m.size > m.capacity {
		m.evictTail()
	}
}

// hit replays a stack hit at 1-based depth d: walk cost is the hit
// group's head-first position plus one, then the range list restructures
// exactly as WalkRangeStack.Reference does. The body is only the head-hit
// fast path — when the head neither empties nor falls below the merge
// threshold, the remove+push cancels out and the overwhelmingly common
// shallow hit is a single counter bump; the restructuring paths stay out
// of line in hitSlow.
//
//rapidmrc:hotpath
func (m *walkModel) hit(d int) {
	if int32(d) <= m.buf[m.e-1] {
		after := m.buf[m.e-1] - 1
		if after > 0 && (int(after) >= m.groupSize/2 || m.e-m.s == 1) {
			m.walks++
			return
		}
	}
	m.hitSlow(d)
}

// hitSlow handles the restructuring hit paths: a head hit that empties
// or shrinks the head group, and any hit below the head.
func (m *walkModel) hitSlow(d int) {
	h := m.e - 1
	if int32(d) <= m.buf[h] {
		after := m.buf[h] - 1
		m.walks++
		m.buf[h] = after
		m.blocks[h/walkBlock]--
		if after == 0 {
			m.removeGroup(h)
		} else {
			m.mergeWithNext(h)
		}
		m.pushFront()
		return
	}
	q := m.findGroup(d)
	m.walks += uint64(h-q) + 1
	m.buf[q]--
	m.blocks[q/walkBlock]--
	if m.buf[q] == 0 {
		m.removeGroup(q)
	} else if int(m.buf[q]) < m.groupSize/2 && q > m.s {
		m.mergeWithNext(q)
	}
	m.pushFront()
}

// pushFront adds a line to the head group, splitting at 2×groupSize.
//
//rapidmrc:hotpath
func (m *walkModel) pushFront() {
	h := m.e - 1
	m.buf[h]++
	m.blocks[h/walkBlock]++
	if int(m.buf[h]) >= 2*m.groupSize {
		m.splitHead()
	}
}

// splitHead moves the LRU half of the head into a new second group: the
// MRU half becomes a fresh head cell at buf[e], the LRU half stays in
// the old head cell — no shifting.
func (m *walkModel) splitHead() {
	if m.e == len(m.buf)-4 {
		m.compact()
	}
	h := m.e - 1
	half := m.buf[h] / 2
	back := m.buf[h] - half
	m.buf[h] = back
	m.blocks[h/walkBlock] -= half
	m.buf[h+1] = half
	m.blocks[(h+1)/walkBlock] += half
	m.e++
}

// mergeWithNext folds the group below q (toward the tail) into it unless
// the union would immediately violate the 2×groupSize bound.
func (m *walkModel) mergeWithNext(q int) {
	v := m.buf[q]
	if int(v+m.buf[q-1]) >= 2*m.groupSize {
		return
	}
	m.buf[q-1] += v
	m.blocks[(q-1)/walkBlock] += v
	m.buf[q] = 0
	m.blocks[q/walkBlock] -= v
	m.removeGroup(q)
}

// removeGroup closes the gap left by the emptied group at q, shifting
// the shorter side. An emptied single-group list keeps one zero-size
// head so pushFront always has a target.
func (m *walkModel) removeGroup(q int) {
	if m.e-m.s == 1 {
		return // buf[q] is already 0; reuse it as the empty head
	}
	if q-m.s < m.e-1-q {
		// Shift the tail side up into the gap.
		for i := q; i > m.s; i-- {
			v := m.buf[i-1]
			m.buf[i] = v
			m.blocks[i/walkBlock] += v
			m.blocks[(i-1)/walkBlock] -= v
		}
		m.buf[m.s] = 0
		m.s++
	} else {
		// Shift the head side down into the gap.
		for i := q; i < m.e-1; i++ {
			v := m.buf[i+1]
			m.buf[i] = v
			m.blocks[i/walkBlock] += v
			m.blocks[(i+1)/walkBlock] -= v
		}
		m.e--
		m.buf[m.e] = 0
	}
}

// evictTail drops the LRU line from the last group.
//
//rapidmrc:hotpath
func (m *walkModel) evictTail() {
	m.buf[m.s]--
	m.blocks[m.s/walkBlock]--
	m.size--
	if m.buf[m.s] == 0 && m.e-m.s > 1 {
		m.s++
	}
}
