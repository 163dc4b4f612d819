package core

import "math/bits"

// markerTree tracks Bennett–Kruskal markers over trace positions: at any
// moment position p carries a marker iff p is the most recent access (so
// far) of its cache line, so counting the markers that separate a line's
// previous access from its current one yields exactly the number of
// distinct intervening lines — the reuse distance minus one.
//
// The stack never needs a general range count: every marker lies
// strictly below the position being processed, so a query reduces to
// the one-sided prefix count — the number of markers at positions ≤ x —
// fused with the marker's move to the current position. That asymmetry
// picks the representation: a bitmap with one bit per position, plus a
// radix-8 hierarchy of block counts. The bottom counted level spans a
// 512-position superblock (8 bitmap words) — below that, the count just
// popcounts the sibling words of the bitmap itself, which costs the same
// as reading per-word counts but removes a whole level from every
// update. mark and prefixMove's update are then O(levels) plain
// increments — not the O(log n) dependent-chain ascent of a Fenwick
// tree — and the count peels at most 7 siblings per level, a short run
// of independent adds the CPU can overlap. A Fenwick tree was measured first and lost: updates
// dominate (every reference marks or moves, only hits query), and its
// update path is a serial pointer-chase the hierarchy replaces with
// three flat stores.
type markerTree struct {
	bits []uint64  // marker bitmap; bit i&63 of word i>>6 = position i
	buf  []int32   // all count levels, contiguous (one allocation)
	lvls [][]int32 // lvls[0][b] = markers in superblock b (positions b<<9..); lvls[k+1][b] = sum of lvls[k][8b:8b+8]
}

// sibMask[r][q] selects siblings q < r: the per-level partial sums load
// their mask row instead of branching, so a level costs seven
// independent masked adds with no data-dependent branches to mispredict.
var sibMask = func() (m [8][7]int32) {
	for r := range m {
		for q := 0; q < r; q++ {
			m[r][q] = -1
		}
	}
	return
}()

// init sizes the structure for positions [0, n), reusing backing arrays
// when possible. The bitmap is padded to whole superblocks and every
// count level to a multiple of 8 entries so the unrolled sibling reads
// stay in bounds; pad words and entries are never written and stay zero.
// The level stack stops once a level fits in 8 entries, so prefixMove can
// sum the top level directly.
func (t *markerTree) init(n int) {
	words := ((n+63)>>6 + 7) &^ 7
	if cap(t.bits) >= words {
		t.bits = t.bits[:words]
		for i := range t.bits {
			t.bits[i] = 0
		}
	} else {
		t.bits = make([]uint64, words)
	}
	total := 0
	for s := words >> 3; ; s = (s + 7) >> 3 {
		total += (s + 7) &^ 7
		if s <= 8 {
			break
		}
	}
	if cap(t.buf) >= total {
		t.buf = t.buf[:total]
		for i := range t.buf {
			t.buf[i] = 0
		}
	} else {
		t.buf = make([]int32, total)
	}
	t.lvls = t.lvls[:0]
	off := 0
	for s := words >> 3; ; s = (s + 7) >> 3 {
		pad := (s + 7) &^ 7
		t.lvls = append(t.lvls, t.buf[off:off+pad])
		off += pad
		if s <= 8 {
			break
		}
	}
}

// mark sets a marker at position i, which must be unmarked.
//
//rapidmrc:hotpath
func (t *markerTree) mark(i int) {
	t.bits[i>>6] |= 1 << (uint(i) & 63)
	b := i >> 9
	for _, l := range t.lvls {
		l[b]++
		b >>= 3
	}
}

// prefixMove returns the number of markers at positions ≤ p and moves
// p's marker to i > p — the hit path's exact pairing. The count is a
// partial-word popcount, the sibling words of p's superblock, then the
// sibling blocks below p's block at every count level, each step seven
// mask-selected adds (unrolled, branch-free, independent, so the CPU
// overlaps them freely). The query's level walk and the update's ascent
// share one index chain, so the blocks the update touches are already
// in registers when the sums are taken. Reads happen before the marker
// moves, so the count includes p's own marker; and since i > p, the
// update at i's block can never sit among the siblings strictly below
// p's block, so interleaving cannot disturb the sums. Levels whose block
// contains both positions are untouched.
//
//rapidmrc:hotpath
func (t *markerTree) prefixMove(p, i int) int32 {
	w := p >> 6
	s := int32(bits.OnesCount64(t.bits[w] & (2<<(uint(p)&63) - 1)))
	sb := t.bits[w&^7 : w&^7+8 : w&^7+8]
	mw := &sibMask[w&7]
	s += int32(bits.OnesCount64(sb[0]))&mw[0] + int32(bits.OnesCount64(sb[1]))&mw[1] +
		int32(bits.OnesCount64(sb[2]))&mw[2] + int32(bits.OnesCount64(sb[3]))&mw[3] +
		int32(bits.OnesCount64(sb[4]))&mw[4] + int32(bits.OnesCount64(sb[5]))&mw[5] +
		int32(bits.OnesCount64(sb[6]))&mw[6]
	t.bits[w] &^= 1 << (uint(p) & 63)
	t.bits[i>>6] |= 1 << (uint(i) & 63)
	bp, bi := p>>9, i>>9
	last := len(t.lvls) - 1
	for k := 0; k < last; k++ {
		l := t.lvls[k]
		g := l[bp&^7:]
		mk := &sibMask[bp&7]
		s += g[0]&mk[0] + g[1]&mk[1] + g[2]&mk[2] +
			g[3]&mk[3] + g[4]&mk[4] + g[5]&mk[5] + g[6]&mk[6]
		if bp != bi {
			l[bp]--
			l[bi]++
		}
		bp >>= 3
		bi >>= 3
	}
	l := t.lvls[last]
	mk := &sibMask[bp]
	s += l[0]&mk[0] + l[1]&mk[1] + l[2]&mk[2] +
		l[3]&mk[3] + l[4]&mk[4] + l[5]&mk[5] + l[6]&mk[6]
	if bp != bi {
		l[bp]--
		l[bi]++
	}
	return s
}
