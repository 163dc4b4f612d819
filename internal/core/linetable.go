package core

import "rapidmrc/internal/mem"

// tableEntry packs a key and two payloads into one 16-byte slot so a
// probe touches a single cache line (a split keys/vals layout costs up
// to three misses per lookup on large tables). val holds the payload
// plus one — zero marks an empty slot, which lets a fresh table be the
// runtime's zeroed allocation with no sentinel-writing pass over the
// slots. last is the line's most recent position (in the chunk, or in
// the marker stack's window) — keeping it here instead of in the chunk's
// record array means a hit never touches a second random location.
type tableEntry struct {
	key  mem.Line
	val  int32 // payload+1; 0 = empty
	last int32
}

// lineTable is an open-addressed hash map from cache line to its entry:
// Fibonacci hashing, linear probing, power-of-two capacity, ≤50% load,
// no deletion. It is the one line index of the package, shared by the
// marker stack (line → last window position), the chunk pass (line →
// record index + last position), the merge (line → last global access)
// and the feeder's warmup first-touch tracking.
type lineTable struct {
	slots []tableEntry
	mask  uint64
	n     int
}

// newLineTable returns a table sized for about hint entries.
func newLineTable(hint int) *lineTable {
	t := &lineTable{}
	t.init(hint)
	return t
}

// init sizes the table for about hint entries at ≤50% load: it holds
// fewer than hint entries without growing.
func (t *lineTable) init(hint int) {
	size := 16
	for size < hint*2 {
		size <<= 1
	}
	t.alloc(size)
	t.n = 0
}

func (t *lineTable) alloc(size int) {
	t.slots = make([]tableEntry, size)
	t.mask = uint64(size - 1)
}

// reset empties the table in place — one memclr over the slots (val 0
// marks empty) — so a pooled consumer reuses the backing array instead of
// reallocating it.
func (t *lineTable) reset() {
	clear(t.slots)
	t.n = 0
}

//rapidmrc:hotpath
func (t *lineTable) slot(k mem.Line) uint64 {
	h := uint64(k) * 0x9E3779B97F4A7C15
	return (h ^ h>>29) & t.mask
}

// touch returns k's previous last-position and advances it to pos; on
// first touch it inserts k with payload ri (the chunk pass's record
// index) and reports found=false. One probe serves the hit, the miss,
// and the position update — the chunk pass's only table operation.
//
//rapidmrc:hotpath
func (t *lineTable) touch(k mem.Line, ri, pos int32) (prevLast int32, found bool) {
	for i := t.slot(k); ; i = (i + 1) & t.mask {
		e := &t.slots[i]
		if e.val == 0 {
			e.key, e.val, e.last = k, ri+1, pos
			t.n++
			if uint64(t.n)*2 > t.mask {
				t.grow()
			}
			return 0, false
		}
		if e.key == k {
			prevLast = e.last
			e.last = pos
			return prevLast, true
		}
	}
}

// swap stores k → payload v and returns the previous payload if k was
// present — one probe for the merge's read-modify-write of the
// last-access view.
//
//rapidmrc:hotpath
func (t *lineTable) swap(k mem.Line, v int32) (old int32, found bool) {
	for i := t.slot(k); ; i = (i + 1) & t.mask {
		e := &t.slots[i]
		if e.val == 0 {
			e.key, e.val = k, v+1
			t.n++
			if uint64(t.n)*2 > t.mask {
				t.grow()
			}
			return 0, false
		}
		if e.key == k {
			old = e.val - 1
			e.val = v + 1
			return old, true
		}
	}
}

// insert places a whole entry (already biased) into a free slot; the key
// must not be present. Only grow's rehash uses it.
func (t *lineTable) insert(e tableEntry) {
	for i := t.slot(e.key); ; i = (i + 1) & t.mask {
		if t.slots[i].val == 0 {
			t.slots[i] = e
			t.n++
			return
		}
	}
}

func (t *lineTable) grow() {
	old := t.slots
	t.alloc((int(t.mask) + 1) * 2)
	t.n = 0
	for i := range old {
		if old[i].val != 0 {
			t.insert(old[i])
		}
	}
}
