package core

import "rapidmrc/internal/mem"

// tableEntry packs a key, an occupancy flag and the key's most recent
// window position into one 16-byte slot, so a probe touches a single
// cache line (a split keys/vals layout costs up to three misses per
// lookup on large tables). A false used marks an empty slot, which lets
// a fresh table be the runtime's zeroed allocation with no
// sentinel-writing pass over the slots.
type tableEntry struct {
	key  mem.Line
	last int32
	used bool
}

// lineTable is an open-addressed hash map from cache line to the
// position of its latest reference in the marker stack's window:
// Fibonacci hashing, linear probing, power-of-two capacity, no deletion.
// The owner sizes it with init for the most entries it will ever hold,
// so the load stays ≤50% and the table never grows.
type lineTable struct {
	slots []tableEntry
	mask  uint64
	n     int
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

// reset empties the table in place — one memclr over the slots (used
// false marks empty) — so a pooled consumer reuses the backing array
// instead of reallocating it.
func (t *lineTable) reset() {
	clear(t.slots)
	t.n = 0
}

//rapidmrc:hotpath
func (t *lineTable) slot(k mem.Line) uint64 {
	h := uint64(k) * 0x9E3779B97F4A7C15
	return (h ^ h>>29) & t.mask
}

// touch returns k's previous position and advances it to pos; on first
// touch it inserts k and reports found=false. One probe serves the hit,
// the miss, and the position update — the stack's only table operation.
//
//rapidmrc:hotpath
func (t *lineTable) touch(k mem.Line, pos int32) (prevLast int32, found bool) {
	for i := t.slot(k); ; i = (i + 1) & t.mask {
		e := &t.slots[i]
		if !e.used {
			e.key, e.last, e.used = k, pos, true
			t.n++
			return 0, false
		}
		if e.key == k {
			prevLast = e.last
			e.last = pos
			return prevLast, true
		}
	}
}
