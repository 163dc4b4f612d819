package approx

import "rapidmrc/internal/mem"

// lastSlot packs a cache line and the position of its latest reference
// into one 16-byte slot, so a probe touches a single cache line. pos1 is
// the position plus one: zero marks an empty slot, which keeps every
// 64-bit key valid (a service client may feed line 0 or ^0) and lets a
// fresh table be the runtime's zeroed allocation.
type lastSlot struct {
	key  mem.Line
	pos1 uint64
}

// lastTable is the Sampler's last-access index: an open-addressed hash
// map from cache line to the position of its latest reference —
// Fibonacci hashing, linear probing, power-of-two capacity, no deletion,
// like core's lineTable. Unlike that table, whose owner bounds it by a
// fixed position window, this one holds every distinct line of the
// probing period, so it doubles once it is 7/8 full. The 7/8 bound
// keeps the table no larger than the runtime map it replaced; sparser
// bounds cost resident memory without a measurable end-to-end gain.
type lastTable struct {
	slots []lastSlot
	mask  uint64
	n     int // occupied slots
	limit int // n at which the table doubles
}

// minLastSlots is a fresh table's capacity. Tables start small and
// double, like the runtime map they replaced: sizing each one for the
// modeled stack up front cost more resident memory than it saved in
// growth.
const minLastSlots = 16

func (t *lastTable) alloc(size int) {
	t.slots = make([]lastSlot, size)
	t.mask = uint64(size - 1)
	t.limit = size - size/8
}

// reset empties the table in place, keeping its (possibly grown) backing
// array for the next probing period.
func (t *lastTable) reset() {
	clear(t.slots)
	t.n = 0
}

//rapidmrc:hotpath
func (t *lastTable) slot(k mem.Line) uint64 {
	h := uint64(k) * 0x9E3779B97F4A7C15
	return (h ^ h>>29) & t.mask
}

// touch returns k's previous position and records pos as its latest; on
// first touch it inserts k and reports found=false. One probe serves the
// lookup and the update.
//
//rapidmrc:hotpath
func (t *lastTable) touch(k mem.Line, pos uint64) (prev uint64, found bool) {
	for i := t.slot(k); ; i = (i + 1) & t.mask {
		e := &t.slots[i]
		if e.pos1 == 0 {
			e.key, e.pos1 = k, pos+1
			t.n++
			if t.n >= t.limit {
				t.grow()
			}
			return 0, false
		}
		if e.key == k {
			prev = e.pos1 - 1
			e.pos1 = pos + 1
			return prev, true
		}
	}
}

// grow doubles the table and reinserts every occupied slot.
func (t *lastTable) grow() {
	old := t.slots
	t.alloc(2 * len(old))
	for _, e := range old {
		if e.pos1 == 0 {
			continue
		}
		i := t.slot(e.key)
		for t.slots[i].pos1 != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = e
	}
}
