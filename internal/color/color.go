// Package color implements software-based cache partitioning by page
// coloring, the mechanism of Tam et al. [42] that the paper uses both to
// measure real MRCs (by confining an application to k of 16 colors) and to
// enforce the partition sizes RapidMRC chooses.
//
// Geometry: the POWER5 L2 has 1536 sets of 128-byte lines. A 4 KB page
// spans 32 consecutive lines, so consecutive physical pages walk through
// 1536/32 = 48 distinct "page groups" of sets before wrapping. With 16
// colors there are 3 page groups per color. The OS controls which L2 sets
// a process can occupy purely by choosing physical pages from the page
// groups belonging to its allowed colors — no hardware support needed.
package color

import (
	"fmt"
	"math/bits"
	"slices"

	"rapidmrc/internal/mem"
)

const (
	// NumColors is the number of cache colors the L2 is divided into.
	NumColors = 16
	// PageGroups is the number of distinct set-index groups a physical
	// page can map to (L2 sets / lines per page).
	PageGroups = 48
	// GroupsPerColor is PageGroups / NumColors.
	GroupsPerColor = PageGroups / NumColors
	// MigrationCyclesPerPage is the measured cost of migrating one 4 KB
	// page between colors: 7.3 µs at 1.5 GHz (§5.3).
	MigrationCyclesPerPage = 10950
)

// Set is a bitmask of allowed colors. Bit i set means color i is usable.
type Set uint16

// All is the Set containing every color (uncontrolled sharing).
const All Set = 1<<NumColors - 1

// Range returns the Set containing colors [lo, hi).
func Range(lo, hi int) Set {
	if lo < 0 || hi > NumColors || lo >= hi {
		panic(fmt.Sprintf("color: invalid range [%d, %d)", lo, hi))
	}
	var s Set
	for c := lo; c < hi; c++ {
		s |= 1 << c
	}
	return s
}

// First returns the Set of the first n colors. It panics unless
// 1 <= n <= NumColors.
func First(n int) Set { return Range(0, n) }

// Has reports whether color c is in the set.
func (s Set) Has(c int) bool { return s&(1<<c) != 0 }

// Count returns the number of colors in the set.
func (s Set) Count() int { return bits.OnesCount16(uint16(s)) }

// Colors returns the member colors in ascending order.
func (s Set) Colors() []int {
	out := make([]int, 0, s.Count())
	for c := 0; c < NumColors; c++ {
		if s.Has(c) {
			out = append(out, c)
		}
	}
	return out
}

// OfPhysPage returns the color of a physical page.
func OfPhysPage(p mem.PhysPage) int {
	return int(uint64(p)%PageGroups) / GroupsPerColor
}

// Allocator hands out physical page frames per page group. The simulated
// machine has unbounded RAM — only the set-index bits of a frame number
// matter to the caches — so allocation never fails. One Allocator must be
// shared by every Mapper of a co-scheduled workload so two processes never
// receive the same frame.
type Allocator struct {
	nextSeq [PageGroups]uint64
}

// NewAllocator returns an empty frame allocator.
func NewAllocator() *Allocator { return &Allocator{} }

// Alloc returns a fresh physical page in page group g.
func (a *Allocator) Alloc(g int) mem.PhysPage {
	seq := a.nextSeq[g]
	a.nextSeq[g] = seq + 1
	return mem.PhysPage(seq*PageGroups + uint64(g))
}

// tlbSize is the number of entries in the Mapper's direct-mapped
// translation cache (power of two). 1024 pages cover 4 MB of virtual
// address space, enough that the hot loops of every bundled workload hit
// almost always.
const tlbSize = 1024

// Mapper allocates physical pages for virtual pages under a color
// constraint, performing the OS's virtual→physical translation for the
// simulated machine. Pages are allocated on first touch, round-robin over
// the page groups of the allowed colors so an application spreads evenly
// across its partition.
//
// PhysLine translations run through a small direct-mapped software TLB in
// front of the page table map: a pure memoization of Translate, flushed on
// Repartition when mappings change, so it can never alter results.
//
// A Mapper is not safe for concurrent use.
type Mapper struct {
	table map[mem.Page]mem.PhysPage
	alloc *Allocator
	// rr walks the allowed groups round-robin.
	rrGroups []int
	rrPos    int

	tlbPage  [tlbSize]mem.Page
	tlbPhys  [tlbSize]mem.PhysPage
	tlbValid [tlbSize]bool
}

// NewMapperWith returns a Mapper drawing frames from a shared allocator.
// Co-scheduled processes must share one Allocator so their address spaces
// stay disjoint.
func NewMapperWith(a *Allocator, allowed Set) *Mapper {
	if allowed == 0 {
		panic("color: empty color set")
	}
	m := &Mapper{
		table: make(map[mem.Page]mem.PhysPage),
		alloc: a,
	}
	m.setAllowed(allowed)
	return m
}

func (m *Mapper) setAllowed(allowed Set) {
	m.rrGroups = m.rrGroups[:0]
	for _, c := range allowed.Colors() {
		for g := 0; g < GroupsPerColor; g++ {
			m.rrGroups = append(m.rrGroups, c*GroupsPerColor+g)
		}
	}
	m.rrPos = 0
}

// allocate picks a fresh physical page in the next round-robin group.
func (m *Mapper) allocate() mem.PhysPage {
	g := m.rrGroups[m.rrPos]
	m.rrPos = (m.rrPos + 1) % len(m.rrGroups)
	return m.alloc.Alloc(g)
}

// Translate maps a virtual page to its physical page, allocating one from
// the allowed colors on first touch.
func (m *Mapper) Translate(p mem.Page) mem.PhysPage {
	if pp, ok := m.table[p]; ok {
		return pp
	}
	pp := m.allocate()
	m.table[p] = pp
	return pp
}

// PhysLine translates a virtual line address to the physical line address
// the caches below the L1 are indexed by. This is the simulator's hottest
// translation: it consults the TLB before falling back to the page table.
func (m *Mapper) PhysLine(l mem.Line) mem.Line {
	p := mem.PageOfLine(l)
	i := int(uint64(p) & (tlbSize - 1))
	pp := m.tlbPhys[i]
	if !m.tlbValid[i] || m.tlbPage[i] != p {
		pp = m.Translate(p)
		m.tlbPage[i], m.tlbPhys[i], m.tlbValid[i] = p, pp, true
	}
	return mem.Line(uint64(pp)*mem.LinesPerPage + uint64(mem.LineInPage(l)))
}

// flushTLB drops every cached translation; required whenever existing
// table entries change.
func (m *Mapper) flushTLB() {
	m.tlbValid = [tlbSize]bool{}
}

// Repartition changes the allowed colors and migrates every mapped page
// that now sits in a disallowed color. It returns the number of pages
// migrated and the modeled cycle cost of the migration (7.3 µs per page on
// the 1.5 GHz machine).
func (m *Mapper) Repartition(allowed Set) (moved int, cycles uint64) {
	if allowed == 0 {
		panic("color: empty color set")
	}
	m.setAllowed(allowed)
	m.flushTLB()
	var victims []mem.Page
	for vp, pp := range m.table {
		if !allowed.Has(OfPhysPage(pp)) {
			victims = append(victims, vp)
		}
	}
	// Migrate in virtual-page order. Handing out the round-robin frames in
	// map order would place pages, and so shift every later miss, by Go's
	// randomized iteration order: two identical machines would diverge.
	slices.Sort(victims)
	for _, vp := range victims {
		m.table[vp] = m.allocate()
	}
	moved = len(victims)
	return moved, uint64(moved) * MigrationCyclesPerPage
}
