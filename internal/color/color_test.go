package color

import (
	"testing"
	"testing/quick"

	"rapidmrc/internal/mem"
)

// newMapper returns a Mapper with a private frame allocator.
func newMapper(allowed Set) *Mapper {
	return NewMapperWith(NewAllocator(), allowed)
}

func TestSetBasics(t *testing.T) {
	if All.Count() != NumColors {
		t.Fatalf("All has %d colors, want %d", All.Count(), NumColors)
	}
	s := Range(2, 5)
	if got := s.Colors(); len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("Range(2,5).Colors() = %v", got)
	}
	if !s.Has(3) || s.Has(5) {
		t.Fatal("Has misbehaves on Range(2,5)")
	}
	if First(1) != 1 {
		t.Fatalf("First(1) = %v", First(1))
	}
	if got := s.String(); got != "colors[2 3 4]" {
		t.Errorf("String() = %q", got)
	}
}

func TestRangePanics(t *testing.T) {
	for _, c := range []struct{ lo, hi int }{{-1, 3}, {0, 17}, {5, 5}, {6, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Range(%d,%d) did not panic", c.lo, c.hi)
				}
			}()
			Range(c.lo, c.hi)
		}()
	}
}

func TestOfPhysPageCoversAllColorsEvenly(t *testing.T) {
	counts := make([]int, NumColors)
	for p := 0; p < PageGroups*10; p++ {
		c := OfPhysPage(mem.PhysPage(p))
		if c < 0 || c >= NumColors {
			t.Fatalf("color out of range: %d", c)
		}
		counts[c]++
	}
	for c, n := range counts {
		if n != GroupsPerColor*10 {
			t.Errorf("color %d allocated %d pages, want %d", c, n, GroupsPerColor*10)
		}
	}
}

func TestTranslateStableAndConstrained(t *testing.T) {
	m := newMapper(Range(4, 6))
	p1 := m.Translate(100)
	p2 := m.Translate(100)
	if p1 != p2 {
		t.Fatal("translation not stable")
	}
	for vp := mem.Page(0); vp < 500; vp++ {
		pp := m.Translate(vp)
		if c := OfPhysPage(pp); c != 4 && c != 5 {
			t.Fatalf("page %d got color %d outside [4,6)", vp, c)
		}
	}
	if len(m.table) != 500 { // pages 0..499; page 100 is among them
		t.Fatalf("mapped = %d, want 500", len(m.table))
	}
}

// TestNoFrameReuse verifies distinct virtual pages get distinct physical
// frames — otherwise two pages would alias in the cache model.
func TestNoFrameReuse(t *testing.T) {
	m := newMapper(First(1))
	seen := make(map[mem.PhysPage]mem.Page)
	for vp := mem.Page(0); vp < 1000; vp++ {
		pp := m.Translate(vp)
		if prev, dup := seen[pp]; dup {
			t.Fatalf("frame %d reused by pages %d and %d", pp, prev, vp)
		}
		seen[pp] = vp
	}
}

// TestPartitionSetDisjointness is the isolation property behind software
// cache partitioning: pages from disjoint color sets can never map to the
// same L2 set group.
func TestPartitionSetDisjointness(t *testing.T) {
	f := func(seedA, seedB uint16, n uint8) bool {
		a := newMapper(Range(0, 8))
		b := newMapper(Range(8, 16))
		groupsA := make(map[uint64]bool)
		for vp := mem.Page(0); vp < mem.Page(n%64)+1; vp++ {
			pa := a.Translate(vp + mem.Page(seedA))
			groupsA[uint64(pa)%PageGroups] = true
		}
		for vp := mem.Page(0); vp < mem.Page(n%64)+1; vp++ {
			pb := b.Translate(vp + mem.Page(seedB))
			if groupsA[uint64(pb)%PageGroups] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPhysLineGeometry(t *testing.T) {
	m := newMapper(All)
	// Two lines in the same virtual page stay in the same physical page
	// and keep their in-page offset.
	l0 := mem.Line(1000 * mem.LinesPerPage)
	l5 := l0 + 5
	p0 := m.PhysLine(l0)
	p5 := m.PhysLine(l5)
	if p5 != p0+5 {
		t.Fatalf("in-page offset not preserved: %d vs %d", p0, p5)
	}
	if mem.PageOfLine(p0) != mem.PageOfLine(p5) {
		t.Fatal("lines of one virtual page split across physical pages")
	}
}

func TestRepartitionMigratesOnlyDisallowed(t *testing.T) {
	m := newMapper(First(16))
	for vp := mem.Page(0); vp < 160; vp++ {
		m.Translate(vp)
	}
	// Count pages already in colors 0..7.
	inLow := 0
	for vp := mem.Page(0); vp < 160; vp++ {
		if c := OfPhysPage(m.Translate(vp)); c < 8 {
			inLow++
		}
	}
	moved, cycles := m.Repartition(Range(0, 8))
	if moved != 160-inLow {
		t.Fatalf("moved %d pages, want %d", moved, 160-inLow)
	}
	if cycles != uint64(moved)*MigrationCyclesPerPage {
		t.Fatalf("cycles = %d, want %d", cycles, uint64(moved)*MigrationCyclesPerPage)
	}
	for vp := mem.Page(0); vp < 160; vp++ {
		if c := OfPhysPage(m.Translate(vp)); c >= 8 {
			t.Fatalf("page %d still in color %d after repartition", vp, c)
		}
	}
	// Repartitioning to the same set moves nothing.
	moved2, _ := m.Repartition(Range(0, 8))
	if moved2 != 0 {
		t.Errorf("second repartition moved %d pages", moved2)
	}
}

// TestRepartitionDeterministic pins that a repartition places pages the
// same way on two mappers with the same history: the migrated pages take
// the new frames in virtual-page order, not in map iteration order.
func TestRepartitionDeterministic(t *testing.T) {
	a, b := newMapper(All), newMapper(All)
	for vp := mem.Page(0); vp < 2000; vp++ {
		a.Translate(vp)
		b.Translate(vp)
	}
	for _, s := range []Set{Range(0, 5), Range(3, 9), First(2)} {
		ma, _ := a.Repartition(s)
		mb, _ := b.Repartition(s)
		if ma != mb {
			t.Fatalf("repartition to %v moved %d and %d pages", s, ma, mb)
		}
		for vp := mem.Page(0); vp < 2000; vp++ {
			if pa, pb := a.Translate(vp), b.Translate(vp); pa != pb {
				t.Fatalf("after repartition to %v, page %d maps to %d and %d", s, vp, pa, pb)
			}
		}
	}
}

// TestSharedAllocatorDisjointFrames verifies two mappers on one Allocator
// never hand out the same frame, even with overlapping color sets — the
// invariant co-scheduled workloads rely on.
func TestSharedAllocatorDisjointFrames(t *testing.T) {
	alloc := NewAllocator()
	a := NewMapperWith(alloc, All)
	b := NewMapperWith(alloc, All)
	seen := make(map[mem.PhysPage]string)
	for vp := mem.Page(0); vp < 500; vp++ {
		pa := a.Translate(vp)
		pb := b.Translate(vp)
		if owner, dup := seen[pa]; dup {
			t.Fatalf("frame %d double-allocated (first %s)", pa, owner)
		}
		seen[pa] = "a"
		if owner, dup := seen[pb]; dup {
			t.Fatalf("frame %d double-allocated (first %s)", pb, owner)
		}
		seen[pb] = "b"
	}
}

func TestEmptySetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("an empty color set did not panic")
		}
	}()
	NewMapperWith(NewAllocator(), 0)
}

// TestColorUniformSpread checks allocation balances across the groups of
// the allowed colors so a partition's sets fill evenly.
func TestColorUniformSpread(t *testing.T) {
	m := newMapper(Range(0, 4)) // 12 groups
	groupCount := make(map[uint64]int)
	const pages = 12 * 50
	for vp := mem.Page(0); vp < pages; vp++ {
		pp := m.Translate(vp)
		groupCount[uint64(pp)%PageGroups]++
	}
	if len(groupCount) != 12 {
		t.Fatalf("spread over %d groups, want 12", len(groupCount))
	}
	for g, n := range groupCount {
		if n != 50 {
			t.Errorf("group %d has %d pages, want 50", g, n)
		}
	}
}
