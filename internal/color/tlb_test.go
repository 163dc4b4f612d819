package color

import (
	"math/rand"
	"testing"

	"rapidmrc/internal/mem"
)

// slowPhysLine is PhysLine's reference semantics: Translate on every call,
// no memoization.
func slowPhysLine(m *Mapper, l mem.Line) mem.Line {
	pp := m.Translate(mem.PageOfLine(l))
	return mem.Line(uint64(pp)*mem.LinesPerPage + uint64(mem.LineInPage(l)))
}

// TestPhysLineTLBIsPureMemoization hammers PhysLine with a conflict-heavy
// line stream (pages deliberately aliasing the same TLB index) and checks
// every translation against the uncached Translate path on a mirror
// Mapper receiving the identical first-touch order.
func TestPhysLineTLBIsPureMemoization(t *testing.T) {
	fast := newMapper(First(4))
	slow := newMapper(First(4))
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200_000; i++ {
		// Pages 0..3·tlbSize: every TLB index is aliased by three pages.
		page := uint64(rng.Intn(3 * tlbSize))
		line := mem.Line(page*mem.LinesPerPage + uint64(rng.Intn(mem.LinesPerPage)))
		if got, want := fast.PhysLine(line), slowPhysLine(slow, line); got != want {
			t.Fatalf("ref %d line %#x: PhysLine %#x, want %#x", i, line, got, want)
		}
	}
	if len(fast.table) != len(slow.table) {
		t.Fatalf("mapped pages diverge: %d vs %d", len(fast.table), len(slow.table))
	}
}

// TestRepartitionFlushesTLB pins the flush-on-Repartition invariant: a
// translation cached before a Repartition that migrates its page must not
// be served stale afterwards.
func TestRepartitionFlushesTLB(t *testing.T) {
	m := newMapper(First(1))
	line := mem.Line(5 * mem.LinesPerPage)
	before := m.PhysLine(line) // caches the translation
	moved, _ := m.Repartition(Range(8, 9))
	if moved != 1 {
		t.Fatalf("Repartition moved %d pages, want 1", moved)
	}
	after := m.PhysLine(line)
	if after == before {
		t.Fatalf("PhysLine served stale TLB entry %#x after Repartition", after)
	}
	pp := m.Translate(mem.PageOfLine(line))
	if got := OfPhysPage(pp); got != 8 {
		t.Fatalf("migrated page has color %d, want 8", got)
	}
	want := mem.Line(uint64(pp)*mem.LinesPerPage + uint64(mem.LineInPage(line)))
	if after != want {
		t.Fatalf("post-repartition PhysLine %#x, want %#x", after, want)
	}
}
