package prefetch

import (
	"testing"

	"rapidmrc/internal/mem"
)

// page returns the first line of page n, so tests control page boundaries.
func page(n int) mem.Line { return mem.Line(n * mem.LinesPerPage) }

func TestDisabledIssuesNothing(t *testing.T) {
	p := New(false)
	if p.enabled {
		t.Fatal("New(false) built an enabled prefetcher")
	}
	for l := page(1); l < page(1)+100; l++ {
		if got := p.Observe(l); got != nil {
			t.Fatalf("disabled prefetcher issued %v", got)
		}
	}
}

func TestStreamDetectionAndRunAhead(t *testing.T) {
	p := New(true)
	base := page(4)
	// First access: candidate only.
	if got := p.Observe(base); got != nil {
		t.Fatalf("first access issued %v", got)
	}
	// Second consecutive access confirms the stream, one line ahead.
	got := p.Observe(base + 1)
	if len(got) != 1 || got[0] != base+2 {
		t.Fatalf("stream confirmation issued %v, want [%d]", got, base+2)
	}
	// Subsequent accesses keep issuing fresh lines only: issued lines
	// over the whole walk must be strictly increasing, contiguous, and
	// always ahead of the demand line.
	last := base + 2
	for l := base + 2; l < base+20; l++ {
		burst := p.Observe(l)
		for _, pl := range burst {
			if pl != last+1 {
				t.Fatalf("issue gap or repeat: got %d after %d (demand %d)", pl, last, l)
			}
			if pl <= l {
				t.Fatalf("prefetch %d not ahead of demand %d", pl, l)
			}
			if pl > l+mem.Line(MaxDepth) {
				t.Fatalf("prefetch %d beyond run-ahead of demand %d", pl, l)
			}
			last = pl
		}
	}
	// Steady state must have reached full depth run-ahead.
	if last < base+20+MaxDepth-1 {
		t.Fatalf("run-ahead frontier %d, want ≥ %d", last, base+20+MaxDepth-1)
	}
}

func TestHitsKeepStreamAlive(t *testing.T) {
	// The caller feeds all demand accesses (hits included); a long
	// sequential walk must keep exactly one stream advancing.
	p := New(true)
	base := page(7)
	covered := make(map[mem.Line]bool)
	misses := 0
	for l := base; l < base+mem.LinesPerPage; l++ {
		if l != base && !covered[l] {
			misses++
		}
		for _, pl := range p.Observe(l) {
			covered[pl] = true
		}
	}
	// After the two-access startup, everything within the page should
	// have been prefetched before demand reached it.
	if misses > 2 {
		t.Fatalf("%d demand misses within one page; prefetcher not covering", misses)
	}
}

func TestNoPrefetchAcrossPageBoundary(t *testing.T) {
	p := New(true)
	base := page(3)
	endOfPage := base + mem.LinesPerPage - 1
	for l := base; l <= endOfPage; l++ {
		for _, pl := range p.Observe(l) {
			if pl > endOfPage {
				t.Fatalf("prefetched %d past page end %d", pl, endOfPage)
			}
		}
	}
	// The first access of the next page must not be treated as a
	// continuation (physical pages are not adjacent in general).
	if got := p.Observe(endOfPage + 1); got != nil {
		t.Fatalf("stream crossed page boundary: %v", got)
	}
}

func TestRandomAccessesNeverTriggerStreams(t *testing.T) {
	p := New(true)
	for i := 0; i < 1000; i++ {
		l := mem.Line(i * 1000)
		if got := p.Observe(l); got != nil {
			t.Fatalf("scattered access %d triggered prefetch %v", l, got)
		}
	}
}

func TestMultipleConcurrentStreams(t *testing.T) {
	p := New(true)
	bases := []mem.Line{page(100), page(200), page(300), page(400)}
	for step := mem.Line(0); step < 10; step++ {
		for _, b := range bases {
			p.Observe(b + step)
		}
	}
	// Every stream is still live: its next line advances it, which
	// issues one more line at full run-ahead.
	for _, b := range bases {
		if got := p.Observe(b + 10); len(got) != 1 || got[0] != b+10+MaxDepth {
			t.Fatalf("stream at %d: access %d issued %v, want [%d]", b, b+10, got, b+10+MaxDepth)
		}
	}
}

func TestStreamLRUReplacement(t *testing.T) {
	p := New(true)
	for s := 0; s < Streams+1; s++ {
		base := page(10 * (s + 1))
		p.Observe(base)
		p.Observe(base + 1)
		p.Observe(base + 2)
	}
	// Stream 0 was LRU-replaced: its next line no longer advances.
	if got := p.Observe(page(10) + 3); got != nil {
		t.Fatalf("evicted stream still advanced: issued %v", got)
	}
	// The newest stream is intact.
	if got := p.Observe(page(10*(Streams+1)) + 3); len(got) == 0 {
		t.Fatal("most recent stream was evicted")
	}
}

func TestIssuedBurstsContiguous(t *testing.T) {
	p := New(true)
	base := page(9)
	p.Observe(base)
	for l := base + 1; l < base+8; l++ {
		burst := p.Observe(l)
		for i := 1; i < len(burst); i++ {
			if burst[i] != burst[i-1]+1 {
				t.Fatalf("burst not contiguous: %v", burst)
			}
		}
	}
}
