package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"rapidmrc/internal/mem"
)

// stackScript is a quick.Generator for a run of stack references with
// one Reset somewhere in the middle, at a random small geometry. Traces
// are long enough to fill the marker stack's 2×capacity window many
// times over: every reference takes a window position, and a
// renumbering frees at most 2×capacity of them.
type stackScript struct {
	capacity, groupSize int
	refs                []mem.Line
	resetAt             int
}

func (stackScript) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(genScript(r, 1+r.Intn(64)))
}

// tinyScript is a stackScript at capacities 1–3, where every few
// references renumber the window and evictions dominate.
type tinyScript struct{ stackScript }

func (tinyScript) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(tinyScript{genScript(r, 1+r.Intn(3))})
}

func genScript(r *rand.Rand, c int) stackScript {
	s := stackScript{capacity: c, groupSize: 1 + r.Intn(8)}
	n := 48*c + r.Intn(8*c)
	footprint := 1 + r.Intn(2*c+2)
	s.refs = make([]mem.Line, n)
	for i := range s.refs {
		if r.Intn(8) == 0 {
			s.refs[i] = mem.Line(1_000_000 + i) // cold
		} else {
			s.refs[i] = mem.Line(r.Intn(footprint))
		}
	}
	s.resetAt = r.Intn(n)
	return s
}

// stackObs is what one reference lets a caller observe.
type stackObs struct {
	Dist  int
	Len   int
	Full  bool
	Walks uint64
}

// runScript references the script on st and records every observation;
// withWalks false zeroes Walks, which only the range-list stacks share.
func runScript(st lenStack, sc stackScript, withWalks bool) []stackObs {
	out := make([]stackObs, len(sc.refs))
	for i, l := range sc.refs {
		if i == sc.resetAt {
			st.Reset()
		}
		o := stackObs{Dist: st.Reference(l), Len: st.Len(), Full: st.Full()}
		if withWalks {
			o.Walks = st.Walks()
		}
		out[i] = o
	}
	return out
}

// markerRun runs the script on s, failing t unless the window was
// renumbered at least 10 times.
func markerRun(t *testing.T, s *MarkerStack, sc stackScript, withWalks bool) []stackObs {
	out := make([]stackObs, len(sc.refs))
	wraps := 0
	for i, l := range sc.refs {
		if i == sc.resetAt {
			s.Reset()
		}
		before := s.next
		o := stackObs{Dist: s.Reference(l), Len: s.Len(), Full: s.Full()}
		if withWalks {
			o.Walks = s.Walks()
		}
		if s.next <= before {
			wraps++
		}
		out[i] = o
	}
	if wraps < 10 {
		t.Errorf("cap %d: %d refs renumbered the window only %d times", sc.capacity, len(sc.refs), wraps)
	}
	return out
}

// TestMarkerStackMatchesOracles is the marker stack's central property
// (SNIPPETS 2 CheckEqual idiom): on random scripts at capacities 1–64
// and group sizes 1–8, wrapping the window at least 10 times and
// resetting mid-run, it agrees with the textbook stack on every
// distance, Len, and Full, and with the paper-era walking range list on
// those and on the modeled Walks after every reference.
func TestMarkerStackMatchesOracles(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	naive := func(sc stackScript) []stackObs { return runScript(NewNaiveStack(sc.capacity), sc, false) }
	walk := func(sc stackScript) []stackObs {
		return runScript(NewWalkRangeStack(sc.capacity, sc.groupSize), sc, true)
	}
	marker := func(sc stackScript, withWalks bool) []stackObs {
		return markerRun(t, NewStack(sc.capacity, sc.groupSize), sc, withWalks)
	}
	if err := quick.CheckEqual(func(sc stackScript) []stackObs { return marker(sc, false) }, naive, cfg); err != nil {
		t.Errorf("vs NaiveStack: %v", err)
	}
	if err := quick.CheckEqual(func(sc stackScript) []stackObs { return marker(sc, true) }, walk, cfg); err != nil {
		t.Errorf("vs WalkRangeStack: %v", err)
	}
}

// TestUnpricedMarkerStackMatchesNaive pins the stack that skips the walk
// model: on the same scripts, and on capacities 1–3 where renumbering
// and eviction are constant, it agrees with the textbook stack on every
// distance, Len, and Full, and its Walks stays 0 — Walks is recorded, so
// a nonzero count would differ from the naive side's zero.
func TestUnpricedMarkerStackMatchesNaive(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	naive := func(sc stackScript) []stackObs { return runScript(NewNaiveStack(sc.capacity), sc, false) }
	unpriced := func(sc stackScript) []stackObs { return markerRun(t, NewUnpricedStack(sc.capacity), sc, true) }
	if err := quick.CheckEqual(unpriced, naive, cfg); err != nil {
		t.Errorf("capacities 1–64: %v", err)
	}
	tiny := func(sc tinyScript) []stackObs { return unpriced(sc.stackScript) }
	tinyNaive := func(sc tinyScript) []stackObs { return naive(sc.stackScript) }
	if err := quick.CheckEqual(tiny, tinyNaive, cfg); err != nil {
		t.Errorf("capacities 1–3: %v", err)
	}
}

// TestNewStackForFollowsPricing checks NewStackFor counts walks exactly
// when the config prices them.
func TestNewStackForFollowsPricing(t *testing.T) {
	cfg := DefaultConfig()
	if s := NewStackFor(cfg, 64); s.walk == nil {
		t.Error("priced config built a stack without the walk model")
	}
	cfg.CostPerWalk = 0
	s := NewStackFor(cfg, 64)
	if s.walk != nil {
		t.Error("unpriced config built a stack with the walk model")
	}
	for i := 0; i < 1000; i++ {
		s.Reference(mem.Line(i % 100))
	}
	if s.Walks() != 0 {
		t.Errorf("unpriced stack reports %d walks", s.Walks())
	}
}

// TestMarkerStackBoundedMemory streams an all-distinct trace through 20+
// windows: after the first window the table's slots, the tree's bitmap
// and counts, and the position log never change size — the stack's
// memory is fixed by its capacity, not by how much it has consumed.
func TestMarkerStackBoundedMemory(t *testing.T) {
	const capacity = 1000
	s := NewStack(capacity, 16)
	window := 2 * capacity
	for i := 0; i < window; i++ {
		s.Reference(mem.Line(i))
	}
	slots, bits, counts, lines := len(s.table.slots), len(s.tree.bits), len(s.tree.buf), len(s.lines)
	for i := window; i < 25*window; i++ {
		if d := s.Reference(mem.Line(i)); d != Infinite {
			t.Fatalf("distinct line %d: distance %d", i, d)
		}
		if len(s.table.slots) != slots || len(s.tree.bits) != bits || len(s.tree.buf) != counts || len(s.lines) != lines {
			t.Fatalf("ref %d: slots %d→%d bitmap %d→%d counts %d→%d log %d→%d", i,
				slots, len(s.table.slots), bits, len(s.tree.bits), counts, len(s.tree.buf), lines, len(s.lines))
		}
		if s.table.n > window {
			t.Fatalf("ref %d: %d tabled lines in a %d-position window", i, s.table.n, window)
		}
	}
	if !s.Full() || s.Len() != capacity {
		t.Fatalf("len %d full %v after the sweep", s.Len(), s.Full())
	}
}

// TestMarkerStackRetainedHeap pins the O(capacity) footprint at the
// paper's geometry: after a 400k-reference mixed trace (hot set, warm
// set, cold stream) the stack retains at most 1.5 MiB of heap.
func TestMarkerStackRetainedHeap(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	trace := make([]mem.Line, 400_000)
	for i := range trace {
		switch r.Intn(4) {
		case 0:
			trace[i] = mem.Line(r.Intn(1000))
		case 1, 2:
			trace[i] = mem.Line(2000 + r.Intn(12000))
		default:
			trace[i] = mem.Line(1_000_000 + i)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewStack(15360, DefaultGroupSize)
	for _, l := range trace {
		s.Reference(l)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(s)
	runtime.KeepAlive(trace)
	t.Logf("stack retains %.2f MiB", float64(retained)/(1<<20))
	if retained > 1.5*(1<<20) {
		t.Fatalf("stack retains %d bytes, want ≤ 1.5 MiB", retained)
	}
}
