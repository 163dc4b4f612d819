package platform

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rapidmrc/internal/cache"
	"rapidmrc/internal/mem"
)

// l1dOp is one L1-D lookup of a script.
type l1dOp struct {
	line  mem.Line
	store bool
}

// l1dScript is a random sequence of L1-D lookups over a few sets, with
// more distinct lines per set than ways, so that hits land at every
// position, full sets evict and stores miss.
type l1dScript []l1dOp

// Generate implements quick.Generator.
func (l1dScript) Generate(r *rand.Rand, size int) reflect.Value {
	s := make(l1dScript, 50+r.Intn(400))
	sets := 1 + r.Intn(3)
	for i := range s {
		set := mem.Line(r.Intn(sets))
		tag := mem.Line(r.Intn(l1dWays + 2))
		if r.Intn(8) == 0 {
			tag += 1 << 33 // a high tag on the same set
		}
		s[i] = l1dOp{line: set + tag*l1dSets, store: r.Intn(3) == 0}
	}
	return reflect.ValueOf(s)
}

// l1dCoverage counts what a script exercised.
type l1dCoverage struct {
	hits        [l1dWays]int // load and store hits by way
	evictions   int          // load misses into a full set
	storeMisses int
}

// position returns the way holding line, or -1.
func (c *l1d) position(line mem.Line) int {
	for i, l := range c.sets[line%l1dSets] {
		if l == line {
			return i
		}
	}
	return -1
}

// runL1DScript replays s on the L1-D and on the cache.Cache oracle of the
// same geometry, where a store is a Probe followed, on a hit, by an
// Access. After every lookup it compares the outcome and which of the
// script's lines each side holds.
func runL1DScript(t *testing.T, s l1dScript, cov *l1dCoverage) bool {
	t.Helper()
	c := newL1D()
	o := cache.New(Power5().L1D)
	for i, op := range s {
		pos := c.position(op.line)
		full := c.sets[op.line%l1dSets][l1dWays-1] != l1dEmpty
		var got, want bool
		if op.store {
			got = c.store(op.line)
			want = o.Probe(op.line)
			if want {
				o.Access(op.line, false)
			}
		} else {
			got = c.load(op.line)
			want = o.Access(op.line, false).Hit
		}
		if got != want {
			t.Errorf("op %d (%+v): hit %v, oracle %v", i, op, got, want)
			return false
		}
		switch {
		case got:
			cov.hits[pos]++
		case op.store:
			cov.storeMisses++
		case full:
			cov.evictions++
		}
		for _, q := range s {
			if in, oin := c.position(q.line) >= 0, o.Probe(q.line); in != oin {
				t.Errorf("after op %d (%+v): line %d held %v, oracle %v", i, op, q.line, in, oin)
				return false
			}
		}
	}
	return true
}

func TestL1DMatchesCacheOracle(t *testing.T) {
	spec := Power5().L1D
	if spec.Sets() != l1dSets || spec.Ways != l1dWays || spec.Policy != cache.LRU {
		t.Fatalf("Power5 L1-D is %d sets × %d ways (%v), l1d models %d × %d LRU",
			spec.Sets(), spec.Ways, spec.Policy, l1dSets, l1dWays)
	}
	var cov l1dCoverage
	f := func(s l1dScript) bool { return runL1DScript(t, s, &cov) }
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	for way, n := range cov.hits {
		if n == 0 {
			t.Errorf("no hit at way %d", way)
		}
	}
	if cov.evictions == 0 || cov.storeMisses == 0 {
		t.Errorf("coverage: %d evictions, %d store misses", cov.evictions, cov.storeMisses)
	}
}

// TestL1DStoreMissDoesNotAllocate pins the no-allocate store directly: a
// store to an absent line misses, leaves the line absent, and leaves the
// set's other lines where they were.
func TestL1DStoreMissDoesNotAllocate(t *testing.T) {
	c := newL1D()
	for _, l := range []mem.Line{3 * l1dSets, 2 * l1dSets, l1dSets} {
		c.load(l)
	}
	before := c.sets[0]
	if c.store(0) {
		t.Fatal("store to an absent line hit")
	}
	if c.sets[0] != before {
		t.Fatalf("store miss changed the set: %v, was %v", c.sets[0], before)
	}
	if !c.store(2*l1dSets) || c.position(2*l1dSets) != 0 {
		t.Fatal("store hit did not move the line to the MRU way")
	}
}
