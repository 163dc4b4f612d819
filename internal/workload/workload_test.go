package workload

import (
	"math"
	"testing"
	"testing/quick"

	"rapidmrc/internal/mem"
)

func TestAllRegisteredConfigsValid(t *testing.T) {
	names := Names()
	if len(names) != 30 {
		t.Fatalf("registry has %d apps, want 30", len(names))
	}
	for _, n := range names {
		cfg := MustByName(n)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nonesuch"); err == nil {
		t.Fatal("ByName(nonesuch) succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustByName(nonesuch) did not panic")
		}
	}()
	MustByName("nonesuch")
}

func TestNamesComplete(t *testing.T) {
	s := Names()
	if len(s) != 30 {
		t.Fatalf("%d names", len(s))
	}
	seen := make(map[string]bool)
	for _, name := range s {
		if seen[name] {
			t.Fatalf("%s registered twice", name)
		}
		seen[name] = true
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	good := Config{
		Name: "x", MemFrac: 0.3, StoreFrac: 0.2,
		Phases: []Phase{{Instructions: 100, Mix: []Component{{Weight: 1, Kind: Loop, Lines: 10}}}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{}, // empty everything
		{Name: "x", MemFrac: 0, Phases: good.Phases},
		{Name: "x", MemFrac: 1.5, Phases: good.Phases},
		{Name: "x", MemFrac: 0.3, StoreFrac: -1, Phases: good.Phases},
		{Name: "x", MemFrac: 0.3},
		{Name: "x", MemFrac: 0.3, Phases: []Phase{{Instructions: 0, Mix: good.Phases[0].Mix}}},
		{Name: "x", MemFrac: 0.3, Phases: []Phase{{Instructions: 5}}},
		{Name: "x", MemFrac: 0.3, Phases: []Phase{{Instructions: 5, Mix: []Component{{Weight: 0.5, Kind: Loop, Lines: 10}}}}},
		{Name: "x", MemFrac: 0.3, Phases: []Phase{{Instructions: 5, Mix: []Component{{Weight: 1, Kind: Loop, Lines: 0}}}}},
		{Name: "x", MemFrac: 0.3, Phases: []Phase{{Instructions: 5, Mix: []Component{{Weight: -1, Kind: Loop, Lines: 10}, {Weight: 2, Kind: Loop, Lines: 10}}}}},
		// Bounds past 2^31-1 that the generator's draws cannot take.
		{Name: "x", MemFrac: 1e-10, Phases: good.Phases},
		{Name: "x", MemFrac: 0.3, Phases: []Phase{{Instructions: 5, Mix: []Component{{Weight: 1, Kind: Random, Lines: math.MaxInt32 + 1}}}}},
		// NaN fails every comparison, so it must fail every range check.
		{Name: "x", MemFrac: math.NaN(), Phases: good.Phases},
		{Name: "x", MemFrac: 0.3, StoreFrac: math.NaN(), Phases: good.Phases},
		{Name: "x", MemFrac: 0.3, Phases: []Phase{{Instructions: 5, Mix: []Component{{Weight: math.NaN(), Kind: Loop, Lines: 10}}}}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := New(MustByName("mcf"), 42)
	b := New(MustByName("mcf"), 42)
	for i := 0; i < 10000; i++ {
		ra, rb := a.Next(), b.Next()
		if ra != rb {
			t.Fatalf("streams diverge at ref %d: %+v vs %+v", i, ra, rb)
		}
	}
	// Different seeds should diverge quickly.
	c := New(MustByName("mcf"), 43)
	same := 0
	a.Reset(42)
	for i := 0; i < 1000; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 100 {
		t.Fatalf("different seeds produced %d/1000 identical refs", same)
	}
}

func TestResetRestartsStream(t *testing.T) {
	g := New(MustByName("twolf"), 7)
	first := make([]mem.Ref, 100)
	for i := range first {
		first[i] = g.Next()
	}
	g.Reset(7)
	for i := range first {
		if got := g.Next(); got != first[i] {
			t.Fatalf("after reset, ref %d = %+v, want %+v", i, got, first[i])
		}
	}
}

func TestMemFracHonored(t *testing.T) {
	g := New(MustByName("jbb"), 1)
	var refs, instr uint64
	for i := 0; i < 200000; i++ {
		r := g.Next()
		refs++
		instr += uint64(r.Gap) + 1
	}
	frac := float64(refs) / float64(instr)
	if math.Abs(frac-0.30) > 0.02 {
		t.Fatalf("memory fraction = %v, want ≈0.30", frac)
	}
}

func TestStoreFracHonored(t *testing.T) {
	g := New(MustByName("mcf_2k6"), 1) // StoreFrac 0.45
	stores := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if g.Next().Kind == mem.Store {
			stores++
		}
	}
	frac := float64(stores) / n
	if math.Abs(frac-0.45) > 0.02 {
		t.Fatalf("store fraction = %v, want ≈0.45", frac)
	}
}

func TestComponentRegionsDisjoint(t *testing.T) {
	// Patterns must never emit addresses in another component's region;
	// we approximate by checking lines fall into as many disjoint
	// clusters as there are components, separated by guard gaps.
	g := New(MustByName("art"), 3)
	seen := make(map[mem.Page]bool)
	for i := 0; i < 300000; i++ {
		seen[mem.PageOfLine(mem.LineOf(g.Next().Addr))] = true
	}
	if len(seen) < 100 {
		t.Fatalf("only %d pages touched", len(seen))
	}
}

func TestPhaseScheduleCycles(t *testing.T) {
	cfg := Config{
		Name: "2phase", MemFrac: 0.5, StoreFrac: 0,
		Phases: []Phase{
			{Instructions: 1000, Mix: []Component{{Weight: 1, Kind: Loop, Lines: 16}}},
			{Instructions: 1000, Mix: []Component{{Weight: 1, Kind: Loop, Lines: 64}}},
		},
	}
	g := New(cfg, 1)
	counts := map[int]int{}
	for i := 0; i < 20000; i++ {
		g.Next()
		counts[g.current]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("phase schedule did not cycle: %v", counts)
	}
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("equal-length phases got ratio %v", ratio)
	}
}

func TestChaseVisitsEveryLineOncePerCycle(t *testing.T) {
	f := func(seed int64, n16 uint16) bool {
		n := int(n16%500) + 2
		cfg := Config{
			Name: "c", MemFrac: 1, StoreFrac: 0,
			Phases: []Phase{{Instructions: forever, Mix: []Component{{Weight: 1, Kind: Chase, Lines: n}}}},
		}
		g := New(cfg, seed)
		seen := make(map[mem.Line]int)
		for i := 0; i < n; i++ {
			seen[mem.LineOf(g.Next().Addr)]++
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLoopIsSequential(t *testing.T) {
	cfg := Config{
		Name: "l", MemFrac: 1, StoreFrac: 0,
		Phases: []Phase{{Instructions: forever, Mix: []Component{{Weight: 1, Kind: Loop, Lines: 10}}}},
	}
	g := New(cfg, 1)
	prev := mem.LineOf(g.Next().Addr)
	for i := 0; i < 9; i++ {
		cur := mem.LineOf(g.Next().Addr)
		if cur != prev+1 {
			t.Fatalf("loop not sequential: %d after %d", cur, prev)
		}
		prev = cur
	}
	// Wraps back to start.
	if got := mem.LineOf(g.Next().Addr); got != prev-9 {
		t.Fatalf("loop did not wrap: %d", got)
	}
}

func TestStreamNeverRepeatsWithinWindow(t *testing.T) {
	cfg := Config{
		Name: "s", MemFrac: 1, StoreFrac: 0,
		Phases: []Phase{{Instructions: forever, Mix: []Component{{Weight: 1, Kind: Stream, Lines: 0}}}},
	}
	g := New(cfg, 1)
	seen := make(map[mem.Line]bool, 200000)
	for i := 0; i < 200000; i++ {
		l := mem.LineOf(g.Next().Addr)
		if seen[l] {
			t.Fatalf("stream repeated line %d within 200k refs", l)
		}
		seen[l] = true
	}
}

// TestFootprint checks that a loop and a chase touch exactly their own
// lines: every one of them, and nothing else.
func TestFootprint(t *testing.T) {
	cfg := Config{
		Name: "f", MemFrac: 0.5, StoreFrac: 0,
		Phases: []Phase{{Instructions: forever, Mix: []Component{
			{Weight: 0.5, Kind: Loop, Lines: 100},
			{Weight: 0.5, Kind: Chase, Lines: 200},
		}}},
	}
	g := New(cfg, 1)
	seen := make(map[mem.Line]bool)
	for i := 0; i < 20_000; i++ {
		seen[mem.LineOf(g.Next().Addr)] = true
	}
	if got := len(seen); got != 300 {
		t.Fatalf("footprint = %d, want 300", got)
	}
}

func TestFillPanicsWhenOverweight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("fill did not panic on weights > 1")
		}
	}()
	fill([]Component{{Weight: 1.5, Kind: Loop, Lines: 10}})
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{Loop: "loop", Chase: "chase", Random: "random", Stream: "stream", Kind(99): "unknown"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}
