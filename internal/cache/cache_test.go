package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rapidmrc/internal/mem"
)

func testConfig(sizeLines, ways int) Config {
	return Config{
		Name:      "test",
		SizeBytes: int64(sizeLines) * 128,
		LineSize:  128,
		Ways:      ways,
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid 4-way", testConfig(64, 4), true},
		{"valid fully assoc", testConfig(64, 0), true},
		{"valid direct mapped", testConfig(64, 1), true},
		{"zero size", Config{Name: "z", SizeBytes: 0, LineSize: 128, Ways: 1}, false},
		{"line size not power of two", Config{Name: "l", SizeBytes: 1280, LineSize: 100, Ways: 1}, false},
		{"size not multiple of line", Config{Name: "m", SizeBytes: 100, LineSize: 64, Ways: 1}, false},
		{"lines not divisible by ways", Config{Name: "d", SizeBytes: 128 * 10, LineSize: 128, Ways: 3}, false},
		{"negative ways", Config{Name: "n", SizeBytes: 128 * 8, LineSize: 128, Ways: -2}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error, got nil", c.name)
		}
	}
}

func TestConfigGeometry(t *testing.T) {
	// The paper's L2: 1.875 MB, 128-byte lines, 10-way.
	l2 := Config{Name: "L2", SizeBytes: 1920 * 1024, LineSize: 128, Ways: 10}
	if err := l2.Validate(); err != nil {
		t.Fatalf("POWER5 L2 config invalid: %v", err)
	}
	if got, want := l2.Lines(), 15360; got != want {
		t.Errorf("L2 lines = %d, want %d", got, want)
	}
	if got, want := l2.Sets(), 1536; got != want {
		t.Errorf("L2 sets = %d, want %d", got, want)
	}
	fa := testConfig(64, 0)
	if got, want := fa.Sets(), 1; got != want {
		t.Errorf("fully associative sets = %d, want %d", got, want)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Direct test of Mattson-style LRU within one fully associative set.
	c := New(testConfig(4, 0))
	for i := 0; i < 4; i++ {
		if res := c.Access(mem.Line(i), false); res.Hit {
			t.Fatalf("access %d: unexpected hit", i)
		}
	}
	// Touch 0 to make it MRU; LRU is now 1.
	if res := c.Access(0, false); !res.Hit {
		t.Fatal("re-access of line 0 should hit")
	}
	res := c.Access(99, false)
	if res.Hit {
		t.Fatal("new line should miss")
	}
	if !res.Evicted || res.Victim != 1 {
		t.Fatalf("expected eviction of line 1, got %+v", res)
	}
}

func TestDirtyBitTracking(t *testing.T) {
	c := New(testConfig(2, 0))
	c.Access(1, false)
	c.Access(1, true) // hit upgrades to dirty
	c.Access(2, false)
	res := c.Access(3, false) // evicts 1 (LRU), which is dirty
	if !res.Evicted || res.Victim != 1 || !res.VictimDirty {
		t.Fatalf("expected dirty eviction of line 1, got %+v", res)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestSetIsolation(t *testing.T) {
	// Lines mapping to different sets must not evict each other.
	c := New(testConfig(8, 1)) // 8 direct-mapped sets
	for i := 0; i < 8; i++ {
		c.Access(mem.Line(i), false)
	}
	for i := 0; i < 8; i++ {
		if !c.Probe(mem.Line(i)) {
			t.Errorf("line %d missing: cross-set eviction", i)
		}
	}
	// Line 8 conflicts with line 0 only.
	c.Access(8, false)
	if c.Probe(0) {
		t.Error("line 0 should have been evicted by conflicting line 8")
	}
	for i := 1; i < 8; i++ {
		if !c.Probe(mem.Line(i)) {
			t.Errorf("line %d evicted by non-conflicting access", i)
		}
	}
}

func TestProbeDoesNotDisturbLRU(t *testing.T) {
	c := New(testConfig(2, 0))
	c.Access(1, false)
	c.Access(2, false) // LRU order: 2 (MRU), 1 (LRU)
	c.Probe(1)         // must not refresh 1
	res := c.Access(3, false)
	if res.Victim != 1 {
		t.Fatalf("probe disturbed LRU: victim = %d, want 1", res.Victim)
	}
}

func TestTouchRefreshesLRU(t *testing.T) {
	// Insert of a present line is a touch: it refreshes the line's LRU
	// position without allocating, evicting or counting an access.
	c := New(testConfig(2, 0))
	c.Access(1, false)
	c.Access(2, false)
	if res := c.Insert(1, false); !res.Hit || res.Evicted {
		t.Fatalf("insert of present line = %+v, want a hit without eviction", res)
	}
	res := c.Access(3, false)
	if res.Victim != 2 {
		t.Fatalf("touch did not refresh: victim = %d, want 2", res.Victim)
	}
	// The touch must not change access stats.
	if got := c.Stats().Accesses; got != 3 {
		t.Errorf("accesses = %d, want 3 (touch should not count)", got)
	}
}

func TestInsertAndInvalidate(t *testing.T) {
	c := New(testConfig(2, 0))
	c.Insert(5, true)
	if !c.Probe(5) {
		t.Fatal("inserted line missing")
	}
	if got := c.Stats().Accesses; got != 0 {
		t.Errorf("insert counted as access: %d", got)
	}
	present, dirty := c.Invalidate(5)
	if !present || !dirty {
		t.Fatalf("invalidate = (%v, %v), want (true, true)", present, dirty)
	}
	if c.Probe(5) {
		t.Fatal("line present after invalidate")
	}
	present, _ = c.Invalidate(5)
	if present {
		t.Fatal("double invalidate reported present")
	}
	// Insert of an existing line must not evict.
	c.Insert(1, false)
	c.Insert(2, false)
	res := c.Insert(1, false)
	if res.Evicted {
		t.Fatal("re-insert evicted a line")
	}
}

func TestStatsAccounting(t *testing.T) {
	c := New(testConfig(2, 0))
	c.Access(1, false) // miss
	c.Access(1, false) // hit
	c.Access(2, false) // miss
	c.Access(3, false) // miss + eviction
	s := c.Stats()
	if s.Accesses != 4 || s.Hits != 1 || s.Misses != 3 || s.Evictions != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if got, want := s.MissRate(), 0.75; got != want {
		t.Errorf("miss rate = %v, want %v", got, want)
	}
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Error("ResetStats did not clear accesses")
	}
	if (Stats{}).MissRate() != 0 {
		t.Error("empty stats miss rate should be 0")
	}
}

// TestSetImplementationsAgree property-tests that a one-set flat LRU and
// the map-based set produce identical results on random access sequences,
// so a fully associative cache behaves exactly like a very wide flat set.
func TestSetImplementationsAgree(t *testing.T) {
	f := func(seed int64, ways8 uint8, n uint16) bool {
		ways := int(ways8%16) + 1
		r := rand.New(rand.NewSource(seed))
		a := newFlatLRU(1, ways)
		b := newMapSet(ways)
		for i := 0; i < int(n%2000)+10; i++ {
			line := mem.Line(r.Intn(3 * ways))
			dirty := r.Intn(4) == 0
			switch r.Intn(10) {
			case 0:
				pa, da := a.invalidate(0, line)
				pb, db := b.invalidate(line)
				if pa != pb || da != db {
					return false
				}
			case 1:
				if a.probe(0, line) != b.probe(line) {
					return false
				}
			case 2:
				// The flat set touches a present line through insert,
				// which refreshes it keeping its dirty bit.
				present := a.probe(0, line)
				if present && !a.insert(0, line, dirty).Hit {
					return false
				}
				if present != b.touch(line) {
					return false
				}
			default:
				ra := a.access(0, line, dirty)
				rb := b.access(line, dirty)
				if ra != rb {
					return false
				}
			}
			if a.lenTotal() != b.len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// lenTotal returns the number of valid lines across all sets.
func (f *flatLRU) lenTotal() int {
	n := 0
	for i := 0; i < len(f.words); i += f.stride {
		n += int(f.words[i] & metaN)
	}
	return n
}

func (s *mapSet) len() int { return len(s.nodes) }

// TestLRUInclusion property-tests the stack (inclusion) property of LRU: a
// larger fully associative LRU cache always contains the contents of a
// smaller one fed the same trace. This is the property that makes a single
// Mattson stack pass equivalent to simulating all cache sizes.
func TestLRUInclusion(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		small := New(testConfig(8, 0))
		big := New(testConfig(32, 0))
		for i := 0; i < 500; i++ {
			line := mem.Line(r.Intn(64))
			small.Access(line, false)
			big.Access(line, false)
		}
		// Every line in small must be in big, and small must have no
		// fewer hits... inclusion is on contents:
		for i := 0; i < 64; i++ {
			if small.Probe(mem.Line(i)) && !big.Probe(mem.Line(i)) {
				return false
			}
		}
		return big.Stats().Misses <= small.Stats().Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReplay(t *testing.T) {
	trace := []mem.Line{1, 2, 3, 1, 2, 3, 1, 2, 3}
	// 4-line fully associative: after warmup of 3, everything hits.
	s := Replay(testConfig(4, 0), trace, 3)
	if s.Misses != 0 {
		t.Errorf("misses = %d, want 0", s.Misses)
	}
	if s.Accesses != 6 {
		t.Errorf("accesses = %d, want 6", s.Accesses)
	}
	// 2-line cache: a 3-line loop always misses under LRU.
	s = Replay(testConfig(2, 0), trace, 3)
	if s.Misses != 6 {
		t.Errorf("misses = %d, want 6 (LRU thrashing)", s.Misses)
	}
	// Warmup longer than the trace is clamped.
	s = Replay(testConfig(2, 0), trace, 100)
	if s.Accesses != 0 {
		t.Errorf("accesses = %d, want 0 with oversized warmup", s.Accesses)
	}
}

func TestAssociativitySweepMonotone(t *testing.T) {
	// Random trace over a footprint slightly larger than the cache:
	// conflict misses should not increase as associativity rises toward
	// fully associative for an LRU cache fed a uniform trace. We assert
	// the weaker, always-true property that the replayed rate at every
	// associativity is in [0, 1].
	r := rand.New(rand.NewSource(7))
	trace := make([]mem.Line, 20000)
	for i := range trace {
		trace[i] = mem.Line(r.Intn(512))
	}
	ways := []int{1, 2, 4, 8, 0}
	rates := make([]float64, len(ways))
	for i, w := range ways {
		rates[i] = Replay(testConfig(256, w), trace, 1000).MissRate()
	}
	for i, rate := range rates {
		if rate < 0 || rate > 1 {
			t.Errorf("rate[%d] = %v out of range", i, rate)
		}
	}
	// For a uniform random trace, higher associativity should help or be
	// neutral within noise; assert the endpoints are ordered.
	if rates[4] > rates[0]+0.02 {
		t.Errorf("fully associative (%v) much worse than direct mapped (%v)", rates[4], rates[0])
	}
}

func BenchmarkCacheAccess10Way(b *testing.B) {
	c := New(Config{Name: "L2", SizeBytes: 1920 * 1024, LineSize: 128, Ways: 10})
	r := rand.New(rand.NewSource(1))
	lines := make([]mem.Line, 1<<16)
	for i := range lines {
		lines[i] = mem.Line(r.Intn(40000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(lines[i&(1<<16-1)], false)
	}
}

func BenchmarkCacheAccessFullyAssociative(b *testing.B) {
	c := New(Config{Name: "L2FA", SizeBytes: 1920 * 1024, LineSize: 128, Ways: 0})
	r := rand.New(rand.NewSource(1))
	lines := make([]mem.Line, 1<<16)
	for i := range lines {
		lines[i] = mem.Line(r.Intn(40000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(lines[i&(1<<16-1)], false)
	}
}
