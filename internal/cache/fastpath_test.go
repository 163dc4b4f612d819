package cache

import (
	"math/rand"
	"strings"
	"testing"

	"rapidmrc/internal/mem"
)

// TestValidateRejectsBadIndexGeometry pins the explicit rejection messages
// for geometries that would break set indexing: the LineSize power-of-two
// requirement (the index shift), fractional sets, and negative ways.
// Non-power-of-two *set counts* are deliberately legal — the POWER5 L2
// itself has 1536 sets — and take the precomputed-modulus path instead.
func TestValidateRejectsBadIndexGeometry(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{
			name: "non-pow2 line size",
			cfg:  Config{Name: "X", SizeBytes: 96 * 100, LineSize: 96, Ways: 4},
			want: "not a positive power of two",
		},
		{
			name: "zero line size",
			cfg:  Config{Name: "X", SizeBytes: 1024, LineSize: 0, Ways: 2},
			want: "not a positive power of two",
		},
		{
			name: "size not multiple of line",
			cfg:  Config{Name: "X", SizeBytes: 1000, LineSize: 128, Ways: 1},
			want: "not a positive multiple of line size",
		},
		{
			name: "fractional set",
			cfg:  Config{Name: "X", SizeBytes: 128 * 10, LineSize: 128, Ways: 4},
			want: "fractional set",
		},
		{
			name: "negative ways",
			cfg:  Config{Name: "X", SizeBytes: 1024, LineSize: 128, Ways: -2},
			want: "negative associativity",
		},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// The POWER5's own non-power-of-two set counts must stay legal.
	for _, cfg := range []Config{
		{Name: "L2", SizeBytes: 1920 << 10, LineSize: 128, Ways: 10}, // 1536 sets
		{Name: "L3", SizeBytes: 36 << 20, LineSize: 128, Ways: 12},   // 24576 sets
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("POWER5 geometry %s rejected: %v", cfg.Name, err)
		}
	}
}

// TestSetIndexMatchesModulo is the fastmod property test: for every set
// count the platform uses (and a spread of awkward ones), setIndex must be
// bit-exact line % nsets across random and structured 64-bit lines.
func TestSetIndexMatchesModulo(t *testing.T) {
	counts := []int{1, 2, 3, 5, 48, 96, 1536, 24576, 1 << 20}
	rng := rand.New(rand.NewSource(11))
	for _, nsets := range counts {
		c := New(Config{
			Name:      "mod",
			SizeBytes: int64(nsets) * 128,
			LineSize:  128,
			Ways:      1,
		})
		check := func(l uint64) {
			if got, want := c.setIndex(mem.Line(l)), int(l%uint64(nsets)); got != want {
				t.Fatalf("nsets %d: setIndex(%#x) = %d, want %d", nsets, l, got, want)
			}
		}
		for i := 0; i < 5000; i++ {
			check(rng.Uint64())
		}
		for _, l := range []uint64{0, 1, uint64(nsets), uint64(nsets) - 1,
			uint64(nsets) + 1, 1 << 32, ^uint64(0), ^uint64(0) - 1} {
			check(l)
		}
	}
}

// TestHotPathOperationsDoNotAllocate verifies the allocation-free contract
// of the access fast path on both the flat-LRU caches the simulator runs
// on and a policy (pseudo-LRU fallback) cache: steady-state Access,
// Insert, and Invalidate must not allocate.
func TestHotPathOperationsDoNotAllocate(t *testing.T) {
	configs := []Config{
		{Name: "L1D", SizeBytes: 32 << 10, LineSize: 128, Ways: 4},
		{Name: "L2", SizeBytes: 1920 << 10, LineSize: 128, Ways: 10},
		{Name: "fifo", SizeBytes: 64 << 10, LineSize: 128, Ways: 8, Policy: FIFO},
	}
	for _, cfg := range configs {
		c := New(cfg)
		// Warm up so the steady state (full sets, evictions) is measured.
		for l := mem.Line(0); l < mem.Line(4*cfg.Lines()); l++ {
			c.Access(l, l%3 == 0)
		}
		var l mem.Line
		ops := map[string]func(){
			"Access": func() { c.Access(l, false); l++ },
			"Insert": func() { c.Insert(l, true); l++ },
			"Invalidate": func() {
				c.Invalidate(l)
				l++
			},
		}
		for name, op := range ops {
			if avg := testing.AllocsPerRun(1000, op); avg != 0 {
				t.Errorf("%s: %s allocates %.2f per op, want 0", cfg.Name, name, avg)
			}
		}
	}
}
