package workload

import (
	"testing"

	"rapidmrc/internal/mem"
)

// TestNextBatchMatchesNext pins the bulk-generation contract for every
// bundled application: NextBatch(buf) returns exactly the refs the same
// number of Next calls would, for assorted buffer sizes (including sizes
// that straddle phase boundaries).
func TestNextBatchMatchesNext(t *testing.T) {
	const total = 20_000
	sizes := []int{1, 7, 256, 4096}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name != "mcf" && name != "swim" {
				t.Skip("short mode: representative subset")
			}
			ref := New(MustByName(name), 42)
			want := make([]mem.Ref, total)
			for i := range want {
				want[i] = ref.Next()
			}

			for _, size := range sizes {
				batched := New(MustByName(name), 42)
				buf := make([]mem.Ref, size)
				got := 0
				for got < total {
					n := batched.NextBatch(buf)
					if n != size {
						t.Fatalf("size %d: NextBatch returned %d, want full buffer (infinite stream)", size, n)
					}
					for i := 0; i < n && got < total; i++ {
						if buf[i] != want[got] {
							t.Fatalf("size %d: ref %d = %+v, want %+v", size, got, buf[i], want[got])
						}
						got++
					}
				}
			}
		})
	}
}

// TestReadBatchFallsBackForLegacyGenerators checks the helper's per-ref
// fallback path against the bulk path on the same stream.
func TestReadBatchFallsBackForLegacyGenerators(t *testing.T) {
	bulk := New(MustByName("twolf"), 7)
	legacy := legacyGen{New(MustByName("twolf"), 7)}

	a := make([]mem.Ref, 1000)
	b := make([]mem.Ref, 1000)
	if n := mem.ReadBatch(bulk, a); n != len(a) {
		t.Fatalf("bulk ReadBatch returned %d", n)
	}
	if n := mem.ReadBatch(legacy, b); n != len(b) {
		t.Fatalf("legacy ReadBatch returned %d", n)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ref %d: bulk %+v vs legacy %+v", i, a[i], b[i])
		}
	}
}

// legacyGen hides the BatchGenerator extension, forcing mem.ReadBatch onto
// its per-ref fallback.
type legacyGen struct{ g *Gen }

func (l legacyGen) Next() mem.Ref    { return l.g.Next() }
func (l legacyGen) Name() string     { return l.g.Name() }
func (l legacyGen) Reset(seed int64) { l.g.Reset(seed) }

// TestIncrementalPhaseMatchesScan drives generators far enough to wrap
// their phase schedules several times and checks the incremental phase
// state against the phaseFor reference scan after every reference.
func TestIncrementalPhaseMatchesScan(t *testing.T) {
	for _, name := range []string{"mcf", "gzip", "swim", "art", "bzip2"} {
		g := New(MustByName(name), 3)
		// Enough refs to wrap the cyclic schedule at least twice.
		steps := int(2*g.cycle/uint64(g.gapMax/2+1)) + 1000
		if steps > 3_000_000 {
			steps = 3_000_000
		}
		for i := 0; i < steps; i++ {
			g.Next()
			if want := g.phaseFor(g.instr); g.current != want {
				t.Fatalf("%s: after ref %d (instr %d): incremental phase %d, scan says %d",
					name, i, g.instr, g.current, want)
			}
			if g.cyclePos != g.instr%g.cycle {
				t.Fatalf("%s: cyclePos %d, want %d", name, g.cyclePos, g.instr%g.cycle)
			}
		}
	}
}
