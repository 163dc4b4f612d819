package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rapidmrc/internal/mem"
)

// repTrace builds a random trace with stale-SDAR-style repetition runs
// and mixed locality, the input shape both correctors must agree on.
func repTrace(r *rand.Rand, n int) []mem.Line {
	trace := make([]mem.Line, 0, n)
	for len(trace) < n {
		switch r.Intn(5) {
		case 0: // repetition run, 2..6 copies
			l := mem.Line(r.Intn(2000))
			k := 2 + r.Intn(5)
			for j := 0; j < k && len(trace) < n; j++ {
				trace = append(trace, l)
			}
		case 1: // near-miss: a value one above the previous (run-break bait)
			if len(trace) > 0 {
				trace = append(trace, trace[len(trace)-1]+1)
			} else {
				trace = append(trace, mem.Line(r.Intn(2000)))
			}
		case 2: // hot set
			trace = append(trace, mem.Line(r.Intn(100)))
		case 3: // warm set
			trace = append(trace, mem.Line(500+r.Intn(5000)))
		default: // cold stream
			trace = append(trace, mem.Line(1_000_000+len(trace)))
		}
	}
	return trace
}

func TestStreamCorrectorMatchesBatch(t *testing.T) {
	f := func(seed int64, size uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(size%2000) + 1
		trace := repTrace(r, n)

		batch := make([]mem.Line, n)
		copy(batch, trace)
		wantConv := CorrectPrefetchRepetitions(batch)

		var c StreamCorrector
		got := make([]mem.Line, n)
		for i, l := range trace {
			got[i] = c.Feed(l)
		}
		if !reflect.DeepEqual(batch, got) {
			t.Logf("batch %v\nstream %v", batch, got)
			return false
		}
		return c.Converted() == wantConv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamCorrectorRunBreakEdge pins the batch quirk the streaming
// rewriter must reproduce: the entry that breaks a run is not compared
// against the synthesized run tail, so a raw value equal to the last
// rewritten line does not seed a run.
func TestStreamCorrectorRunBreakEdge(t *testing.T) {
	// Run 7,7 rewrites to 7,8; the breaker 8 is kept raw and, being a new
	// prev, the following raw 8 seeds a fresh run: [7 8 8 9 9].
	in := []mem.Line{7, 7, 8, 8, 9}
	batch := make([]mem.Line, len(in))
	copy(batch, in)
	conv := CorrectPrefetchRepetitions(batch)

	var c StreamCorrector
	got := make([]mem.Line, len(in))
	for i, l := range in {
		got[i] = c.Feed(l)
	}
	if !reflect.DeepEqual(batch, got) || c.Converted() != conv {
		t.Fatalf("batch %v (conv %d), stream %v (conv %d)", batch, conv, got, c.Converted())
	}
}
