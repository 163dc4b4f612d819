package core

// The stack ablation: the production marker-tree stack against the
// textbook O(n) stack and the paper-era walking range list (the
// optimization of Kim et al. the paper adopts), at the paper's
// 15,360-line/64-entry geometry.

import (
	"math/rand"
	"testing"

	"rapidmrc/internal/cpu"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/platform"
	"rapidmrc/internal/pmu"
	"rapidmrc/internal/workload"
)

// benchTrace builds a mixed-locality synthetic trace for the stack
// ablation.
func benchTrace(n int) []mem.Line {
	r := rand.New(rand.NewSource(5))
	trace := make([]mem.Line, n)
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
	return trace
}

// BenchmarkStackNaive times the textbook stack on the first 10,000 refs
// of the mixed-locality trace internal/benchsuite's stack_marker row
// replays, at the same capacity.
func BenchmarkStackNaive(b *testing.B) {
	trace := benchTrace(10_000) // a short prefix: O(n·capacity) is slow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewNaiveStack(15360)
		for _, l := range trace {
			s.Reference(l)
		}
	}
}

// mcfTrace captures the paper's showcase input: the 160 k-entry
// corrected mcf probing period at the default geometry.
func mcfTrace() []mem.Line {
	m := platform.NewMachine(workload.New(workload.MustByName("mcf"), 1),
		platform.Options{Mode: cpu.Complex, L3Enabled: true, Seed: 1})
	m.RunInstructions(500_000)
	lines := make([]mem.Line, 0, 160_000)
	m.CollectTrace(160_000, pmu.SinkFunc(func(l mem.Line) { lines = append(lines, l) }))
	CorrectPrefetchRepetitions(lines)
	return lines
}

// BenchmarkStackAblationMcf runs the naive, walking range-list, and
// production marker-tree stacks over the same 160 k-entry mcf trace —
// the three-way ablation of the stack kernel. The marker variant must
// beat the walking one by ≥ 2× on ns/ref.
func BenchmarkStackAblationMcf(b *testing.B) {
	trace := mcfTrace()
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := NewNaiveStack(15360)
			for _, l := range trace {
				s.Reference(l)
			}
		}
	})
	b.Run("walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := NewWalkRangeStack(15360, DefaultGroupSize)
			for _, l := range trace {
				s.Reference(l)
			}
		}
	})
	b.Run("marker", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := NewStack(15360, DefaultGroupSize)
			for _, l := range trace {
				s.Reference(l)
			}
		}
	})
}
