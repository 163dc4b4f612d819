package core_test

import (
	"math/rand"
	"testing"

	"rapidmrc/internal/core"
	"rapidmrc/internal/mem"
)

// benchTrace reproduces benchsuite's mixed-locality trace (hot set, warm
// set, cold stream) so the numbers here are directly comparable to the
// stack_* and stream_engine entries in BENCH_simulator.json.
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

func benchCompute(b *testing.B, workers int) {
	trace := benchTrace(400_000)
	cfg := core.DefaultConfig()
	b.SetBytes(int64(len(trace)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ComputeParallel(trace, 10_000_000, cfg, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputeParallel1(b *testing.B) { benchCompute(b, 1) }
func BenchmarkComputeParallel2(b *testing.B) { benchCompute(b, 2) }
func BenchmarkComputeParallel4(b *testing.B) { benchCompute(b, 4) }

// BenchmarkComputeParallelConcurrent drives independent ComputeParallel
// calls from concurrent goroutines (the min1324-style RunParallel shape):
// the multi-tenant daemon's workload, where one engine run per tenant
// proceeds in parallel with the others.
func BenchmarkComputeParallelConcurrent(b *testing.B) {
	trace := benchTrace(100_000)
	cfg := core.DefaultConfig()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := core.ComputeParallel(trace, 10_000_000, cfg, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}
