// Package workload generates deterministic synthetic memory reference
// streams standing in for the paper's 30 SPEC applications.
//
// An application's MRC is a function of its reuse-distance distribution,
// not its program text, so each application is modeled as a weighted mix
// of four pattern primitives whose reuse behaviour is analytically known:
//
//   - Loop: sequential cyclic sweep over N lines. Stack distance exactly N;
//     prefetch-friendly (ascending lines), so the real machine hides most
//     of its misses.
//   - Chase: pointer chase in a fixed pseudo-random order over N lines.
//     Stack distance exactly N, but the prefetcher cannot help. This is
//     the primitive that places sharp knees in an MRC.
//   - Random: uniform random access over N lines. Hit rate in an LRU cache
//     of S lines ≈ S/N, giving a smooth linear MRC segment.
//   - Stream: monotonic sweep over a region far larger than any cache.
//     Every access is a miss; prefetch recovers most of them on the real
//     machine, which is the mechanism behind the large *negative*
//     v-offsets of libquantum and omnetpp in Table 2.
//
// Mixing these with per-application weights, working-set sizes and phase
// schedules yields real MRCs with the qualitative shape of Figure 3.
package workload

import (
	"math/rand"

	"rapidmrc/internal/mem"
)

// Kind selects a pattern primitive.
type Kind uint8

const (
	// Loop is a sequential cyclic sweep.
	Loop Kind = iota
	// Chase is a pseudo-random-order cyclic walk (pointer chase).
	Chase
	// Random is uniform random access.
	Random
	// Stream is a monotonic never-reusing sweep.
	Stream
)

// String returns the pattern kind name.
func (k Kind) String() string {
	switch k {
	case Loop:
		return "loop"
	case Chase:
		return "chase"
	case Random:
		return "random"
	case Stream:
		return "stream"
	default:
		return "unknown"
	}
}

// streamRegionLines is the wrap-around region of a Stream pattern: large
// enough that no line repeats within any window that matters.
const streamRegionLines = 1 << 21 // 256 MB of lines

// pattern is instantiated pattern state. Patterns emit virtual line
// addresses within their private region.
type pattern interface {
	next(r *rand.Rand) mem.Line
}

type loopPat struct {
	base mem.Line
	n    int
	pos  int
}

func (p *loopPat) next(*rand.Rand) mem.Line {
	l := p.base + mem.Line(p.pos)
	p.pos++
	if p.pos == p.n {
		p.pos = 0
	}
	return l
}

type chasePat struct {
	base mem.Line
	perm []int32
	pos  int
}

func newChasePat(base mem.Line, n int, r *rand.Rand) *chasePat {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	r.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return &chasePat{base: base, perm: perm}
}

func (p *chasePat) next(*rand.Rand) mem.Line {
	l := p.base + mem.Line(p.perm[p.pos])
	p.pos++
	if p.pos == len(p.perm) {
		p.pos = 0
	}
	return l
}

type randPat struct {
	base mem.Line
	draw intn // uniform on [0, lines)
}

func (p *randPat) next(r *rand.Rand) mem.Line {
	return p.base + mem.Line(p.draw.draw(r))
}

type streamPat struct {
	base mem.Line
	n    int
	pos  int
}

func (p *streamPat) next(*rand.Rand) mem.Line {
	l := p.base + mem.Line(p.pos)
	p.pos++
	if p.pos == p.n {
		p.pos = 0
	}
	return l
}

// build instantiates a pattern primitive at base.
func build(k Kind, base mem.Line, lines int, r *rand.Rand) pattern {
	if lines <= 0 && k != Stream {
		panic("workload: pattern with no lines")
	}
	switch k {
	case Loop:
		return &loopPat{base: base, n: lines}
	case Chase:
		return newChasePat(base, lines, r)
	case Random:
		return &randPat{base: base, draw: newIntn(lines)}
	case Stream:
		n := lines
		if n < streamRegionLines {
			n = streamRegionLines
		}
		return &streamPat{base: base, n: n}
	default:
		panic("workload: unknown pattern kind")
	}
}

// regionLines returns the virtual-address footprint to reserve for a
// component.
func regionLines(k Kind, lines int) int {
	if k == Stream && lines < streamRegionLines {
		return streamRegionLines
	}
	return lines
}
