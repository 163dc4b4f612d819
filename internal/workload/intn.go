package workload

import (
	"math"
	"math/bits"
	"math/rand"
)

// intn is rand.Intn(n) for one fixed n ≤ 2³¹−1, with its two divides
// precomputed. Such an Intn is Int31n: it redraws while an Int31 draw
// exceeds the rejection bound 2³¹−1 − 2³¹ mod n, then returns the draw
// mod n (for a power of two the bound is 2³¹−1, so it never redraws, and
// it masks instead of dividing — the same value). Both the bound and the
// modulus divide by n on every call. intn computes the bound once and
// takes the modulus as a Lemire fastmod: with M = ⌈2⁶⁴/n⌉ (2⁶⁴ wrapping
// to 0 for n = 1), v mod n = ⌊(M·v mod 2⁶⁴)·n / 2⁶⁴⌋, exact for every
// 32-bit v and n. So it consumes exactly the draws Intn consumes and
// returns exactly its values.
type intn struct {
	n     uint64
	bound int32  // largest accepted Int31 draw
	magic uint64 // ⌈2⁶⁴/n⌉ mod 2⁶⁴
}

// newIntn precomputes the draw for 0 < n ≤ 2³¹−1. Config.Validate keeps
// every bound a workload draws from within that range.
func newIntn(n int) intn {
	if n <= 0 || n > math.MaxInt32 {
		panic("workload: draw bound outside [1, 2^31-1]")
	}
	return intn{
		n:     uint64(n),
		bound: int32((1 << 31) - 1 - (1<<31)%uint32(n)),
		magic: math.MaxUint64/uint64(n) + 1,
	}
}

// draw returns r.Intn(n), advancing r exactly as Intn would.
//
//rapidmrc:hotpath
func (d *intn) draw(r *rand.Rand) int {
	for {
		if v := r.Int31(); v <= d.bound {
			hi, _ := bits.Mul64(d.magic*uint64(v), d.n)
			return int(hi)
		}
	}
}
