package workload

import (
	"math"
	"math/rand"
	"testing"
)

// checkIntn draws k values from intn(n) and from rand.Intn(n) on two
// generators with the same seed, and requires the same values and the same
// generator state afterwards.
func checkIntn(t *testing.T, n int, seed int64, k int) {
	t.Helper()
	d := newIntn(n)
	got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	for i := 0; i < k; i++ {
		if g, w := d.draw(got), want.Intn(n); g != w {
			t.Fatalf("n=%d seed=%d draw %d: %d, rand.Intn %d", n, seed, i, g, w)
		}
	}
	if g, w := got.Int63(), want.Int63(); g != w {
		t.Fatalf("n=%d seed=%d: generator state differs after %d draws", n, seed, k)
	}
}

func TestIntnMatchesRandIntn(t *testing.T) {
	ns := []int{1, 2, 3, 5, 6, 7, 10, 11, 100, 1000, 12_345, 15_360, 1 << 20, 3 << 29, (1 << 30) + 1,
		math.MaxInt32 - 1, math.MaxInt32}
	for k := 0; k < 31; k++ {
		ns = append(ns, 1<<k)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		ns = append(ns, 1+r.Intn(math.MaxInt32), 1+r.Intn(1<<16))
	}
	for i, n := range ns {
		checkIntn(t, n, int64(i), 2000)
	}
}

// scriptSource is a rand.Source returning a fixed sequence of Int63
// values, so a test can hand a draw the exact values it needs.
type scriptSource struct {
	vals []int64
	pos  int
}

func (s *scriptSource) Int63() int64 { v := s.vals[s.pos]; s.pos++; return v }
func (s *scriptSource) Seed(int64)   {}

// TestIntnRejectsLikeRandIntn drives the rejection loop with scripted
// draws: an Int31 of 2³¹−1 is above every non-power-of-two bound, and for
// n = 3·2²⁹ every draw of n or more is rejected, as is 2³¹−2 for n = 6.
func TestIntnRejectsLikeRandIntn(t *testing.T) {
	top := int64(math.MaxInt32) << 32 // Int31 draws 2³¹−1
	for _, tc := range []struct {
		n    int
		vals []int64
	}{
		{math.MaxInt32, []int64{top, top, 12345 << 32, 0}},
		{3, []int64{top, 7 << 32, 0}},
		{3 << 29, []int64{int64(3<<29) << 32, int64(3<<29+5) << 32, 17 << 32, 0}},
		{6, []int64{int64(math.MaxInt32-1) << 32, 0}},
	} {
		d := newIntn(tc.n)
		gs, ws := &scriptSource{vals: tc.vals}, &scriptSource{vals: tc.vals}
		g, w := d.draw(rand.New(gs)), rand.New(ws).Intn(tc.n)
		if g != w || gs.pos != ws.pos {
			t.Errorf("n=%d: draw %d after %d values, rand.Intn %d after %d", tc.n, g, gs.pos, w, ws.pos)
		}
		if gs.pos < 2 {
			t.Errorf("n=%d: the script did not reach the rejection loop", tc.n)
		}
	}
}

// TestIntnBoundaryLikeRandIntn scripts the draws at the edge of the
// rejection bound, the largest draw Int31n accepts and the smallest it
// rejects, for assorted n.
func TestIntnBoundaryLikeRandIntn(t *testing.T) {
	for _, n := range []int{1, 2, 3, 6, 7, 1000, 1 << 20, 3 << 29, (1 << 30) + 1, math.MaxInt32} {
		top := int64((1 << 31) - 1 - (1<<31)%uint32(n))
		for _, v := range []int64{top, top + 1} {
			if v > math.MaxInt32 {
				continue
			}
			vals := []int64{v << 32, 5 << 32}
			d := newIntn(n)
			gs, ws := &scriptSource{vals: vals}, &scriptSource{vals: vals}
			g, w := d.draw(rand.New(gs)), rand.New(ws).Intn(n)
			if g != w || gs.pos != ws.pos {
				t.Errorf("n=%d, Int31 %d: draw %d after %d values, rand.Intn %d after %d", n, v, g, gs.pos, w, ws.pos)
			}
		}
	}
}

func TestNewIntnRejectsOutOfRange(t *testing.T) {
	for _, n := range []int{0, -1, math.MaxInt32 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newIntn(%d) did not panic", n)
				}
			}()
			newIntn(n)
		}()
	}
}
