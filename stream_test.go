package rapidmrc

import (
	"math"
	"testing"
)

func TestCurveAtClampsOutOfRange(t *testing.T) {
	c := &Curve{MPKI: []float64{40, 20, 10, 5}}
	cases := []struct {
		colors int
		want   float64
	}{
		{1, 40}, {4, 5},
		{0, 40}, {-3, 40}, // below the domain: smallest size
		{5, 5}, {1000, 5}, // past capacity: the curve is flat
	}
	for _, tc := range cases {
		if got := c.At(tc.colors); got != tc.want {
			t.Errorf("At(%d) = %v, want %v", tc.colors, got, tc.want)
		}
	}
	empty := &Curve{}
	if got := empty.At(1); got != 0 {
		t.Errorf("empty.At(1) = %v, want 0", got)
	}
	if got := empty.At(-7); got != 0 {
		t.Errorf("empty.At(-7) = %v, want 0", got)
	}
}

func TestCurveTransposeClampsRefColors(t *testing.T) {
	base := &Curve{MPKI: []float64{40, 20, 10, 5}}

	// refColors beyond the curve anchors at the last point.
	c := base.Clone()
	shift := c.Transpose(1000, 8)
	if math.Abs(shift-3) > 1e-12 || math.Abs(c.At(4)-8) > 1e-12 {
		t.Errorf("Transpose(1000, 8): shift %v, At(4) %v", shift, c.At(4))
	}

	// refColors below the domain anchors at the first point.
	c = base.Clone()
	shift = c.Transpose(0, 50)
	if math.Abs(shift-10) > 1e-12 || math.Abs(c.At(1)-50) > 1e-12 {
		t.Errorf("Transpose(0, 50): shift %v, At(1) %v", shift, c.At(1))
	}

	empty := &Curve{}
	if shift := empty.Transpose(3, 10); shift != 0 {
		t.Errorf("empty.Transpose = %v, want 0", shift)
	}
}

// TestEngineStreamMatchesCompute checks the facade-level equivalence: a
// captured trace pushed entry by entry through Engine.NewStream yields the
// same curve and statistics as Engine.Compute on the whole trace.
func TestEngineStreamMatchesCompute(t *testing.T) {
	sys, err := NewSystem("mcf", WithSeed(11), WithTraceEntries(30_000))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(200_000)
	trace := sys.Capture()

	for _, opts := range [][]EngineOption{
		nil,
		{WithoutCorrection()},
		{WithStaticWarmup(0.3)},
	} {
		batchCurve, batchStats, err := NewEngine(opts...).Compute(trace)
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewEngine(opts...).NewStream(len(trace.Lines))
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range trace.Lines {
			st.Feed(l)
		}
		if st.Entries() != len(trace.Lines) {
			t.Fatalf("Entries = %d, want %d", st.Entries(), len(trace.Lines))
		}
		curve, stats, err := st.Snapshot(trace.Instructions)
		if err != nil {
			t.Fatal(err)
		}
		if d := Distance(batchCurve, curve); d != 0 {
			t.Errorf("opts %d: curve distance %v, want exactly 0", len(opts), d)
		}
		if stats.Converted != batchStats.Converted ||
			stats.WarmupEntries != batchStats.WarmupEntries ||
			stats.AutoWarmup != batchStats.AutoWarmup ||
			stats.StackHitRate != batchStats.StackHitRate ||
			stats.ComputeCycles != batchStats.ComputeCycles {
			t.Errorf("stats diverge: batch %+v, stream %+v", batchStats, stats)
		}
	}
}

// TestSystemStreamMatchesOnline runs the fused streaming workflow and the
// batch capture→compute→transpose workflow on identically-seeded systems:
// the same machine evolution must produce the identical anchored curve.
func TestSystemStreamMatchesOnline(t *testing.T) {
	mk := func() *System {
		sys, err := NewSystem("mcf", WithSeed(5), WithTraceEntries(30_000))
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(200_000)
		return sys
	}

	batchSys := mk()
	trace := batchSys.Capture()
	batchCurve, batchStats, err := NewEngine().Compute(trace)
	if err != nil {
		t.Fatal(err)
	}
	measured := batchSys.MeasureMPKI(200_000)
	batchStats.Shift = batchCurve.Transpose(Colors, measured)

	epochs := 0
	streamSys := mk()
	curve, stats, err := streamSys.Stream(5_000, func(e StreamEpoch) {
		epochs++
		if e.Entries%5_000 != 0 || e.Curve == nil || e.Stats == nil {
			t.Errorf("malformed epoch %+v", e)
		}
		for p := 1; p < len(e.Curve.MPKI); p++ {
			if e.Curve.MPKI[p] > e.Curve.MPKI[p-1] {
				t.Errorf("epoch curve at %d entries not monotone", e.Entries)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if epochs == 0 {
		t.Fatal("no epoch snapshots delivered")
	}
	if d := Distance(batchCurve, curve); d != 0 {
		t.Fatalf("streamed curve differs from batch workflow by %v MPKI", d)
	}
	if stats.Shift != batchStats.Shift {
		t.Errorf("anchor shift %v, batch %v", stats.Shift, batchStats.Shift)
	}
	if stats.Captured != 30_000 {
		t.Errorf("Captured = %d, want 30000", stats.Captured)
	}
	if stats.Dropped != trace.Dropped || stats.Stale != trace.Stale {
		t.Errorf("artifacts: stream %d/%d, batch %d/%d",
			stats.Dropped, stats.Stale, trace.Dropped, trace.Stale)
	}
	if stats.CaptureCycles != trace.Cycles {
		t.Errorf("CaptureCycles = %d, batch %d", stats.CaptureCycles, trace.Cycles)
	}
}

func TestNewStreamRejectsBadTarget(t *testing.T) {
	if _, err := NewEngine().NewStream(0); err == nil {
		t.Error("target 0 accepted")
	}
	if _, err := NewEngine().NewStream(-5); err == nil {
		t.Error("negative target accepted")
	}
}
