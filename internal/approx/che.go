package approx

import "rapidmrc/internal/core"

// CheFagin is the characteristic-time LRU approximation: the expected
// number of distinct lines touched in a reference window of length T is
// the working-set integral c(T) = Σ_{t=1..T} P(reuse > t); a cache of C
// lines holds the lines referenced within the characteristic time T(C)
// solving c(T) = C, so the miss ratio at C is the reuse-time tail
// probability P(reuse > T(C)). Cold and unresolved (overflow) references
// miss at every modeled size, exactly as the simulation's InfMisses do.
//
// The estimate is a single pass over the histogram — O(buckets),
// independent of the trace length.
type CheFagin struct{}

// Name implements Estimator.
func (CheFagin) Name() string { return "che" }

// Estimate implements Estimator.
func (CheFagin) Estimate(p *Profile, instructions uint64) (*Estimate, error) {
	if p.recorded == 0 {
		return nil, ErrNoSamples
	}
	n := float64(p.recorded)
	points := p.cfg.Points
	ratio := make([]float64, points)
	// crossDrop[i] is the tail probability lost across the bucket the
	// i-th characteristic time lands in — the local cliff height feeding
	// the uncertainty score.
	crossDrop := make([]float64, points)

	// One trapezoid step per bucket, fine then coarse, in reuse-time
	// order. pStart carries the previous bucket's tail probability
	// forward rather than dividing again; the expression is the same, so
	// the bits are too.
	tail := uint64(p.recorded)
	pStart := float64(tail) / n
	c := 0.0
	next := 0 // next point index to resolve
	step := func(width float64, count uint64) {
		tail -= count
		pEnd := float64(tail) / n
		cNext := c + width*(pStart+pEnd)/2
		for next < points {
			target := float64((next + 1) * p.cfg.LinesPerPoint)
			if target > cNext {
				break
			}
			// The characteristic time falls inside this bucket: linearly
			// interpolate the tail at the crossing.
			f := 1.0
			if cNext > c {
				f = (target - c) / (cNext - c)
			}
			ratio[next] = pStart + f*(pEnd-pStart)
			crossDrop[next] = pStart - pEnd
			next++
		}
		c, pStart = cNext, pEnd
	}
	for _, cnt := range p.fine {
		if next == points {
			break
		}
		step(1, cnt)
	}
	for _, cnt := range p.coarse {
		if next == points {
			break
		}
		step(coarseWidth, cnt)
	}
	// Points the working-set integral never reached: the modeled cache
	// never fills to their size, so the miss ratio there is exactly the
	// remaining tail — cold first touches plus overflow mass. (After a
	// full walk the tail IS that floor, so this is not an extrapolation;
	// any doubt about the overflow portion is charged by the uncertainty
	// score's overflow term.)
	floor := float64(p.over+p.cold) / n
	for ; next < points; next++ {
		ratio[next] = floor
	}
	clampMonotone(ratio)

	instrEff := core.EffectiveInstructions(instructions, p.recorded, p.consumed)
	mpki := make([]float64, points)
	for i, r := range ratio {
		mpki[i] = 1000 * r * n / float64(instrEff)
	}
	return &Estimate{
		Estimator:   "che",
		MRC:         core.NewMRC(mpki),
		MissRatio:   ratio,
		Uncertainty: uncertainty(p, ratio, crossDrop),
		Recorded:    p.recorded,
		InstrEff:    instrEff,
	}, nil
}

// clampMonotone enforces the physical invariants on a miss-ratio curve:
// each point in [0, 1] and non-increasing with size. The analytical
// curves already satisfy both up to floating-point noise; the clamp
// makes the property unconditional.
func clampMonotone(ratio []float64) {
	for i := range ratio {
		if ratio[i] < 0 {
			ratio[i] = 0
		}
		if ratio[i] > 1 {
			ratio[i] = 1
		}
		if i > 0 && ratio[i] > ratio[i-1] {
			ratio[i] = ratio[i-1]
		}
	}
}

// Uncertainty weights: the score combines how much of the curve's total
// drop is concentrated at a single size boundary (the fluid
// approximation smears exactly such cliffs) and how much reuse mass fell
// beyond the histogram domain, where the reuse-time → distance mapping
// is unverifiable.
const (
	uStepWeight     = 0.8
	uOverflowWeight = 2.0
	uCliffWeight    = 1.5
)

// uncertainty scores an analytical curve in [0, 1]. ratio is the
// estimate's miss-ratio curve; crossDrop the per-point tail drop across
// the bucket each characteristic time landed in (nil when the model has
// no crossing notion).
func uncertainty(p *Profile, ratio []float64, crossDrop []float64) float64 {
	n := float64(p.recorded)
	top := ratio[0]
	u := uOverflowWeight * float64(p.over) / n
	if top > 0 {
		// Relative concentration: the largest single-boundary drop as a
		// fraction of the curve height — scale-free, so flat curves of
		// any magnitude score near zero.
		maxStep := 0.0
		for i := 1; i < len(ratio); i++ {
			if s := ratio[i-1] - ratio[i]; s > maxStep {
				maxStep = s
			}
		}
		u += uStepWeight * maxStep / top
		// Cliff term: a characteristic time sitting on a sharp edge of
		// the reuse distribution means a one-bucket shift of T would move
		// the point substantially.
		maxCliff := 0.0
		for _, d := range crossDrop {
			if d > maxCliff {
				maxCliff = d
			}
		}
		u += uCliffWeight * maxCliff / top
	}
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return u
}
