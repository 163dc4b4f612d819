package approx

import "rapidmrc/internal/core"

// FullyAssociative is the analytical fully-associative LRU cache model:
// under the working-set view, a reference with reuse time t finds
// c(t) = Σ_{s=1..t} P(reuse > s) distinct lines stacked above its
// previous access, so its expected stack distance is c(t). The model
// maps every histogram bucket to that expected distance, synthesizing a
// stack-distance histogram without simulating a stack, and integrates it
// through the exact core.CurveFromHist pipeline — so the only
// approximation is reuse-time → distance, not the curve integration.
//
// Like CheFagin it is a single O(buckets) pass; the two models agree on
// smooth reuse distributions and diverge on cliffs, which the tiered
// policy exploits as a disagreement signal.
type FullyAssociative struct{}

// Name implements Estimator.
func (FullyAssociative) Name() string { return "fullassoc" }

// Estimate implements Estimator.
func (FullyAssociative) Estimate(p *Profile, instructions uint64) (*Estimate, error) {
	if p.recorded == 0 {
		return nil, ErrNoSamples
	}
	n := float64(p.recorded)
	cfg := p.cfg
	hist := make([]uint64, cfg.StackLines+1)
	inf := p.over + p.cold

	// The same trapezoid walk as CheFagin's, over every bucket.
	tail := uint64(p.recorded)
	pStart := float64(tail) / n
	c := 0.0
	step := func(width float64, count uint64) {
		tail -= count
		pEnd := float64(tail) / n
		cNext := c + width*(pStart+pEnd)/2
		if count > 0 {
			// Expected stack distance for this bucket's references: the
			// working-set integral at the bucket midpoint.
			d := int((c + cNext) / 2)
			if d < 1 {
				d = 1
			}
			if d > cfg.StackLines {
				inf += count
			} else {
				hist[d] += count
			}
		}
		c, pStart = cNext, pEnd
	}
	for _, cnt := range p.fine {
		step(1, cnt)
	}
	for _, cnt := range p.coarse {
		step(coarseWidth, cnt)
	}

	instrEff := core.EffectiveInstructions(instructions, p.recorded, p.consumed)
	mpki := core.CurveFromHist(hist, inf, instrEff, cfg)
	ratio := make([]float64, len(mpki))
	for i, v := range mpki {
		ratio[i] = v * float64(instrEff) / (1000 * n)
	}
	clampMonotone(ratio)
	return &Estimate{
		Estimator:   "fullassoc",
		MRC:         core.NewMRC(mpki),
		MissRatio:   ratio,
		Uncertainty: uncertainty(p, ratio, nil),
		Recorded:    p.recorded,
		InstrEff:    instrEff,
	}, nil
}
