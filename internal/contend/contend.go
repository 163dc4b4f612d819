// Package contend predicts shared-cache behaviour from per-application
// miss rate curves — use case (iv) of the paper's introduction: "predict
// the global MRC of N applications in an uncontrolled cache-sharing
// configuration" (after Chandra et al. [11] and Berg et al. [8]).
//
// The model: under uncontrolled sharing, LRU gives each application a
// steady-state occupancy proportional to its L2 insertion rate, and each
// application's miss rate is its MRC evaluated at that occupancy. The two
// are mutually dependent, so occupancies are solved by damped fixed-point
// iteration. Insertions come from demand misses (read off the MRC) plus
// hardware prefetch fills, which RapidMRC's host PMU counts for free —
// without the prefetch term, streaming applications that miss rarely but
// insert constantly would be predicted to occupy almost nothing.
package contend

import "fmt"

// App is one co-runner's profile, obtainable entirely online: its MRC
// (from RapidMRC) and its prefetch fill rate (a PMU counter).
type App struct {
	// MRC is MPKI per partition size, index 0 = one color.
	MRC []float64
	// PrefetchPKI is the application's solo prefetch fills per
	// kilo-instruction.
	PrefetchPKI float64
}

// Interp evaluates a curve at a fractional number of colors with linear
// interpolation, clamping to the curve's ends.
func Interp(mpki []float64, colors float64) float64 {
	if len(mpki) == 0 {
		return 0
	}
	if colors <= 1 {
		return mpki[0]
	}
	if colors >= float64(len(mpki)) {
		return mpki[len(mpki)-1]
	}
	lo := int(colors) - 1 // colors ∈ (1, len): index of the floor point
	frac := colors - float64(lo+1)
	return mpki[lo]*(1-frac) + mpki[lo+1]*frac
}

// iterations and damping of the fixed point; the solution typically
// stabilizes within a dozen rounds.
const (
	iterations = 200
	damping    = 0.3
	minColors  = 0.25
)

// Prediction is the model's output for one application.
type Prediction struct {
	// OccupancyColors is the predicted steady-state share of the cache.
	OccupancyColors float64
	// MPKI is the predicted miss rate under sharing.
	MPKI float64
}

// PredictShared solves the occupancy fixed point for apps sharing a cache
// of the given total colors.
func PredictShared(apps []App, colors float64) ([]Prediction, error) {
	n := len(apps)
	if n == 0 {
		return nil, fmt.Errorf("contend: no applications")
	}
	for i, a := range apps {
		if len(a.MRC) == 0 {
			return nil, fmt.Errorf("contend: app %d has an empty MRC", i)
		}
		if a.PrefetchPKI < 0 {
			return nil, fmt.Errorf("contend: app %d has negative prefetch rate", i)
		}
	}
	occ := make([]float64, n)
	for i := range occ {
		occ[i] = colors / float64(n)
	}
	rates := make([]float64, n)
	for iter := 0; iter < iterations; iter++ {
		total := 0.0
		for i, a := range apps {
			rates[i] = Interp(a.MRC, occ[i]) + a.PrefetchPKI
			// An application that inserts nothing still holds a sliver
			// of recently touched lines.
			if rates[i] < 1e-3 {
				rates[i] = 1e-3
			}
			total += rates[i]
		}
		for i := range occ {
			target := colors * rates[i] / total
			if target < minColors {
				target = minColors
			}
			occ[i] = (1-damping)*occ[i] + damping*target
		}
	}
	out := make([]Prediction, n)
	for i, a := range apps {
		out[i] = Prediction{
			OccupancyColors: occ[i],
			MPKI:            Interp(a.MRC, occ[i]),
		}
	}
	return out, nil
}
