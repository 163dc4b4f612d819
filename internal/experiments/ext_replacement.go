package experiments

import (
	"fmt"
	"io"

	"rapidmrc/internal/cache"
	"rapidmrc/internal/report"
)

// ReplacementResult holds one policy's measured miss-rate curve from
// trace replay, against the stack model's prediction.
type ReplacementResult struct {
	Policy cache.Policy
	// MissRate[k] is the replayed miss rate with k+1 colors of capacity.
	MissRate []float64
	// MeanAbsGap is the mean |replayed − stack-predicted| miss rate over
	// the 16 sizes.
	MeanAbsGap float64
}

// ExtReplacement quantifies the stack algorithm's LRU assumption (§2.1:
// "the MRC of a Least Recently Used policy may be significantly different
// from that of a Most Recently Used policy for the same memory access
// sequence"). The same captured mcf trace is replayed through L2-sized
// caches under LRU, FIFO, Random and MRU replacement; the Mattson stack
// prediction is computed once. LRU replay should track the prediction
// closely (Figure 5d already showed associativity barely matters); the
// other policies should diverge — most dramatically MRU.
func ExtReplacement(w io.Writer, cfg Config) ([]ReplacementResult, error) {
	pr := mcfTrace(cfg, cfg.entries())
	lines := pr.lines

	// Stack-model prediction: misses at each size / recorded references.
	res, err := pr.curve()
	if err != nil {
		return nil, err
	}
	// Convert the MRC (MPKI over capture instructions) back to a miss
	// ratio over trace references for comparison with replays.
	refsPerKI := 1000 * float64(res.Recorded) / float64(res.Instructions)
	predicted := make([]float64, 16)
	for i, mpki := range res.MRC.MPKI {
		predicted[i] = mpki / refsPerKI
	}

	warm := len(lines) / 5
	policies := []cache.Policy{cache.LRU, cache.FIFO, cache.Random, cache.MRU}
	out := make([]ReplacementResult, 0, len(policies))
	names := make([]string, 0, len(policies)+1)
	series := make([][]float64, 0, len(policies)+1)
	for _, p := range policies {
		rates := make([]float64, 16)
		for k := 0; k < 16; k++ {
			c := cache.Config{
				Name:      "repl",
				SizeBytes: int64(k+1) * 960 * 128,
				LineSize:  128,
				Ways:      10,
				Policy:    p,
				Seed:      cfg.Seed,
			}
			rates[k] = cache.Replay(c, lines, warm).MissRate()
		}
		gap := 0.0
		for k := range rates {
			d := rates[k] - predicted[k]
			if d < 0 {
				d = -d
			}
			gap += d
		}
		out = append(out, ReplacementResult{Policy: p, MissRate: rates, MeanAbsGap: gap / 16})
		names = append(names, p.String())
		series = append(series, rates)
	}
	names = append(names, "Stack model")
	series = append(series, predicted)

	fmt.Fprintf(w, "Extension: replacement policy vs the stack model's LRU assumption (mcf trace replay)\n\n")
	fmt.Fprint(w, report.Series("colors", colorAxis(), names, series))
	fmt.Fprint(w, report.Plot("miss rate vs capacity by replacement policy", names, series, 48, 12))
	rows := make([][]string, len(out))
	for i, r := range out {
		rows[i] = []string{r.Policy.String(), fmt.Sprintf("%.4f", r.MeanAbsGap)}
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, report.Table([]string{"Policy", "Mean |replay − stack model|"}, rows))
	return out, nil
}
