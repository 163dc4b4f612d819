package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// compareMain applies the paired rule to two sets of run records: the
// parent's, then the change's. Files are grouped by directory (a
// directory argument stands for its *.json files); the first directory
// named is the parent. For each workload and end-to-end metric it prints
// both sides' median and quartiles and a verdict:
//
//   - regression: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: the parent's own interquartile range exceeds the bound,
//     so a shift within it cannot be told from noise — unless every
//     change run beats every parent run;
//   - better / ok otherwise.
//
// A change also fails when one of its runs failed a check, when a larger
// share of its operations failed than of the parent's, or when a model
// value (simulated cycles, accuracy) differs from the parent's at all:
// those are deterministic for a seed, and the run's own oracles come from
// the code under test, so they are what guards accuracy. Runs whose seed,
// sizes, nproc or GOMAXPROCS differ are not paired, and a parent run that
// failed a check is no baseline. The exit status is 1 when the change
// regressed or failed, 2 when the runs cannot be compared.
func compareMain(args []string, benchPath string) int {
	bf, err := loadBenchmark(benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrcbench -compare:", err)
		return 2
	}
	sides, err := loadSides(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrcbench -compare:", err)
		return 2
	}
	rejected := false
	for _, w := range sortedKeys(sides[0]) {
		parent, change := sides[0][w], sides[1][w]
		if len(change) == 0 {
			fmt.Printf("%s: no change runs\n", w)
			continue
		}
		if err := pairable(append(append([]*result(nil), parent...), change...)); err != nil {
			fmt.Fprintf(os.Stderr, "mrcbench -compare: %s: %v\n", w, err)
			return 2
		}
		for i, r := range parent {
			if !r.Correct {
				fmt.Fprintf(os.Stderr, "mrcbench -compare: %s: parent run %d failed its checks, so it is no baseline: %v\n", w, i+1, r.Checks)
				return 2
			}
		}
		fmt.Printf("%s: parent %d runs, change %d runs (seed %d)\n", w, len(parent), len(change), parent[0].Meta.Seed)
		fmt.Printf("  %-22s %-36s %-36s %8s %6s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "worse", "bound", "verdict")
		for _, m := range bf.EndToEnd {
			p, c := values(parent, m.Name), values(change, m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v, worse := verdict(p, c, m.Better, m.Bound)
			if v == "regression" {
				rejected = true
			}
			fmt.Printf("  %-22s %-36s %-36s %+7.1f%% %5.0f%%  %s\n", m.Name, summary(p), summary(c), 100*worse, 100*m.Bound, v)
		}
		for _, k := range sortedKeys(parent[0].Model) {
			p, c := modelValues(parent, k), modelValues(change, k)
			state := "identical"
			if !allEqual(append(p, c...)) {
				state = fmt.Sprintf("differs: parent %v, change %v", p, c)
			}
			if timingDependent[k] {
				state += " (timing-dependent, not gated)"
			}
			fmt.Printf("  model %-18s %s\n", k, state)
		}
		for _, msg := range gate(parent, change) {
			rejected = true
			fmt.Printf("  FAIL %s\n", msg)
		}
	}
	for _, w := range sortedKeys(sides[1]) {
		if _, ok := sides[0][w]; !ok {
			fmt.Printf("%s: no parent runs\n", w)
		}
	}
	if rejected {
		return 1
	}
	return 0
}

// loadSides reads the records named by args into parent and change sets,
// keyed by workload.
func loadSides(args []string) ([2]map[string][]*result, error) {
	var sides [2]map[string][]*result
	var dirs []string
	var files []string
	for _, a := range args {
		st, err := os.Stat(a)
		if err != nil {
			return sides, err
		}
		if !st.IsDir() {
			files = append(files, a)
			continue
		}
		m, err := filepath.Glob(filepath.Join(a, "*.json"))
		if err != nil {
			return sides, err
		}
		sort.Strings(m)
		files = append(files, m...)
	}
	side := map[string]int{}
	for _, f := range files {
		d := filepath.Dir(f)
		if _, ok := side[d]; !ok {
			side[d] = len(dirs)
			dirs = append(dirs, d)
		}
	}
	if len(dirs) != 2 {
		return sides, fmt.Errorf("want records from exactly two directories (parent, then change), got %d: %v", len(dirs), dirs)
	}
	sides[0], sides[1] = map[string][]*result{}, map[string][]*result{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return sides, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return sides, fmt.Errorf("%s: %w", f, err)
		}
		s := sides[side[filepath.Dir(f)]]
		s[r.Meta.Workload] = append(s[r.Meta.Workload], &r)
	}
	return sides, nil
}

// pairable refuses runs that did not do the same work on the same host
// shape.
func pairable(rs []*result) error {
	a := rs[0].Meta
	for _, r := range rs[1:] {
		b := r.Meta
		switch {
		case a.Seed != b.Seed:
			return fmt.Errorf("seeds differ (%d vs %d)", a.Seed, b.Seed)
		case a.Trace != b.Trace || a.Quick != b.Quick || !reflect.DeepEqual(a.Sizes, b.Sizes):
			return fmt.Errorf("sizes differ (%+v trace=%t vs %+v trace=%t)", a.Sizes, a.Trace, b.Sizes, b.Trace)
		case a.NProc != b.NProc:
			return fmt.Errorf("nproc differs (%d vs %d)", a.NProc, b.NProc)
		case a.GoMaxProcs != b.GoMaxProcs:
			return fmt.Errorf("GOMAXPROCS differs (%d vs %d)", a.GoMaxProcs, b.GoMaxProcs)
		}
	}
	return nil
}

// timingDependent are model values that may legitimately differ between
// runs of one seed: a tiered tenant's live polls race its ingest worker,
// so which tier serves the final curve can vary.
var timingDependent = map[string]bool{"tier_error_mpki": true}

// gate returns why a change's runs fail regardless of their speed: a
// failed check, a larger share of failed operations than the parent's,
// or a deterministic model value that differs from the parent's.
func gate(parent, change []*result) []string {
	var fails []string
	for i, r := range change {
		if !r.Correct {
			fails = append(fails, fmt.Sprintf("change run %d failed its checks: %v", i+1, r.Checks))
		}
	}
	if p, c := failedFrac(parent), failedFrac(change); c > p {
		fails = append(fails, fmt.Sprintf("failed operations: change %.4g of attempted, parent %.4g", c, p))
	}
	keys := map[string]bool{}
	for _, r := range append(append([]*result(nil), parent...), change...) {
		for k := range r.Model {
			keys[k] = true
		}
	}
	for _, k := range sortedKeys(keys) {
		if timingDependent[k] {
			continue
		}
		p, c := modelValues(parent, k), modelValues(change, k)
		if !allEqual(append(p, c...)) {
			fails = append(fails, fmt.Sprintf("model value %s differs: parent %v, change %v", k, p, c))
		}
	}
	return fails
}

func failedFrac(rs []*result) float64 {
	var failed, attempted float64
	for _, r := range rs {
		failed += float64(r.Failed)
		attempted += float64(r.Attempted)
	}
	return ratio(failed, attempted)
}

func values(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func modelValues(rs []*result, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.Model[name])
	}
	return out
}

func allEqual(xs []float64) bool {
	for _, x := range xs[1:] {
		if math.Float64bits(x) != math.Float64bits(xs[0]) {
			return false
		}
	}
	return true
}

// verdict applies the paired rule to one metric and returns it with the
// share by which the change's median is worse than the parent's.
func verdict(parent, change []float64, better string, bound float64) (string, float64) {
	pq, cq := quartiles(parent), quartiles(change)
	worse := (cq[1] - pq[1]) / pq[1]
	if better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if better == "higher" && c <= p || better != "higher" && c >= p {
				allBetter = false
			}
		}
	}
	switch {
	case worse > bound:
		return "regression", worse
	case (pq[2]-pq[0])/pq[1] > bound && !allBetter:
		return "unresolved", worse
	case worse < -bound:
		return "better", worse
	}
	return "ok", worse
}

// quartiles are the three cut points of Python's
// statistics.quantiles(data, n=4) (the default exclusive method), so
// the run's p50 and p75 and -compare's medians and spreads are the
// numbers that function gives. An empty sample has quartiles 0.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

func summary(xs []float64) string {
	q := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", q[1], q[0], q[2])
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
