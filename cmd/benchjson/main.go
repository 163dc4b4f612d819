// Command benchjson runs the simulator benchmark suite and writes the
// results as JSON — the generator of BENCH_simulator.json, which CI
// produces on every run as a performance smoke artifact.
//
// Every row of internal/benchsuite runs through testing.Benchmark -count
// times, in -count passes over all rows; each entry reports the median
// and quartiles of its runs.
//
// Usage:
//
//	benchjson                          # print to stdout
//	benchjson -o BENCH_simulator.json  # regenerate the committed file
//	benchjson -quick -count 3          # CI smoke: one op per row and run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"

	"rapidmrc/internal/benchsuite"
)

// Result is one measured entry.
type Result struct {
	// Name identifies the measurement (stable across runs).
	Name string `json:"name"`
	// Metric is the unit of the values ("ns/ref" or "ms/op").
	Metric string `json:"metric"`
	// Median, Q1 and Q3 summarize the entry over its runs: the median
	// and the lower and upper quartiles.
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// Suite is the full report, the schema of BENCH_simulator.json.
type Suite struct {
	// RegeneratedBy documents how to refresh the file.
	RegeneratedBy string `json:"regenerated_by"`
	// GOOS/GOARCH/CPUs identify the host class; absolute numbers are only
	// comparable within one host.
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`
	// GoMaxProcs is the scheduler parallelism the suite ran under.
	GoMaxProcs int `json:"gomaxprocs"`
	// Count is the number of runs behind every entry.
	Count   int      `json:"count"`
	Results []Result `json:"results"`
}

func main() {
	// testing.Benchmark needs the testing package's flags registered; they
	// stay on flag.CommandLine, apart from benchjson's own.
	testing.Init()
	fs := flag.NewFlagSet("benchjson", flag.ExitOnError)
	var (
		out   = fs.String("o", "", "write JSON here (default stdout)")
		quick = fs.Bool("quick", false, "one op per row and run (CI smoke)")
		count = fs.Int("count", 5, "runs per row; the median and quartiles are reported")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		fail(err)
	}
	if *count < 1 {
		fail(fmt.Errorf("-count %d: want at least 1", *count))
	}
	if *quick {
		if err := flag.Set("test.benchtime", "1x"); err != nil {
			fail(err)
		}
	}

	suite, err := run(benchsuite.Rows, *count)
	if err != nil {
		fail(err)
	}
	data, err := json.MarshalIndent(suite, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(data)
	} else {
		err = os.WriteFile(*out, data, 0o644)
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// run benchmarks every row count times and summarizes each entry. Pass i
// runs every row once before pass i+1 starts, so host drift over a run
// spreads across all rows' quartiles instead of landing on the rows that
// happened to run during it. A row that fails (testing.Benchmark returns
// N == 0) fails the suite.
func run(rows []benchsuite.Row, count int) (Suite, error) {
	s := Suite{
		RegeneratedBy: "go run ./cmd/benchjson -o BENCH_simulator.json",
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Count:         count,
	}
	entries := make([][]benchsuite.Entry, len(rows))
	vals := make([][][]float64, len(rows))
	for j, row := range rows {
		entries[j] = row.Entries()
		vals[j] = make([][]float64, len(entries[j]))
	}
	for i := 0; i < count; i++ {
		for j, row := range rows {
			r := testing.Benchmark(row.Bench)
			if r.N == 0 {
				return Suite{}, fmt.Errorf("row %s failed", row.Name)
			}
			for k, e := range entries[j] {
				v, ok := r.Extra[e.Key]
				if !ok {
					return Suite{}, fmt.Errorf("row %s reported no %s", row.Name, e.Key)
				}
				vals[j][k] = append(vals[j][k], v)
			}
		}
	}
	for j := range rows {
		for k, e := range entries[j] {
			v := vals[j][k]
			res := Result{Name: e.Name, Metric: e.Unit,
				Median: quantile(v, 0.5), Q1: quantile(v, 0.25), Q3: quantile(v, 0.75)}
			fmt.Fprintf(os.Stderr, "%-28s %12.3f %s  [%.3f, %.3f]\n", res.Name, res.Median, res.Metric, res.Q1, res.Q3)
			s.Results = append(s.Results, res)
		}
	}
	return s, nil
}

// quantile returns the q-quantile of vs, interpolating linearly between
// the closest ranks of the sorted values.
func quantile(vs []float64, q float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 == len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
