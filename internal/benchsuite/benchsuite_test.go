package benchsuite

import (
	"encoding/json"
	"os"
	"testing"
)

// BenchmarkSuite runs every row as a sub-benchmark: the same functions
// cmd/benchjson runs.
func BenchmarkSuite(b *testing.B) {
	for _, r := range Rows {
		b.Run(r.Name, r.Bench)
	}
}

// TestBenchFileMatchesRows pins the committed BENCH_simulator.json to the
// suite: its entries' names and units are the rows' entries, in order.
// Regenerate the file with `go run ./cmd/benchjson -o BENCH_simulator.json`
// after adding, renaming or reordering a row.
func TestBenchFileMatchesRows(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_simulator.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Results []struct{ Name, Metric string }
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	var want []Entry
	for _, r := range Rows {
		want = append(want, r.Entries()...)
	}
	if len(file.Results) != len(want) {
		t.Fatalf("BENCH_simulator.json has %d entries, the suite %d", len(file.Results), len(want))
	}
	for i, e := range want {
		if got := file.Results[i]; got.Name != e.Name || got.Metric != e.Unit {
			t.Errorf("entry %d: file has %s %s, suite %s %s", i, got.Name, got.Metric, e.Name, e.Unit)
		}
	}
}
