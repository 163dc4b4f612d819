package main

import (
	"flag"
	"strings"
	"testing"

	"rapidmrc/internal/benchsuite"
)

// oneOp runs every testing.Benchmark of the test for one op.
func oneOp(t *testing.T) {
	old := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := flag.Set("test.benchtime", old); err != nil {
			t.Error(err)
		}
	})
}

// TestRunFailsOnFailedRow pins that a row calling b.Fatal, which
// testing.Benchmark reports as N == 0, fails the run with its name.
func TestRunFailsOnFailedRow(t *testing.T) {
	oneOp(t)
	rows := []benchsuite.Row{{Name: "broken", Unit: "ms/op", Bench: func(b *testing.B) {
		b.Fatal("boom")
	}}}
	if _, err := run(rows, 3); err == nil || err.Error() != "row broken failed" {
		t.Fatalf("run: err = %v, want the failed row named", err)
	}
}

// TestRunReportsQuartiles pins each entry's median and quartiles over
// its runs, interpolated between ranks, for a plain and a split row.
func TestRunReportsQuartiles(t *testing.T) {
	oneOp(t)
	var calls int
	rows := []benchsuite.Row{
		{Name: "counted", Unit: "ms/op", Bench: func(b *testing.B) {
			calls++
			b.ReportMetric(float64(calls), "ms/op")
		}},
		{Name: "halves", Unit: "ns/ref", Halves: []string{"a", "b"}, Bench: func(b *testing.B) {
			b.ReportMetric(1, "a-ns/ref")
			b.ReportMetric(2, "b-ns/ref")
		}},
	}
	s, err := run(rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{
		{Name: "counted", Metric: "ms/op", Median: 2.5, Q1: 1.75, Q3: 3.25},
		{Name: "a", Metric: "ns/ref", Median: 1, Q1: 1, Q3: 1},
		{Name: "b", Metric: "ns/ref", Median: 2, Q1: 2, Q3: 2},
	}
	if s.Count != 4 || len(s.Results) != len(want) {
		t.Fatalf("count %d, results %+v", s.Count, s.Results)
	}
	for i, r := range want {
		if s.Results[i] != r {
			t.Errorf("result %d = %+v, want %+v", i, s.Results[i], r)
		}
	}
}

// TestRunFailsOnMissingMetric pins that a row which reports none of its
// entries fails the run with its name.
func TestRunFailsOnMissingMetric(t *testing.T) {
	oneOp(t)
	rows := []benchsuite.Row{{Name: "silent", Unit: "ns/ref", Bench: func(*testing.B) {}}}
	if _, err := run(rows, 1); err == nil || err.Error() != "row silent reported no ns/ref" {
		t.Fatalf("run: err = %v, want the silent row named", err)
	}
}

// TestRunInterleavesCounts pins the run order: pass i calls every row
// once before pass i+1 starts, so drift on the host during a run reaches
// every row's quartiles rather than only the rows running at the time.
func TestRunInterleavesCounts(t *testing.T) {
	oneOp(t)
	var order []string
	row := func(name string) benchsuite.Row {
		return benchsuite.Row{Name: name, Unit: "ms/op", Bench: func(b *testing.B) {
			order = append(order, name)
			b.ReportMetric(1, "ms/op")
		}}
	}
	if _, err := run([]benchsuite.Row{row("a"), row("b")}, 3); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, " "); got != "a b a b a b" {
		t.Fatalf("rows called in order %q, want \"a b a b a b\"", got)
	}
}
