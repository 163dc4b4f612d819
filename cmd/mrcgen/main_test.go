package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOutputMatchesGoldens runs the command in process and requires its
// report byte-identical to testdata: the buffered Online path, the
// streamed path with and without epoch snapshots, and a streamed replay
// of a trace saved by -save. Epoch lines pin where epochs fall and the
// progress each one is stamped with. The goldens were generated by the
// built command,
//
//	mrcgen -app mcf > testdata/mcf.golden
//	mrcgen -app mcf -stream > testdata/mcf-stream.golden
//	mrcgen -app mcf -stream -epoch 20000 > testdata/mcf-stream-epoch.golden
//	mrcgen -app mcf -save mcf.trace
//	mrcgen -load mcf.trace -stream -epoch 20000 > testdata/load-stream-epoch.golden
//
// and a change that alters them on purpose regenerates them the same way.
func TestOutputMatchesGoldens(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "mcf.trace")
	var saved bytes.Buffer
	if err := run([]string{"-app", "mcf", "-save", trace}, &saved); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		golden string
		args   []string
		out    string // preset output, or run args
	}{
		{"mcf", nil, saved.String()},
		{"mcf-stream", []string{"-app", "mcf", "-stream"}, ""},
		{"mcf-stream-epoch", []string{"-app", "mcf", "-stream", "-epoch", "20000"}, ""},
		{"load-stream-epoch", []string{"-load", trace, "-stream", "-epoch", "20000"}, ""},
	} {
		got := c.out
		if c.args != nil {
			var out bytes.Buffer
			if err := run(c.args, &out); err != nil {
				t.Fatalf("%s: %v", c.golden, err)
			}
			// The report names the trace file it replayed.
			got = strings.ReplaceAll(out.String(), trace, "mcf.trace")
		}
		want, err := os.ReadFile(filepath.Join("testdata", c.golden+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs from testdata/%s.golden:\n%s", c.golden, c.golden, got)
		}
	}
}

// TestRejectsConflictingFlags checks the flag combinations run refuses
// before doing any work.
func TestRejectsConflictingFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-stream", "-save", "x.trace"},
		{"-load", "x.trace", "-sampling-rate", "0.5"},
		{"-sampling-rate", "2"},
		{"-app", "nope"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
}
