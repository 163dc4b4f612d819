package tracefile

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"rapidmrc/internal/mem"
)

// randLines mixes dense streams and far jumps, like a real capture.
func randLines(r *rand.Rand, n int) []mem.Line {
	lines := make([]mem.Line, n)
	cur := uint64(r.Intn(1 << 20))
	for i := range lines {
		switch r.Intn(4) {
		case 0:
			cur = r.Uint64() >> uint(r.Intn(40))
		default:
			cur += uint64(r.Intn(8))
		}
		lines[i] = mem.Line(cur)
	}
	return lines
}

// TestStreamRoundTrip writes a trace with Write and reads it back one
// entry at a time through Reader, checking the header and every entry.
func TestStreamRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	in := randLines(r, 10_000)

	var buf bytes.Buffer
	if err := Write(&buf, &Trace{Lines: in, Instructions: 42, Cycles: 77}); err != nil {
		t.Fatal(err)
	}

	tr, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Instructions() != 42 || tr.Cycles() != 77 || tr.Len() != len(in) {
		t.Fatalf("header: instr %d cycles %d len %d", tr.Instructions(), tr.Cycles(), tr.Len())
	}
	for i, want := range in {
		got, err := tr.Next()
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("entry %d = %d, want %d", i, got, want)
		}
	}
	if _, err := tr.Next(); err != io.EOF {
		t.Fatalf("after last entry: %v, want io.EOF", err)
	}
}

// TestReaderTruncated checks that a stream cut off mid-entries surfaces
// an unexpected-EOF rather than a silent short read.
func TestReaderTruncated(t *testing.T) {
	in := &Trace{Lines: []mem.Line{1, 2, 3, 4, 5}, Instructions: 1}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-2]
	tr, err := NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	var last error
	for i := 0; i < len(in.Lines); i++ {
		if _, last = tr.Next(); last != nil {
			break
		}
	}
	if last == nil || !bytes.Contains([]byte(last.Error()), []byte("unexpected EOF")) {
		t.Fatalf("truncated stream: %v, want wrapped ErrUnexpectedEOF", last)
	}
}
