package tracefile

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"rapidmrc/internal/mem"
)

// validTraceBytes serializes a small well-formed trace for seeding.
func validTraceBytes(t testing.TB, lines []mem.Line) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := Write(&b, &Trace{Lines: lines, Instructions: 12345, Cycles: 67890}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// FuzzRead feeds arbitrary bytes to the whole-trace and incremental
// readers: neither may panic, and whatever Read accepts the Reader must
// accept identically (they share a format, so they must share a
// judgment).
func FuzzRead(f *testing.F) {
	valid := validTraceBytes(f, []mem.Line{1, 2, 3, 2, 1, 0xfff00, 0xfff01})
	f.Add(valid)
	f.Add(valid[:len(valid)-2])           // truncated mid-entry
	f.Add(valid[:headerLen+2])            // truncated header
	f.Add([]byte("RMRX\x01\x00\x00\x00")) // bad magic
	f.Add([]byte{})                       // empty

	// The final entry (delta from 0xfff00 to 0xfff01) is a single byte
	// but the one before it is a multi-byte varint: seed every cut point
	// across the last few bytes so the corpus covers a record missing
	// entirely, cut after its first byte, and cut mid-continuation.
	for cut := 1; cut <= 4; cut++ {
		f.Add(valid[:len(valid)-cut])
	}
	// Body ends exactly at the header: count declares entries, none present.
	f.Add(valid[:len(magic)+headerLen])

	// Nonzero reserved flags.
	flags := append([]byte(nil), valid...)
	flags[6] = 0x80
	f.Add(flags)

	// Implausible entry count on a tiny body.
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(huge[24:], 1<<40)
	f.Add(huge)

	// Count larger than the entries actually present.
	overcount := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(overcount[24:], 1000)
	f.Add(overcount)

	// Unsupported version.
	vers := append([]byte(nil), valid...)
	vers[4] = 9
	f.Add(vers)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))

		// The incremental reader must agree with the batch reader.
		r2, err2 := NewReader(bytes.NewReader(data))
		if err != nil {
			// NewReader only validates the header; if it succeeded,
			// draining it must surface the same malformation Read saw.
			if err2 == nil {
				for {
					if _, e := r2.Next(); e == io.EOF {
						t.Fatalf("Read rejected (%v) but Reader drained cleanly", err)
					} else if e != nil {
						break
					}
				}
			}
			return
		}
		if err2 != nil {
			t.Fatalf("Read accepted but NewReader rejected: %v", err2)
		}
		if r2.Instructions() != tr.Instructions || r2.Cycles() != tr.Cycles {
			t.Fatalf("header mismatch: Reader (%d,%d) vs Read (%d,%d)",
				r2.Instructions(), r2.Cycles(), tr.Instructions, tr.Cycles)
		}
		for i, want := range tr.Lines {
			got, e := r2.Next()
			if e != nil {
				t.Fatalf("Reader failed at entry %d of %d: %v", i, len(tr.Lines), e)
			}
			if got != want {
				t.Fatalf("entry %d: Reader %d vs Read %d", i, got, want)
			}
		}
		if _, e := r2.Next(); e != io.EOF {
			t.Fatalf("Reader yielded more than Read's %d entries (err %v)", len(tr.Lines), e)
		}

		// Accepted input must round-trip: re-encoding the decoded trace
		// and decoding again is the identity.
		var re bytes.Buffer
		if err := Write(&re, tr); err != nil {
			t.Fatalf("re-encoding accepted trace: %v", err)
		}
		tr2, err := Read(&re)
		if err != nil {
			t.Fatalf("re-decoding re-encoded trace: %v", err)
		}
		if tr2.Instructions != tr.Instructions || tr2.Cycles != tr.Cycles || len(tr2.Lines) != len(tr.Lines) {
			t.Fatalf("round-trip changed shape: %+v vs %+v", tr2, tr)
		}
		for i := range tr.Lines {
			if tr2.Lines[i] != tr.Lines[i] {
				t.Fatalf("round-trip changed entry %d", i)
			}
		}
	})
}

// FuzzWriteReadRoundTrip writes arbitrary lines, instructions and cycles
// with Write and checks that Read, and NewReader with Next, recover
// exactly what was written. data is cut into 8-byte little-endian lines,
// so any 64-bit delta, wrap-around included, reaches the encoder.
func FuzzWriteReadRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 255}, uint64(10), uint64(20))
	f.Add([]byte{}, uint64(0), uint64(0))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1<<63), 1),
		uint64(1)<<60, uint64(3))

	f.Fuzz(func(t *testing.T, data []byte, instr, cycles uint64) {
		var lines []mem.Line
		for len(data) > 0 {
			var word [8]byte
			n := copy(word[:], data)
			data = data[n:]
			lines = append(lines, mem.Line(binary.LittleEndian.Uint64(word[:])))
		}

		var b bytes.Buffer
		if err := Write(&b, &Trace{Lines: lines, Instructions: instr, Cycles: cycles}); err != nil {
			t.Fatal(err)
		}
		encoded := b.Bytes()

		tr, err := Read(bytes.NewReader(encoded))
		if err != nil {
			t.Fatalf("reading Write output: %v", err)
		}
		if tr.Instructions != instr || tr.Cycles != cycles || len(tr.Lines) != len(lines) {
			t.Fatalf("Read got (%d,%d,%d entries), want (%d,%d,%d)",
				tr.Instructions, tr.Cycles, len(tr.Lines), instr, cycles, len(lines))
		}
		for i := range lines {
			if tr.Lines[i] != lines[i] {
				t.Fatalf("Read entry %d: got %d want %d", i, tr.Lines[i], lines[i])
			}
		}

		r, err := NewReader(bytes.NewReader(encoded))
		if err != nil {
			t.Fatalf("NewReader on Write output: %v", err)
		}
		if r.Instructions() != instr || r.Cycles() != cycles || r.Len() != len(lines) {
			t.Fatalf("Reader header (%d,%d,%d), want (%d,%d,%d)",
				r.Instructions(), r.Cycles(), r.Len(), instr, cycles, len(lines))
		}
		for i, want := range lines {
			got, err := r.Next()
			if err != nil {
				t.Fatalf("Next at entry %d: %v", i, err)
			}
			if got != want {
				t.Fatalf("Next entry %d: got %d want %d", i, got, want)
			}
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("after the last entry: %v, want io.EOF", err)
		}
	})
}
