// Package tracefile serializes captured access traces to a compact
// binary format, so a probing period captured on one machine can be
// analyzed offline, replayed through the Dinero-style cache experiments,
// or archived for regression baselines.
//
// Format (little-endian):
//
//	magic   "RMRC"            4 bytes
//	version uint16            currently 1
//	flags   uint16            reserved, must be zero (readers reject
//	                          nonzero values rather than silently
//	                          misinterpreting future extensions)
//	instructions uint64       application progress during capture
//	cycles       uint64       capture cost in cycles
//	count        uint64       number of entries
//	entries      count × uvarint   zig-zag delta-encoded line addresses
//
// Consecutive trace entries are strongly correlated (streams, repeated
// stale samples), so zig-zag deltas + uvarint typically compress the log
// by 4–6× over raw 8-byte entries.
//
// Write and Read handle whole traces; Reader is the incremental form of
// Read, so an archived trace can feed the streaming engine without the
// whole log ever being in memory.
package tracefile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"rapidmrc/internal/mem"
)

// magic identifies trace files.
var magic = [4]byte{'R', 'M', 'R', 'C'}

// Version is the current format version.
const Version = 1

// headerLen is the fixed header length after the magic: version, flags,
// instructions, cycles, count.
const headerLen = 2 + 2 + 8 + 8 + 8

// putHeader encodes the fixed header fields.
func putHeader(head *[headerLen]byte, instructions, cycles, count uint64) {
	binary.LittleEndian.PutUint16(head[0:], Version)
	binary.LittleEndian.PutUint16(head[2:], 0)
	binary.LittleEndian.PutUint64(head[4:], instructions)
	binary.LittleEndian.PutUint64(head[12:], cycles)
	binary.LittleEndian.PutUint64(head[20:], count)
}

// ErrBadMagic is returned when the input is not a trace file.
var ErrBadMagic = errors.New("tracefile: bad magic")

// Trace is the serializable unit: the captured lines plus the progress
// metadata MPKI normalization needs.
type Trace struct {
	Lines        []mem.Line
	Instructions uint64
	Cycles       uint64
}

// Write serializes t to w.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var head [headerLen]byte
	putHeader(&head, t.Instructions, t.Cycles, uint64(len(t.Lines)))
	if _, err := bw.Write(head[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	prev := uint64(0)
	for _, l := range t.Lines {
		delta := int64(uint64(l) - prev)
		n := binary.PutUvarint(buf[:], zigzag(delta))
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		prev = uint64(l)
	}
	return bw.Flush()
}

// Read deserializes a whole trace from r.
func Read(r io.Reader) (*Trace, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{
		Instructions: tr.Instructions(),
		Cycles:       tr.Cycles(),
	}
	// The count is attacker/corruption-controlled: start from a bounded
	// chunk and grow as entries actually decode, so a huge count on a
	// tiny (truncated) input fails fast instead of preallocating up to
	// 8 GB before reading a single entry. Allocation stays proportional
	// to the bytes really present in the input.
	const chunk = 1 << 16
	t.Lines = make([]mem.Line, 0, min(uint64(tr.Len()), chunk))
	for {
		l, err := tr.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Lines = append(t.Lines, l)
	}
}

// Reader decodes a trace file incrementally: the header is parsed by
// NewReader, then Next yields one entry at a time, so an archived probing
// period can feed a streaming engine without the whole log ever being in
// memory at once.
type Reader struct {
	br           *bufio.Reader
	instructions uint64
	cycles       uint64
	count        uint64
	read         uint64
	prev         uint64
}

// NewReader reads and validates the header, leaving r positioned at the
// first entry.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("tracefile: reading magic: %w", err)
	}
	if m != magic {
		return nil, ErrBadMagic
	}
	var head [headerLen]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("tracefile: reading header: %w", err)
	}
	if v := binary.LittleEndian.Uint16(head[0:]); v != Version {
		return nil, fmt.Errorf("tracefile: unsupported version %d", v)
	}
	if f := binary.LittleEndian.Uint16(head[2:]); f != 0 {
		return nil, fmt.Errorf("tracefile: nonzero reserved flags %#x", f)
	}
	count := binary.LittleEndian.Uint64(head[20:])
	const maxEntries = 1 << 30 // 1 Gi entries ≈ 8 GB decoded: refuse anything bigger
	if count > maxEntries {
		return nil, fmt.Errorf("tracefile: implausible entry count %d", count)
	}
	return &Reader{
		br:           br,
		instructions: binary.LittleEndian.Uint64(head[4:]),
		cycles:       binary.LittleEndian.Uint64(head[12:]),
		count:        count,
	}, nil
}

// Instructions returns the application progress recorded in the header.
func (r *Reader) Instructions() uint64 { return r.instructions }

// Cycles returns the capture cost recorded in the header.
func (r *Reader) Cycles() uint64 { return r.cycles }

// Len returns the total number of entries the file declares.
func (r *Reader) Len() int { return int(r.count) }

// Next decodes the next entry. It returns io.EOF after the last declared
// entry. A stream that ends early — whether cut between entries or in
// the middle of the final record's varint — yields an error that names
// the truncation point against the declared count and wraps
// io.ErrUnexpectedEOF, so callers can still match with errors.Is while
// logs say which file byte range went missing rather than a bare
// "unexpected EOF".
func (r *Reader) Next() (mem.Line, error) {
	if r.read >= r.count {
		return 0, io.EOF
	}
	zz, err := binary.ReadUvarint(r.br)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, fmt.Errorf("tracefile: truncated input: entry %d of %d declared in header: %w",
				r.read, r.count, io.ErrUnexpectedEOF)
		}
		return 0, fmt.Errorf("tracefile: entry %d: %w", r.read, err)
	}
	r.read++
	r.prev += uint64(unzigzag(zz))
	return mem.Line(r.prev), nil
}

// zigzag maps signed deltas to unsigned so small negative deltas stay
// small.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
