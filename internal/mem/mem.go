// Package mem defines the primitive memory types shared by the simulator
// and the RapidMRC engine: byte addresses, cache-line addresses, pages, and
// memory-reference streams.
//
// All addresses are virtual unless a name says otherwise. The platform
// package maps virtual pages to physical pages (page coloring happens
// there); caches below the L1 are physically indexed.
package mem

import "fmt"

// Architectural constants of the simulated platform (IBM POWER5, Table 1 of
// the paper). They are compile-time constants because the entire evaluation
// uses one geometry; the cache package itself accepts arbitrary geometries.
const (
	// LineSize is the L1/L2 cache line size in bytes.
	LineSize = 128
	// LineShift is log2(LineSize).
	LineShift = 7
	// PageSize is the OS page size in bytes.
	PageSize = 4096
	// PageShift is log2(PageSize).
	PageShift = 12
	// LinesPerPage is the number of cache lines in one page.
	LinesPerPage = PageSize / LineSize
)

// Addr is a virtual byte address.
type Addr uint64

// Line is a cache-line address: a byte address with the low LineShift bits
// dropped. Traces and the LRU stack operate on Lines, never on byte
// addresses, because the L2 tracks whole lines.
type Line uint64

// Page is a virtual page number.
type Page uint64

// PhysPage is a physical page number.
type PhysPage uint64

// LineOf returns the cache line containing a.
func LineOf(a Addr) Line { return Line(a >> LineShift) }

// AddrOfLine returns the first byte address of line l.
func AddrOfLine(l Line) Addr { return Addr(l << LineShift) }

// PageOfLine returns the virtual page containing line l.
func PageOfLine(l Line) Page { return Page(l >> (PageShift - LineShift)) }

// LineInPage returns l's index within its page, in [0, LinesPerPage).
func LineInPage(l Line) int { return int(l & (LinesPerPage - 1)) }

// Kind classifies a memory reference.
type Kind uint8

const (
	// Load is a data load.
	Load Kind = iota
	// Store is a data store.
	Store
	// IFetch is an instruction fetch (modeled coarsely; the paper ignores
	// L1-I misses in the trace, and so do we, but the platform can account
	// for them).
	IFetch
)

// String returns the reference kind name.
func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case IFetch:
		return "ifetch"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Ref is one memory reference emitted by a workload generator.
type Ref struct {
	// Addr is the virtual byte address accessed.
	Addr Addr
	// Kind says whether this is a load or a store.
	Kind Kind
	// Gap is the number of non-memory instructions completed since the
	// previous memory reference. The paper notes roughly one in three
	// instructions is a load or store, so typical gaps are ~2.
	Gap uint32
}

// Generator produces a deterministic reference stream. Implementations live
// in internal/workload. Generators are not safe for concurrent use.
type Generator interface {
	// Next returns the next reference in the stream.
	Next() Ref
	// Name identifies the workload (e.g. "mcf").
	Name() string
	// Reset restarts the stream from the beginning with the given seed.
	Reset(seed int64)
}

// BatchGenerator is the bulk extension of Generator: NextBatch fills buf
// with the next references of the stream and returns how many it wrote.
// The refs are exactly those len(buf) consecutive Next calls would return
// — a batch is a transport optimization, never a different stream. A
// short return (n < len(buf)) is allowed only when the stream ends; the
// bundled synthetic workloads are infinite and always fill the buffer.
type BatchGenerator interface {
	Generator
	NextBatch(buf []Ref) int
}

// ReadBatch fills buf from g, using the bulk path when g implements
// BatchGenerator and falling back to per-ref Next calls for legacy
// generators. It returns the number of refs written (len(buf) unless the
// stream ends).
func ReadBatch(g Generator, buf []Ref) int {
	if bg, ok := g.(BatchGenerator); ok {
		return bg.NextBatch(buf)
	}
	for i := range buf {
		buf[i] = g.Next()
	}
	return len(buf)
}
