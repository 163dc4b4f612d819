// Package prefetch models the POWER5 hardware stream prefetcher: up to
// eight concurrent ascending streams, detected from demand L2 accesses,
// ramped up gradually, and confined to physical page boundaries.
//
// Two of its effects matter to RapidMRC and both are reproduced here:
//
//  1. Prefetched lines reduce the *real* L2 miss rate, vertically shifting
//     the real MRC downward (Figure 5e).
//  2. Prefetch bursts leave the SDAR stale, so the captured trace contains
//     runs of repeated addresses that RapidMRC must rewrite into ascending
//     lines (§3.1.1, Table 2 column e). The PMU model asks this package
//     whether a burst just fired.
package prefetch

import "rapidmrc/internal/mem"

const (
	// Streams is the number of concurrent hardware streams the engine
	// tracks (POWER5 supports eight per core).
	Streams = 8
	// MaxDepth is the steady-state prefetch run-ahead distance, in lines.
	MaxDepth = 4
	// candidates is the size of the table of recent miss lines used to
	// detect new streams.
	candidates = 16
)

type stream struct {
	next      mem.Line // next demand line expected on this stream
	nextIssue mem.Line // first line not yet prefetched
	depth     int      // current run-ahead distance (ramps to MaxDepth)
	lastUse   uint64   // for LRU replacement of streams
	valid     bool
}

// noStream is the nexts-mirror sentinel for an invalid stream. No demand
// access can carry this line (it would be an address beyond 2^70).
const noStream = ^mem.Line(0)

// Prefetcher detects ascending line streams from the demand access
// sequence. It is not safe for concurrent use.
type Prefetcher struct {
	enabled bool
	// nexts mirrors streams[i].next (noStream when invalid) in one densely
	// packed array, so the per-access stream-match scan reads a single
	// cache line instead of walking the stream structs.
	nexts   [Streams]mem.Line
	streams [Streams]stream
	recent  [candidates]mem.Line
	rpos    int
	clock   uint64
	buf     []mem.Line
}

// New returns a prefetcher. A disabled prefetcher observes everything and
// issues nothing, so callers need no mode checks.
func New(enabled bool) *Prefetcher {
	p := &Prefetcher{enabled: enabled, buf: make([]mem.Line, 0, MaxDepth)}
	for i := range p.nexts {
		p.nexts[i] = noStream
	}
	return p
}

// pageEnd returns the last line of the physical page containing l;
// hardware streams cannot run past it (real addresses are only known
// within the page).
func pageEnd(l mem.Line) mem.Line {
	return l | (mem.LinesPerPage - 1)
}

// Observe is called with the (physical) line of each demand L2 access —
// hit or miss, since hits on previously prefetched lines are what keep a
// stream running ahead. It returns the lines to prefetch, in ascending
// order; the slice is valid until the next call.
//
//rapidmrc:hotpath
func (p *Prefetcher) Observe(line mem.Line) []mem.Line {
	if !p.enabled {
		return nil
	}
	p.clock++

	// Does the access advance an existing stream?
	for i := range p.nexts {
		if line != p.nexts[i] {
			continue
		}
		s := &p.streams[i]
		s.lastUse = p.clock
		if s.depth < MaxDepth {
			s.depth++
		}
		s.next = line + 1
		p.nexts[i] = line + 1
		if line == pageEnd(line) {
			// The stream has consumed its page; the physically next page
			// is unrelated, so the stream dies here.
			s.valid = false
			p.nexts[i] = noStream
			return nil
		}
		return p.issue(s, line)
	}

	// Does it confirm a candidate (previous demand access at line-1, in
	// the same page)?
	if line > 0 && mem.PageOfLine(line-1) == mem.PageOfLine(line) {
		for i := range p.recent {
			if p.recent[i] == line-1 {
				p.recent[i] = 0
				s := p.allocStream(line)
				return p.issue(s, line)
			}
		}
	}

	// Remember it as a candidate for stream detection.
	p.recent[p.rpos] = line
	p.rpos = (p.rpos + 1) % candidates
	return nil
}

// issue emits the not-yet-prefetched lines up to the stream's run-ahead
// horizon, clipped at the page boundary.
func (p *Prefetcher) issue(s *stream, line mem.Line) []mem.Line {
	start := line + 1
	if s.nextIssue > start {
		start = s.nextIssue
	}
	end := line + mem.Line(s.depth)
	if pe := pageEnd(line); end > pe {
		end = pe
	}
	if start > end {
		return nil
	}
	p.buf = p.buf[:0]
	for l := start; l <= end; l++ {
		p.buf = append(p.buf, l)
	}
	s.nextIssue = end + 1
	return p.buf
}

// allocStream installs a stream that has just seen a demand access at
// line, replacing the least-recently used slot.
func (p *Prefetcher) allocStream(line mem.Line) *stream {
	victim := 0
	for i := range p.streams {
		if !p.streams[i].valid {
			victim = i
			break
		}
		if p.streams[i].lastUse < p.streams[victim].lastUse {
			victim = i
		}
	}
	p.streams[victim] = stream{
		next:      line + 1,
		nextIssue: line + 1,
		depth:     1,
		lastUse:   p.clock,
		valid:     true,
	}
	p.nexts[victim] = line + 1
	return &p.streams[victim]
}
