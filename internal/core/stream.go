package core

import "rapidmrc/internal/mem"

// StreamCorrector is the streaming form of CorrectPrefetchRepetitions: it
// rewrites stale-SDAR repetition runs into ascending cache lines one entry
// at a time, with O(1) state and no lookahead, so corrected lines can flow
// straight into a streaming engine as the PMU records them.
//
// It reproduces the batch rewrite exactly, including its edge behaviour:
// the entry that breaks a run is emitted verbatim and becomes the
// comparison base for its successor, but is never compared against the
// (rewritten) run tail it follows — so a raw value that happens to equal
// the last synthesized line does not seed a spurious run.
//
// The zero value is ready to use.
type StreamCorrector struct {
	havePrev  bool
	prev      mem.Line // last raw value eligible to seed a run
	inRun     bool
	base      mem.Line // first (genuine) sample of the current run
	k         mem.Line // next ascending offset to synthesize
	converted int
}

// Feed consumes one raw logged line and returns the corrected line to push
// onto the LRU stack.
func (c *StreamCorrector) Feed(line mem.Line) mem.Line {
	if !c.havePrev {
		c.havePrev = true
		c.prev = line
		return line
	}
	if c.inRun {
		if line == c.base {
			out := c.base + c.k
			c.k++
			c.converted++
			return out
		}
		// Run broken: emit verbatim; this entry seeds the next comparison.
		c.inRun = false
		c.prev = line
		return line
	}
	if line == c.prev {
		// A repetition starts a run: the first entry (prev) was the
		// genuine sample, this one becomes base+1.
		c.inRun = true
		c.base = line
		c.k = 2
		c.converted++
		return line + 1
	}
	c.prev = line
	return line
}

// Converted returns the number of entries rewritten so far (Table 2
// column e reports this as a percentage of the log).
func (c *StreamCorrector) Converted() int { return c.converted }
