package cache

import "rapidmrc/internal/mem"

// Replay feeds a line-address trace through a fresh cache built from cfg
// and returns the resulting statistics. This is the Dinero-IV-style
// experiment of §5.2.6 (Figure 5d): the same trace is replayed at 10-way,
// 32-way, 64-way and full associativity to show that high associativity
// behaves like a fully associative cache.
//
// warmup entries are replayed but excluded from the returned statistics.
func Replay(cfg Config, trace []mem.Line, warmup int) Stats {
	c := New(cfg)
	if warmup > len(trace) {
		warmup = len(trace)
	}
	for _, l := range trace[:warmup] {
		c.Access(l, false)
	}
	c.ResetStats()
	for _, l := range trace[warmup:] {
		c.Access(l, false)
	}
	return c.Stats()
}
