// Package platform wires the simulated POWER5 together: cores, the cache
// hierarchy, page-coloring translation, hardware prefetchers and the PMU.
// It provides the three measurement procedures the paper's evaluation is
// built on: probing-period trace capture (§3.1), exhaustive offline real
// MRC measurement (§5.2.1), and multiprogrammed co-runs on the shared L2
// (§5.3).
package platform

import (
	"fmt"
	"strings"

	"rapidmrc/internal/cache"
)

// Spec describes the machine of Table 1.
type Spec struct {
	CoresPerChip int
	FrequencyGHz float64
	L1I          cache.Config
	L1D          cache.Config
	L2           cache.Config
	L3           cache.Config
	RAMBytes     int64
}

// Power5 returns the Table 1 configuration of the evaluation machine.
//
// The real L3 uses 256-byte lines; the model keeps 128-byte lines at the
// same total capacity so victim lines keep their identity across levels —
// a pure bookkeeping simplification that leaves hit/miss behaviour of the
// L2 (the level MRCs are computed for) untouched.
func Power5() Spec {
	return Spec{
		CoresPerChip: 2,
		FrequencyGHz: 1.5,
		L1I:          cache.Config{Name: "L1I", SizeBytes: 64 * 1024, LineSize: 128, Ways: 2},
		L1D:          cache.Config{Name: "L1D", SizeBytes: 32 * 1024, LineSize: 128, Ways: 4},
		L2:           cache.Config{Name: "L2", SizeBytes: 1920 * 1024, LineSize: 128, Ways: 10},
		L3:           cache.Config{Name: "L3", SizeBytes: 36 * 1024 * 1024, LineSize: 128, Ways: 12},
		RAMBytes:     8 << 30,
	}
}

// Table renders the spec as the rows of Table 1.
func (s Spec) Table() string {
	var b strings.Builder
	row := func(item, val string) { fmt.Fprintf(&b, "%-24s %s\n", item, val) }
	row("# of Cores per Chip", fmt.Sprintf("%d", s.CoresPerChip))
	row("Frequency", fmt.Sprintf("%.1f GHz", s.FrequencyGHz))
	cacheRow := func(c cache.Config, shared string) string {
		size := ""
		switch {
		case c.SizeBytes >= 1<<20 && c.SizeBytes%(1<<20) == 0:
			size = fmt.Sprintf("%d MB", c.SizeBytes>>20)
		case c.SizeBytes >= 1<<20:
			size = fmt.Sprintf("%.3f MB", float64(c.SizeBytes)/(1<<20))
		default:
			size = fmt.Sprintf("%d KB", c.SizeBytes>>10)
		}
		return fmt.Sprintf("%s, %d-byte lines, %d-way associative%s", size, c.LineSize, c.Ways, shared)
	}
	row("L1 ICache (Private)", cacheRow(s.L1I, ""))
	row("L1 DCache (Private)", cacheRow(s.L1D, ""))
	row("L2 Cache (Shared)", cacheRow(s.L2, ""))
	row("L3 Victim Cache", cacheRow(s.L3, ""))
	row("RAM", fmt.Sprintf("%d GB", s.RAMBytes>>30))
	return b.String()
}
