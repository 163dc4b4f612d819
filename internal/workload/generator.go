package workload

import (
	"fmt"
	"math"
	"math/rand"

	"rapidmrc/internal/mem"
)

// Scale relates simulated instruction counts to the paper's: one simulated
// instruction stands for Scale real instructions. The paper's phase
// lengths and slice positions (billions of instructions) are divided by
// Scale everywhere in the experiment drivers.
const Scale = 1000

// Component is one weighted pattern in a phase's mix.
type Component struct {
	// Weight is the fraction of memory references served by this
	// component. Weights in a mix must sum to (near) 1.
	Weight float64
	// Kind selects the pattern primitive.
	Kind Kind
	// Lines is the pattern's working-set size in cache lines.
	Lines int
}

// Phase is one stretch of stationary behaviour.
type Phase struct {
	// Instructions is the phase length (simulated instructions). The
	// schedule cycles: after the last phase the first begins again. A
	// single phase of any length means stationary behaviour forever.
	Instructions uint64
	// Mix is the weighted pattern set active during the phase.
	Mix []Component
}

// Config describes one synthetic application.
type Config struct {
	// Name identifies the application ("mcf", "libquantum", ...).
	Name string
	// MemFrac is the fraction of instructions that reference memory
	// (the paper assumes roughly one in three).
	MemFrac float64
	// StoreFrac is the fraction of memory references that are stores.
	// Stores are write-through to the L2 and invisible to the SDAR when
	// they hit the L1, so store-heavy applications develop positive
	// v-offsets.
	StoreFrac float64
	// Phases is the cyclic phase schedule.
	Phases []Phase
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("workload: empty name")
	}
	// Each range check is written so that NaN, which fails every
	// comparison, fails it too.
	if !(0 < c.MemFrac && c.MemFrac <= 1) {
		return fmt.Errorf("workload %s: MemFrac %v out of (0,1]", c.Name, c.MemFrac)
	}
	if 2*(1/c.MemFrac-1)+0.5 >= math.MaxInt32 {
		return fmt.Errorf("workload %s: MemFrac %v puts the gap bound past 2^31-1 instructions", c.Name, c.MemFrac)
	}
	if !(0 <= c.StoreFrac && c.StoreFrac <= 1) {
		return fmt.Errorf("workload %s: StoreFrac %v out of [0,1]", c.Name, c.StoreFrac)
	}
	if len(c.Phases) == 0 {
		return fmt.Errorf("workload %s: no phases", c.Name)
	}
	for i, ph := range c.Phases {
		if ph.Instructions == 0 {
			return fmt.Errorf("workload %s: phase %d has zero length", c.Name, i)
		}
		if len(ph.Mix) == 0 {
			return fmt.Errorf("workload %s: phase %d has empty mix", c.Name, i)
		}
		total := 0.0
		for j, comp := range ph.Mix {
			if !(comp.Weight > 0) {
				return fmt.Errorf("workload %s: phase %d component %d has weight %v", c.Name, i, j, comp.Weight)
			}
			// Stream components may leave Lines zero, meaning the
			// default huge region.
			if comp.Lines <= 0 && comp.Kind != Stream {
				return fmt.Errorf("workload %s: phase %d component %d has %d lines", c.Name, i, j, comp.Lines)
			}
			if comp.Lines < 0 {
				return fmt.Errorf("workload %s: phase %d component %d has negative lines", c.Name, i, j)
			}
			if comp.Lines > math.MaxInt32 {
				return fmt.Errorf("workload %s: phase %d component %d has %d lines, more than 2^31-1", c.Name, i, j, comp.Lines)
			}
			total += comp.Weight
		}
		if !(0.999 <= total && total <= 1.001) {
			return fmt.Errorf("workload %s: phase %d weights sum to %v, want 1", c.Name, i, total)
		}
	}
	return nil
}

// phaseState is an instantiated phase: its patterns plus cumulative
// weights for selection.
type phaseState struct {
	length   uint64
	patterns []pattern
	cumul    []float64
}

// Gen is a deterministic reference generator implementing mem.Generator.
type Gen struct {
	cfg    Config
	seed   int64
	rng    *rand.Rand
	phases []phaseState
	cycle  uint64 // total schedule length

	instr   uint64 // instructions completed (including pending gap)
	gapMax  int
	gapDraw intn // the gap draw, uniform on [0, gapMax]
	current int  // current phase index

	// Incremental phase tracking: cyclePos is instr modulo cycle, and
	// [phaseStart, phaseEnd) is the cyclePos range of the current phase.
	// Keeping these up to date as instr advances turns the per-reference
	// phase lookup from a scan over the schedule into an amortized O(1)
	// update (phaseFor remains as the checked reference implementation).
	cyclePos   uint64
	phaseStart uint64
	phaseEnd   uint64
}

// New instantiates cfg with the given seed. It panics on an invalid
// config: configurations are static data in this repository, so errors are
// programming mistakes.
func New(cfg Config, seed int64) *Gen {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	g := &Gen{cfg: cfg, seed: seed}
	g.Reset(seed)
	return g
}

// Name implements mem.Generator.
func (g *Gen) Name() string { return g.cfg.Name }

// Reset implements mem.Generator: it rebuilds all pattern state from seed.
func (g *Gen) Reset(seed int64) {
	g.seed = seed
	g.rng = rand.New(rand.NewSource(seed))
	g.instr = 0
	g.current = 0
	g.cycle = 0
	g.phases = g.phases[:0]

	// Lay out each component in its own virtual region, page-aligned with
	// a guard gap so no two patterns share a line or a page.
	const guardLines = 16 * mem.LinesPerPage
	base := mem.Line(mem.LinesPerPage) // skip page 0
	for _, ph := range g.cfg.Phases {
		st := phaseState{length: ph.Instructions}
		sum := 0.0
		for _, comp := range ph.Mix {
			st.patterns = append(st.patterns, build(comp.Kind, base, comp.Lines, g.rng))
			region := regionLines(comp.Kind, comp.Lines)
			// Round the region up to whole pages and add the guard.
			pages := (region + mem.LinesPerPage - 1) / mem.LinesPerPage
			base += mem.Line(pages*mem.LinesPerPage + guardLines)
			sum += comp.Weight
			st.cumul = append(st.cumul, sum)
		}
		g.cycle += ph.Instructions
		g.phases = append(g.phases, st)
	}

	// Mean gap between memory references: 1/MemFrac - 1 non-memory
	// instructions. Gaps are uniform on [0, 2*mean] so the mean holds.
	mean := 1/g.cfg.MemFrac - 1
	g.gapMax = int(2*mean + 0.5)
	if g.gapMax > 0 {
		g.gapDraw = newIntn(g.gapMax + 1)
	}

	g.cyclePos = 0
	g.phaseStart = 0
	g.phaseEnd = g.phases[0].length
}

// advance moves the instruction counter by d and updates the incremental
// phase-tracking state to the phase active at the new position.
func (g *Gen) advance(d uint64) {
	g.instr += d
	g.cyclePos += d
	if g.cyclePos >= g.cycle {
		g.cyclePos %= g.cycle
		g.current = 0
		g.phaseStart = 0
		g.phaseEnd = g.phases[0].length
	}
	for g.cyclePos >= g.phaseEnd {
		g.current++
		g.phaseStart = g.phaseEnd
		g.phaseEnd += g.phases[g.current].length
	}
}

// phaseFor returns the phase index active at instruction count n by
// scanning the schedule. The hot path tracks the phase incrementally in
// advance; this scan is the reference implementation the property tests
// check the incremental state against.
func (g *Gen) phaseFor(n uint64) int {
	pos := n % g.cycle
	for i := range g.phases {
		if pos < g.phases[i].length {
			return i
		}
		pos -= g.phases[i].length
	}
	return len(g.phases) - 1 // unreachable: lengths sum to cycle
}

// Next implements mem.Generator.
func (g *Gen) Next() mem.Ref {
	gap := uint32(0)
	if g.gapMax > 0 {
		gap = uint32(g.gapDraw.draw(g.rng))
	}
	g.advance(uint64(gap) + 1)
	ph := &g.phases[g.current]

	// Weighted component pick.
	x := g.rng.Float64() * ph.cumul[len(ph.cumul)-1]
	idx := 0
	for idx < len(ph.cumul)-1 && x >= ph.cumul[idx] {
		idx++
	}
	line := ph.patterns[idx].next(g.rng)

	kind := mem.Load
	if g.rng.Float64() < g.cfg.StoreFrac {
		kind = mem.Store
	}
	return mem.Ref{Addr: mem.AddrOfLine(line), Kind: kind, Gap: gap}
}

// NextBatch implements mem.BatchGenerator: it fills buf with the next
// len(buf) references of the stream — the exact refs that many Next calls
// would return, produced without the per-reference interface dispatch.
func (g *Gen) NextBatch(buf []mem.Ref) int {
	for i := range buf {
		buf[i] = g.Next()
	}
	return len(buf)
}

var _ mem.BatchGenerator = (*Gen)(nil)
