// Package cache implements set-associative caches with true-LRU
// replacement, plus a trace replayer used for the Dinero-style
// associativity study (Figure 5d of the paper).
//
// The model operates on cache-line addresses (mem.Line). A Cache knows
// nothing about levels; the platform package wires L1/L2/L3 hierarchies
// together and decides which accesses reach which level.
package cache

import (
	"errors"
	"math/bits"
	"math/rand"
	"strconv"

	"rapidmrc/internal/mem"
)

// Config describes one cache.
type Config struct {
	// Name labels the cache in stats output (e.g. "L1D", "L2").
	Name string
	// SizeBytes is the total capacity in bytes.
	SizeBytes int64
	// LineSize is the line size in bytes; must be a power of two.
	LineSize int
	// Ways is the associativity. Zero means fully associative.
	Ways int
	// Policy is the replacement policy (default LRU). Non-LRU policies
	// require bounded associativity (Ways in 1..wideSetThreshold).
	Policy Policy
	// Seed drives the Random policy's victim choice.
	Seed int64
}

// Validate reports whether the configuration is internally consistent.
// Every rejection here guards an indexing assumption: a non-power-of-two
// LineSize would shear line addresses across set boundaries, a size that
// is not a whole number of lines (or lines not divisible into ways) would
// leave a fractional set, and a negative way count has no victim order.
// Set counts that are not powers of two are legal — the POWER5 L2 itself
// has 1536 sets — but they take the precomputed-modulus index path instead
// of the shift/mask one (see setIndex), so nothing silently mis-indexes.
func (c Config) Validate() error {
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return errors.New("cache " + c.Name + ": line size " + strconv.Itoa(c.LineSize) +
			" is not a positive power of two (set indexing shifts by log2(line size))")
	}
	if c.SizeBytes <= 0 || c.SizeBytes%int64(c.LineSize) != 0 {
		return errors.New("cache " + c.Name + ": size " + strconv.FormatInt(c.SizeBytes, 10) +
			" is not a positive multiple of line size " + strconv.Itoa(c.LineSize))
	}
	if c.Ways < 0 {
		return errors.New("cache " + c.Name + ": negative associativity " + strconv.Itoa(c.Ways))
	}
	lines := c.SizeBytes / int64(c.LineSize)
	ways := int64(c.Ways)
	if c.Ways == 0 {
		ways = lines
	}
	if lines%ways != 0 {
		return errors.New("cache " + c.Name + ": " + strconv.FormatInt(lines, 10) +
			" lines not divisible by " + strconv.FormatInt(ways, 10) +
			" ways (would leave a fractional set)")
	}
	if c.Policy != LRU && (c.Ways <= 0 || c.Ways > wideSetThreshold) {
		return errors.New("cache " + c.Name + ": policy " + c.Policy.String() +
			" requires 1.." + strconv.Itoa(wideSetThreshold) + " ways")
	}
	return nil
}

// Lines returns the total number of lines the cache holds.
func (c Config) Lines() int { return int(c.SizeBytes / int64(c.LineSize)) }

// Sets returns the number of sets.
func (c Config) Sets() int {
	if c.Ways == 0 {
		return 1
	}
	return c.Lines() / c.Ways
}

// Stats accumulates access counts for one cache.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Writebacks counts dirty evictions (only meaningful for write-back
	// caches; the platform marks lines dirty on store).
	Writebacks uint64
}

// MissRate returns misses/accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Result describes the outcome of one access.
type Result struct {
	Hit bool
	// Evicted reports whether a valid line was displaced to make room.
	Evicted bool
	// Victim is the displaced line when Evicted is true.
	Victim mem.Line
	// VictimDirty reports whether the displaced line was dirty.
	VictimDirty bool
}

// Cache is a set-associative cache with true-LRU replacement within each
// set. It is indexed by line address modulo the set count, which matches a
// physically indexed cache when fed physical line numbers.
//
// The common case — LRU replacement at ordinary associativity — stores all
// sets in one flat interleaved word array (see flatLRU), so an access is a
// direct (devirtualized) call into one contiguous run of memory and the
// whole structure costs two allocations. Wide (fully associative) and
// non-LRU sets go through the set interface instead.
//
// A Cache is not safe for concurrent use.
type Cache struct {
	cfg   Config
	lru   *flatLRU // fast path: narrow LRU sets (nil otherwise)
	sets  []set    // slow path: wide or non-LRU sets (nil otherwise)
	stats Stats

	// Set indexing is divide-free on every geometry: power-of-two set
	// counts mask with setMask, and every other count (the POWER5 L2's
	// 1536 sets, the L3's 24576) uses the precomputed Lemire modulus
	// setMagic. Both are bit-exact line % nsets.
	nsets    uint64
	setMask  uint64 // nsets-1 when setPow2
	setPow2  bool
	setMagic magic128
}

// New builds a cache from cfg. It panics if cfg is invalid; configurations
// are compile-time decisions in this codebase, so an invalid one is a
// programming error rather than a runtime condition.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Sets()
	ways := cfg.Ways
	if ways == 0 {
		ways = cfg.Lines()
	}
	c := &Cache{cfg: cfg, nsets: uint64(nsets)}
	if c.nsets&(c.nsets-1) == 0 {
		c.setPow2 = true
		c.setMask = c.nsets - 1
	} else {
		c.setMagic = newMagic128(c.nsets)
	}
	switch {
	case cfg.Policy == LRU && ways <= flatMaxWays:
		c.lru = newFlatLRU(nsets, ways)
	default:
		c.sets = make([]set, nsets)
		var rng *rand.Rand
		if cfg.Policy == Random {
			rng = rand.New(rand.NewSource(cfg.Seed ^ 0xcace))
		}
		for i := range c.sets {
			if cfg.Policy == LRU {
				c.sets[i] = newMapSet(ways)
			} else {
				c.sets[i] = newPolicySet(cfg.Policy, ways, rng)
			}
		}
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics without touching cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// magic128 is the 128-bit Lemire "fastmod" magic for a fixed divisor d:
// M = ⌈2^128 / d⌉. n % d is then the high 128→64 bits of (M·n mod 2^128)·d
// — three multiplies instead of a hardware divide, exact for all 64-bit n.
type magic128 struct {
	hi, lo uint64
}

// newMagic128 computes ⌈2^128 / d⌉ for d ≥ 2.
func newMagic128(d uint64) magic128 {
	// floor((2^128 - 1) / d) via 128/64 long division, then +1.
	qhi := ^uint64(0) / d
	rem := ^uint64(0) % d
	qlo, _ := bits.Div64(rem, ^uint64(0), d)
	lo := qlo + 1
	hi := qhi
	if lo == 0 {
		hi++
	}
	return magic128{hi: hi, lo: lo}
}

// mod returns n % d for the divisor the magic was built for.
//
//rapidmrc:hotpath
func (m magic128) mod(n, d uint64) uint64 {
	// lowbits = M * n mod 2^128
	lbHi, lbLo := bits.Mul64(m.lo, n)
	lbHi += m.hi * n
	// result = (lowbits * d) >> 128
	h1, _ := bits.Mul64(lbLo, d)
	tHi, tLo := bits.Mul64(lbHi, d)
	_, carry := bits.Add64(tLo, h1, 0)
	return tHi + carry
}

// setIndex maps a line to its set: shift/mask for power-of-two set counts,
// precomputed-modulus for the rest (the POWER5 L2 has 1536 sets). Both are
// exact line % nsets.
//
//rapidmrc:hotpath
func (c *Cache) setIndex(line mem.Line) int {
	if c.setPow2 {
		return int(uint64(line) & c.setMask)
	}
	return int(c.setMagic.mod(uint64(line), c.nsets))
}

// Access looks up line, allocating it on a miss (evicting the set's LRU
// line if the set is full). dirty marks the line dirty (store); on a hit it
// ORs into the existing dirty bit.
//
//rapidmrc:hotpath
func (c *Cache) Access(line mem.Line, dirty bool) Result {
	c.stats.Accesses++
	var res Result
	if c.lru != nil {
		res = c.lru.access(c.setIndex(line), line, dirty)
	} else {
		res = c.sets[c.setIndex(line)].access(line, dirty)
	}
	if res.Hit {
		c.stats.Hits++
	} else {
		c.stats.Misses++
		if res.Evicted {
			c.stats.Evictions++
			if res.VictimDirty {
				c.stats.Writebacks++
			}
		}
	}
	return res
}

// Probe reports whether line is present without disturbing LRU order or
// statistics.
//
//rapidmrc:hotpath
func (c *Cache) Probe(line mem.Line) bool {
	if c.lru != nil {
		return c.lru.probe(c.setIndex(line), line)
	}
	return c.sets[c.setIndex(line)].probe(line)
}

// Insert places line into the cache without counting an access, evicting
// the LRU line of its set if needed. It is used for prefetch fills and for
// victim-cache insertion. If the line is already present its LRU position
// is refreshed and no eviction happens.
//
//rapidmrc:hotpath
func (c *Cache) Insert(line mem.Line, dirty bool) Result {
	var res Result
	if c.lru != nil {
		res = c.lru.insert(c.setIndex(line), line, dirty)
		if res.Hit {
			return res
		}
	} else {
		s := c.sets[c.setIndex(line)]
		if s.touch(line) {
			return Result{Hit: true}
		}
		res = s.access(line, dirty)
	}
	if res.Evicted {
		c.stats.Evictions++
		if res.VictimDirty {
			c.stats.Writebacks++
		}
	}
	return res
}

// Invalidate removes line if present, returning whether it was present and
// whether it was dirty.
func (c *Cache) Invalidate(line mem.Line) (present, dirty bool) {
	if c.lru != nil {
		return c.lru.invalidate(c.setIndex(line), line)
	}
	return c.sets[c.setIndex(line)].invalidate(line)
}

// Flush empties the cache, leaving statistics intact.
func (c *Cache) Flush() {
	if c.lru != nil {
		c.lru.flush()
	}
	for _, s := range c.sets {
		s.flush()
	}
}

// Len returns the number of valid lines currently held.
func (c *Cache) Len() int {
	n := 0
	if c.lru != nil {
		n = c.lru.lenTotal()
	}
	for _, s := range c.sets {
		n += s.len()
	}
	return n
}

// set is the per-set replacement state behind the slow path: a map+list
// for very wide (fully associative) sets where a linear scan would be too
// slow, and the policy set for non-LRU replacement.
type set interface {
	access(line mem.Line, dirty bool) Result
	probe(line mem.Line) bool
	touch(line mem.Line) bool
	invalidate(line mem.Line) (present, dirty bool)
	flush()
	len() int
}

// wideSetThreshold is the associativity above which the map-based set is
// used. 56 (the flat fast path's meta-word limit) keeps the common
// 2/4/10/12-way cases on the fast linear path.
const wideSetThreshold = flatMaxWays
