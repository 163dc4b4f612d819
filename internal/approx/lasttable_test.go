package approx

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"rapidmrc/internal/color"
	"rapidmrc/internal/core"
	"rapidmrc/internal/cpu"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/platform"
	"rapidmrc/internal/pmu"
	"rapidmrc/internal/workload"
)

// mapSampler is the Sampler as it was before the open-addressed
// lastTable: the same warmup policy and bucketing over a Go map. It is
// the oracle the table-backed Sampler must match field for field.
type mapSampler struct {
	cfg         core.Config
	staticLimit int
	fixed       bool

	last map[mem.Line]int

	fine       []uint64
	coarse     []uint64
	over, cold uint64

	consumed int
	recorded int
	warm     int
	warming  bool
	auto     bool
}

func newMapSampler(cfg core.Config, target int) *mapSampler {
	s := &mapSampler{
		cfg:    cfg,
		last:   make(map[mem.Line]int),
		fine:   make([]uint64, fineSpan*cfg.StackLines),
		coarse: make([]uint64, coarseBuckets),
		fixed:  cfg.FixedWarmupEntries >= 0,
	}
	s.reset(target)
	return s
}

func (s *mapSampler) reset(target int) {
	s.staticLimit = int(float64(target) * s.cfg.StaticWarmupFrac)
	if s.fixed {
		s.staticLimit = s.cfg.FixedWarmupEntries
		if s.staticLimit >= target {
			s.staticLimit = target - 1
		}
	}
	clear(s.last)
	clear(s.fine)
	clear(s.coarse)
	s.over, s.cold = 0, 0
	s.consumed, s.recorded, s.warm = 0, 0, 0
	s.warming = true
	s.auto = false
}

func (s *mapSampler) feed(line mem.Line) {
	if s.warming {
		if (!s.fixed && len(s.last) >= s.cfg.StackLines) || s.warm >= s.staticLimit {
			s.warming = false
			s.auto = !s.fixed && len(s.last) >= s.cfg.StackLines
		} else {
			s.last[line] = s.consumed
			s.consumed++
			s.warm++
			return
		}
	}
	prev, seen := s.last[line]
	if !seen {
		s.cold++
	} else {
		t := s.consumed - prev
		switch {
		case t <= len(s.fine):
			s.fine[t-1]++
		case t <= len(s.fine)+coarseBuckets*coarseWidth:
			s.coarse[(t-len(s.fine)-1)/coarseWidth]++
		default:
			s.over++
		}
	}
	s.last[line] = s.consumed
	s.consumed++
	s.recorded++
}

func (s *mapSampler) profile() *Profile {
	return &Profile{
		cfg:      s.cfg,
		fine:     append([]uint64(nil), s.fine...),
		coarse:   append([]uint64(nil), s.coarse...),
		over:     s.over,
		cold:     s.cold,
		recorded: s.recorded,
		consumed: s.consumed,
	}
}

// scriptOp is one step of a sampler script: feed a line, or (reset)
// close the period and start a new one of the given target.
type scriptOp struct {
	reset  bool
	target int
	line   mem.Line
}

// samplerScript drives a sampler through one or more probing periods
// under one of the three warmup policies.
type samplerScript struct {
	cfg    core.Config
	target int
	ops    []scriptOp
}

// collidingKeys are lines that all hash to slot 0 of a fresh table, so
// feeding them builds one long probe run (later doublings split it).
var collidingKeys = sync.OnceValue(func() []mem.Line {
	t := lastTable{mask: minLastSlots - 1}
	var keys []mem.Line
	for k := mem.Line(1); len(keys) < 24; k++ {
		if t.slot(k) == 0 {
			keys = append(keys, k)
		}
	}
	return keys
})

// scriptConfig picks the warmup policy: automatic (the distinct-line
// count fills the small stack), static fraction, or a fixed count.
func scriptConfig(policy, fixed int) core.Config {
	cfg := testConfig()
	switch policy % 3 {
	case 1:
		cfg.StackLines = 4096 // never fills: the static fraction ends warmup
		cfg.Points, cfg.LinesPerPoint = 8, 512
	case 2:
		cfg.FixedWarmupEntries = fixed
	}
	return cfg
}

// scriptLine draws a key from one of the classes the table must get
// right: the extreme keys, a forced probe run, a small working set that
// reuses, and wide random keys that force doublings.
func scriptLine(class int, r uint64) mem.Line {
	switch class % 6 {
	case 0:
		return 0
	case 1:
		return ^mem.Line(0)
	case 2:
		ks := collidingKeys()
		return ks[r%uint64(len(ks))]
	case 3:
		return mem.Line(r)
	default:
		return mem.Line(r % 300)
	}
}

// Generate implements quick.Generator.
func (samplerScript) Generate(rng *rand.Rand, size int) reflect.Value {
	sc := samplerScript{
		cfg:    scriptConfig(rng.Intn(3), rng.Intn(400)),
		target: 1 + rng.Intn(3000),
	}
	n := rng.Intn(40 * (size + 1))
	for i := 0; i < n; i++ {
		if rng.Intn(600) == 0 {
			sc.ops = append(sc.ops, scriptOp{reset: true, target: 1 + rng.Intn(3000)})
			continue
		}
		sc.ops = append(sc.ops, scriptOp{line: scriptLine(rng.Intn(6), rng.Uint64())})
	}
	return reflect.ValueOf(sc)
}

// decodeScript turns fuzz bytes into a script: the first two bytes pick
// the warmup policy and target, then each byte is an op (a key class,
// or a reset) and, for key classes that need one, the next byte is the
// key payload.
func decodeScript(data []byte) samplerScript {
	var head [2]byte
	copy(head[:], data)
	data = data[min(len(data), 2):]
	sc := samplerScript{cfg: scriptConfig(int(head[0]), int(head[1])), target: 1 + 12*int(head[1])}
	for len(data) > 0 {
		b := data[0]
		data = data[1:]
		if b == 0xff {
			sc.ops = append(sc.ops, scriptOp{reset: true, target: 1 + 7*len(data)})
			continue
		}
		var r uint64
		if len(data) > 0 {
			r = uint64(data[0]) | uint64(b)<<8
			data = data[1:]
		}
		if b%6 == 3 {
			r *= 0x9E3779B97F4A7C15 // spread wide keys over the key space
		}
		sc.ops = append(sc.ops, scriptOp{line: scriptLine(int(b), r)})
	}
	return sc
}

// period is one script period's outcome: its profile and warmup, taken
// just before the Reset that ends it.
type period struct {
	p      *Profile
	warmup int
	auto   bool
}

// runScript runs sc on the table-backed Sampler and returns every
// period's outcome.
func runScript(sc samplerScript) []period {
	s, err := NewSampler(sc.cfg, sc.target)
	if err != nil {
		panic(err)
	}
	var out []period
	for _, op := range sc.ops {
		if op.reset {
			out = append(out, period{s.Profile(), s.WarmupEntries(), s.AutoWarmup()})
			if err := s.Reset(op.target); err != nil {
				panic(err)
			}
			continue
		}
		s.Feed(op.line)
	}
	return append(out, period{s.Profile(), s.WarmupEntries(), s.AutoWarmup()})
}

// runScriptOracle is runScript on the map oracle.
func runScriptOracle(sc samplerScript) []period {
	s := newMapSampler(sc.cfg, sc.target)
	var out []period
	for _, op := range sc.ops {
		if op.reset {
			out = append(out, period{s.profile(), s.warm, s.auto})
			s.reset(op.target)
			continue
		}
		s.feed(op.line)
	}
	return append(out, period{s.profile(), s.warm, s.auto})
}

// TestSamplerMatchesMapOracle pins the open-addressed table against the
// map it replaced: every profile field — fine, coarse, over, cold,
// recorded and consumed — and the warmup outcome, over random scripts
// mixing the extreme keys 0 and ^0, a forced probe run, several
// doublings, resets with reuse, and all three warmup policies.
func TestSamplerMatchesMapOracle(t *testing.T) {
	if err := quick.CheckEqual(runScript, runScriptOracle, &quick.Config{
		MaxCount: 300, Rand: rand.New(rand.NewSource(1)),
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSamplerScriptCoverage checks that the script generator reaches
// what the oracle property claims to cover, so the property cannot pass
// vacuously.
func TestSamplerScriptCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var zero, maxKey, resets, doublings, probeRun int
	policies := map[string]int{}
	for i := 0; i < 300; i++ {
		sc := samplerScript{}.Generate(rng, 50).Interface().(samplerScript)
		s, err := NewSampler(sc.cfg, sc.target)
		if err != nil {
			t.Fatal(err)
		}
		run := 0
		for _, op := range sc.ops {
			switch {
			case op.reset:
				resets++
				continue
			case op.line == 0:
				zero++
			case op.line == ^mem.Line(0):
				maxKey++
			}
			before := len(s.last.slots)
			s.Feed(op.line)
			if len(s.last.slots) > before {
				doublings++
			}
			if len(s.last.slots) == minLastSlots {
				run = max(run, probeLen(&s.last, 0))
			}
		}
		probeRun = max(probeRun, run)
		switch {
		case sc.cfg.FixedWarmupEntries >= 0:
			policies["fixed"]++
		case s.AutoWarmup():
			policies["auto"]++
		case !s.Warming():
			policies["static"]++
		}
	}
	if zero == 0 || maxKey == 0 || resets == 0 || doublings < 600 || probeRun < 4 ||
		policies["auto"] == 0 || policies["static"] == 0 || policies["fixed"] == 0 {
		t.Fatalf("coverage: zero=%d max=%d resets=%d doublings=%d probeRun=%d policies=%v",
			zero, maxKey, resets, doublings, probeRun, policies)
	}
}

// probeLen is the length of the occupied run starting at slot i.
func probeLen(t *lastTable, i uint64) int {
	n := 0
	for ; n < len(t.slots) && t.slots[(i+uint64(n))&t.mask].pos1 != 0; n++ {
	}
	return n
}

// FuzzSamplerTable is TestSamplerMatchesMapOracle under coverage-guided
// inputs.
func FuzzSamplerTable(f *testing.F) {
	f.Add([]byte{0, 10, 0, 1, 1, 2, 2, 3, 0, 4, 5})
	f.Add([]byte{1, 200, 2, 0, 2, 1, 2, 2, 2, 3, 2, 4, 0xff, 2, 5})
	f.Add([]byte{2, 3, 3, 9, 3, 8, 3, 7, 3, 6, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeScript(data)
		if got, want := runScript(sc), runScriptOracle(sc); !reflect.DeepEqual(got, want) {
			t.Fatalf("table sampler diverges from the map oracle on %d ops", len(sc.ops))
		}
	})
}

// mrcdApps are the applications the daemon benchmark feeds.
var mrcdApps = []string{"mcf", "gzip", "swim", "art", "jbb", "apsi", "povray", "libquantum"}

// mrcdTraces captures and corrects one default-length probing period of
// every mrcdApps application on the full POWER5 model — the trace shape
// the daemon's tenants feed — once per test binary.
var mrcdTraces = sync.OnceValues(func() (map[string][]mem.Line, error) {
	out := make(map[string][]mem.Line, len(mrcdApps))
	for _, app := range mrcdApps {
		cfg, err := workload.ByName(app)
		if err != nil {
			return nil, err
		}
		m := platform.NewMachine(workload.New(cfg, 1), platform.Options{
			Mode: cpu.Complex, Colors: color.All, L3Enabled: true, Seed: 1,
		})
		m.RunInstructions(500_000)
		lines := make([]mem.Line, 0, 160_000)
		m.CollectTrace(160_000, pmu.SinkFunc(func(l mem.Line) { lines = append(lines, l) }))
		core.CorrectPrefetchRepetitions(lines)
		out[app] = lines
	}
	return out, nil
})

// TestSamplerMatchesMapOracleMrcdTraces pins the table against the map
// on the daemon's eight corrected traces at the default geometry.
func TestSamplerMatchesMapOracleMrcdTraces(t *testing.T) {
	traces, err := mrcdTraces()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range mrcdApps {
		trace := traces[app]
		s, err := NewSampler(core.DefaultConfig(), len(trace))
		if err != nil {
			t.Fatal(err)
		}
		o := newMapSampler(core.DefaultConfig(), len(trace))
		for _, l := range trace {
			s.Feed(l)
			o.feed(l)
		}
		if got, want := s.Profile(), o.profile(); !reflect.DeepEqual(got, want) ||
			s.WarmupEntries() != o.warm || s.AutoWarmup() != o.auto {
			t.Errorf("%s: profile diverges from the map oracle (recorded %d/%d, cold %d/%d, auto %v/%v)",
				app, got.recorded, want.recorded, got.cold, want.cold, s.AutoWarmup(), o.auto)
		}
	}
}

// TestSamplerFeedAllocs pins Feed allocation-free once the table holds
// the working set: a reset sampler keeps its grown table, so a second
// period over the same lines never doubles.
func TestSamplerFeedAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	trace := make([]mem.Line, 50_000)
	for i := range trace {
		trace[i] = mem.Line(rng.Intn(30_000))
	}
	s, err := NewSampler(core.DefaultConfig(), len(trace))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range trace {
		s.Feed(l)
	}
	if err := s.Reset(len(trace)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, l := range trace {
			s.Feed(l)
		}
	})
	if allocs != 0 {
		t.Fatalf("Feed allocates %v times per %d-reference pass, want 0", allocs, len(trace))
	}
}

// cloneEstimate deep-copies an estimate, so a later comparison detects
// any write through shared memory.
func cloneEstimate(e *Estimate) *Estimate {
	c := *e
	c.MRC = e.MRC.Clone()
	c.MissRatio = append([]float64(nil), e.MissRatio...)
	return &c
}

// TestAssessDoesNotAlias pins that estimating from the live histogram
// leaves no trace: a sampler assessed (and estimated over its live
// view) mid-stream ends at the profile of one that was only
// fed, every estimate equals the one computed from a deep-copied
// profile at the same point, and no estimate — nor a Profile taken
// mid-stream — changes as feeding continues.
func TestAssessDoesNotAlias(t *testing.T) {
	cfg := testConfig()
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		trace := randomTrace(rng, cfg)
		s, err := NewSampler(cfg, len(trace))
		if err != nil {
			t.Fatal(err)
		}
		fedOnly, err := NewSampler(cfg, len(trace))
		if err != nil {
			t.Fatal(err)
		}
		pol := NewPolicy(PolicyConfig{Threshold: DefaultThreshold})
		var kept, frozen []*Estimate
		var mid, midFrozen *Profile
		for i, l := range trace {
			s.Feed(l)
			fedOnly.Feed(l)
			if i == len(trace)/2 {
				mid = s.Profile()
				c := *mid
				c.fine = append([]uint64(nil), mid.fine...)
				c.coarse = append([]uint64(nil), mid.coarse...)
				midFrozen = &c
			}
			if i%97 != 0 || s.Warming() {
				continue
			}
			instr := uint64(4 * (i + 1))
			e, _, _ := Assess(pol, s, instr, false)
			if e == nil {
				t.Fatalf("trial %d ref %d: no estimate past warmup", trial, i)
			}
			want, err := CheFagin{}.Estimate(s.Profile(), instr)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(e, want) {
				t.Fatalf("trial %d ref %d: Assess estimate differs from the copied profile's", trial, i)
			}
			fa, err := (FullyAssociative{}).Estimate(s.view(), instr)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := (FullyAssociative{}).Estimate(s.Profile(), instr); !reflect.DeepEqual(fa, want) {
				t.Fatalf("trial %d ref %d: an estimate over the live view differs from the copied profile's", trial, i)
			}
			kept = append(kept, e, fa)
			frozen = append(frozen, cloneEstimate(e), cloneEstimate(fa))
		}
		if len(kept) == 0 {
			t.Fatalf("trial %d: never assessed", trial)
		}
		if got, want := s.Profile(), fedOnly.Profile(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: assessing perturbed the histogram", trial)
		}
		for i := range kept {
			if !reflect.DeepEqual(kept[i], frozen[i]) {
				t.Fatalf("trial %d: estimate %d changed as feeding continued", trial, i)
			}
		}
		if !reflect.DeepEqual(mid, midFrozen) {
			t.Fatalf("trial %d: a mid-stream Profile changed as feeding continued", trial)
		}
	}
}

// TestSamplerWarmupAccessors pins WarmupEntries and AutoWarmup to the
// map oracle's warmup outcome at the same point, and WarmupEntries to
// the references a Profile taken there counts as consumed but not
// recorded.
func TestSamplerWarmupAccessors(t *testing.T) {
	for policy := 0; policy < 3; policy++ {
		cfg := scriptConfig(policy, 100)
		s, err := NewSampler(cfg, 2000)
		if err != nil {
			t.Fatal(err)
		}
		o := newMapSampler(cfg, 2000)
		for i := 0; i < 2000; i++ {
			s.Feed(mem.Line(i % 500))
			o.feed(mem.Line(i % 500))
			if i%7 != 0 {
				continue
			}
			p := s.Profile()
			if s.WarmupEntries() != o.warm || s.AutoWarmup() != o.auto ||
				s.WarmupEntries() != p.consumed-p.recorded {
				t.Fatalf("policy %d ref %d: accessors %d/%v, oracle %d/%v, profile warmup %d", policy, i,
					s.WarmupEntries(), s.AutoWarmup(), o.warm, o.auto, p.consumed-p.recorded)
			}
		}
	}
}
