package platform

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rapidmrc/internal/cpu"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/workload"
)

// sweepTestConfig shrinks the default RealMRC run so the equivalence
// sweeps stay fast while still crossing the skip/measure boundary.
func sweepTestConfig(seed int64) RealMRCConfig {
	cfg := DefaultRealMRCConfig()
	cfg.Seed = seed
	cfg.SkipInstructions = 120_000
	cfg.SliceInstructions = 80_000
	cfg.Workers = 1
	return cfg
}

// TestRealMRCSharedMatchesPerMachine is the tentpole equivalence property:
// the shared-stream fan-out (one generator pass, leader L1, all
// partition-size machines stepping the same chunks) must reproduce the
// legacy one-simulation-per-size curves element for element — not within a
// tolerance, bit-identical.
func TestRealMRCSharedMatchesPerMachine(t *testing.T) {
	apps := []string{"mcf", "swim", "libquantum", "twolf"}
	seeds := []int64{1, 7}
	if testing.Short() {
		apps = apps[:2]
		seeds = seeds[:1]
	}
	for _, name := range apps {
		for _, seed := range seeds {
			cfg := sweepTestConfig(seed)
			app := workload.MustByName(name)

			cfg.PerMachine = true
			want := RealMRC(app, cfg)
			cfg.PerMachine = false
			got := RealMRC(app, cfg)

			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: shared sweep diverges from per-machine:\n got %v\nwant %v",
					name, seed, got, want)
			}
		}
	}
}

// TestRealMRCSharedMatchesPerMachineSimplified covers the simplified
// (single-issue, in-order, no-prefetch) mode and the L3-less hierarchy,
// both of which change which physical-side events fire.
func TestRealMRCSharedMatchesPerMachineSimplified(t *testing.T) {
	cfg := sweepTestConfig(3)
	cfg.Mode = cpu.Simplified
	cfg.L3Enabled = false
	app := workload.MustByName("equake")

	cfg.PerMachine = true
	want := RealMRC(app, cfg)
	cfg.PerMachine = false
	got := RealMRC(app, cfg)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("simplified mode: shared sweep diverges:\n got %v\nwant %v", got, want)
	}
}

// TestMissRateTimelinesSharedMatchesPerMachine pins the interval-boundary
// alignment: resetMetrics/runUntil must cut the stream at exactly the refs
// the per-machine RunInstructions calls would.
func TestMissRateTimelinesSharedMatchesPerMachine(t *testing.T) {
	app := workload.MustByName("art")
	const intervals, intervalInstr = 6, 30_000
	for _, workers := range []int{1, 4} {
		cfg := sweepTestConfig(5)
		cfg.Workers = workers
		cfg.PerMachine = true
		want := MissRateTimelines(app, intervals, intervalInstr, cfg)
		cfg.PerMachine = false
		got := MissRateTimelines(app, intervals, intervalInstr, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers %d: timelines diverge:\n got %v\nwant %v", workers, got, want)
		}
	}
}

// TestSharedSweepPooledMatchesSerial runs the shared fan-out with a worker
// pool and serially; per-machine state is independent, so the schedule
// must not matter.
func TestSharedSweepPooledMatchesSerial(t *testing.T) {
	app := workload.MustByName("gzip")
	serial := sweepTestConfig(2)
	want := RealMRC(app, serial)
	pooled := sweepTestConfig(2)
	pooled.Workers = 4
	got := RealMRC(app, pooled)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pooled shared sweep diverges from serial:\n got %v\nwant %v", got, want)
	}
}

// TestStepEventsMatchesStepRefs checks the compacted replay at the
// machine level: stepping the leader's events, cut at arbitrary refs, must
// leave the architectural metrics and a captured trace identical to the
// machine simulating every ref and its own L1 — the L1-D is virtually
// indexed and untouched by physical-side events, so its outcomes are a
// pure function of the stream, and the refs between events only retire
// instructions.
func TestStepEventsMatchesStepRefs(t *testing.T) {
	app := workload.MustByName("mcf")
	opts := Options{Mode: cpu.Complex, L3Enabled: true, Seed: 9}

	own := NewMachine(workload.New(app, 9), opts)
	shared := NewMachine(workload.New(app, 9), opts)
	leader := NewSweepHalves(workload.New(app, 9))
	c := leader.sw.next
	r := rand.New(rand.NewSource(9))

	// step builds the next chunk and replays it on both machines: every
	// other chunk whole, as the benchmark suite steps it, the others cut
	// at a random ref, comparing the metrics at the cut too.
	round := 0
	step := func() {
		leader.Lead()
		round++
		if round%2 == 0 {
			own.StepRefs(c.refs[:c.n])
			leader.Step(shared)
			return
		}
		j := r.Intn(c.n + 1)
		cut := shared.core.Instructions()
		for _, ref := range c.refs[:j] {
			cut += uint64(ref.Gap) + 1
		}
		k := 0
		for k < len(c.evs) && c.evs[k].instr <= cut {
			k++
		}
		own.StepRefs(c.refs[:j])
		shared.stepEvents(c.evs[:k], cut)
		if own.Metrics() != shared.Metrics() {
			t.Fatalf("metrics diverge at a cut:\n own    %+v\n shared %+v", own.Metrics(), shared.Metrics())
		}
		own.StepRefs(c.refs[j:c.n])
		shared.stepEvents(c.evs[k:], c.end)
	}
	for round < 8 {
		step()
	}
	if own.Metrics() != shared.Metrics() {
		t.Fatalf("metrics diverge:\n own    %+v\n shared %+v", own.Metrics(), shared.Metrics())
	}

	// The PMU capture must agree too: trace content depends on the PMU rng
	// position (advanced on overlapped misses), so arm both PMUs and keep
	// driving each machine through its own path. (CollectTrace itself is
	// self-driven and would touch the shared machine's deliberately cold
	// private L1, which is why the sweep never mixes the two drivers.)
	own.PMU().StartTrace(2000, own.Core().Instructions(), own.Core().Cycles())
	shared.PMU().StartTrace(2000, shared.Core().Instructions(), shared.Core().Cycles())
	for !own.PMU().TraceFull() {
		step()
	}
	linesOwn, statsOwn := own.PMU().FinishTrace(own.Core().Instructions(), own.Core().Cycles())
	linesShared, statsShared := shared.PMU().FinishTrace(shared.Core().Instructions(), shared.Core().Cycles())
	if !reflect.DeepEqual(linesOwn, linesShared) {
		t.Fatalf("captured traces diverge: %d vs %d lines", len(linesOwn), len(linesShared))
	}
	if statsOwn != statsShared {
		t.Fatalf("capture stats diverge:\n own    %+v\n shared %+v", statsOwn, statsShared)
	}
}

// sweepScript is one random shared sweep: a real-MRC run (skip, then
// slice) or a timeline (equal intervals), over small chunks so that the
// targets cut them everywhere.
type sweepScript struct {
	App                string
	Seed               int64
	ChunkRefs, Workers int
	Colors             int
	Timeline           bool
	Skip, Slice        uint64
	Intervals          int
	IntervalInstr      uint64
}

// sweepChunkSizes are the chunk sizes the scripts force: every ref its
// own chunk, chunks shorter than most runs of L1 hits, and chunks that
// many targets cut in the middle.
var sweepChunkSizes = []int{1, 3, 4096}

func (sweepScript) Generate(r *rand.Rand, _ int) reflect.Value {
	apps := []string{"mcf", "art", "libquantum", "twolf", "gzip"}
	sc := sweepScript{
		App:       apps[r.Intn(len(apps))],
		Seed:      r.Int63n(100),
		ChunkRefs: sweepChunkSizes[r.Intn(len(sweepChunkSizes))],
		Workers:   []int{1, 4}[r.Intn(2)],
		Colors:    1 + r.Intn(6),
		Timeline:  r.Intn(2) == 0,
	}
	if sc.Timeline {
		sc.Intervals = 1 + r.Intn(6)
		sc.IntervalInstr = 1 + uint64(r.Intn(12_000))
	} else {
		if r.Intn(4) > 0 {
			sc.Skip = 1 + uint64(r.Intn(40_000))
		}
		sc.Slice = 1 + uint64(r.Intn(30_000))
	}
	// Random targets rarely fall on the last ref of a large chunk; aim
	// some at one.
	if r.Intn(3) == 0 {
		end := refsInstructions(sc.App, sc.Seed, sc.ChunkRefs*(1+r.Intn(3)))
		if sc.Timeline {
			sc.IntervalInstr = end
		} else {
			sc.Skip = end
		}
	}
	return reflect.ValueOf(sc)
}

// refsInstructions is the instruction count after the first n refs of
// app's stream.
func refsInstructions(app string, seed int64, n int) uint64 {
	refs := make([]mem.Ref, n)
	mem.ReadBatch(workload.New(workload.MustByName(app), seed), refs)
	var instr uint64
	for _, r := range refs {
		instr += uint64(r.Gap) + 1
	}
	return instr
}

func (sc sweepScript) config() RealMRCConfig {
	cfg := DefaultRealMRCConfig()
	cfg.Seed = sc.Seed
	cfg.Workers = sc.Workers
	cfg.MaxColors = sc.Colors
	cfg.SkipInstructions = sc.Skip
	cfg.SliceInstructions = sc.Slice
	return cfg
}

// sweepScriptConfig is the quick configuration both script tests share,
// so the coverage test sees the scripts the property test runs.
func sweepScriptConfig() *quick.Config {
	n := 60
	if testing.Short() {
		n = 15
	}
	return &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(20))}
}

// TestSharedSweepMatchesPerMachineScripts is the property behind the cut
// logic: over random target sequences and forced chunk sizes, serial and
// pooled, the shared sweep reproduces RealMRCPerMachine and
// MissRateTimelinesPerMachine bit for bit.
func TestSharedSweepMatchesPerMachineScripts(t *testing.T) {
	check := func(sc sweepScript) bool {
		app, cfg := workload.MustByName(sc.App), sc.config()
		var got, want any
		if sc.Timeline {
			got = missRateTimelinesShared(app, sc.Intervals, sc.IntervalInstr, cfg, sc.ChunkRefs)
			want = MissRateTimelinesPerMachine(app, sc.Intervals, sc.IntervalInstr, cfg)
		} else {
			got = realMRCShared(app, cfg, sc.ChunkRefs)
			want = RealMRCPerMachine(app, cfg)
		}
		if !reflect.DeepEqual(got, want) {
			t.Logf("%+v:\n got %v\nwant %v", sc, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(check, sweepScriptConfig()); err != nil {
		t.Fatal(err)
	}
}

// Where a runUntil call leaves the sweep's current chunk.
const (
	// cutInHits: between two L1 load hits, inside a run of refs a
	// machine retires with one Advance.
	cutInHits = iota
	// cutLastRef: on a chunk's last ref.
	cutLastRef
	// cutSkipSlice: the skip ends inside a chunk the slice then resumes.
	cutSkipSlice
	cutKinds
)

// sweepCuts replays sc's target sequence on a one-machine sweep and
// reports which kinds of cut it made.
func sweepCuts(sc sweepScript) (kinds [cutKinds]bool) {
	gen := workload.New(workload.MustByName(sc.App), sc.Seed)
	sw := newSharedSweep(gen, newSweepMachines(gen, 1, sc.config()), 1, sc.ChunkRefs)
	isEvent := func(ev int, instr uint64) bool {
		return ev >= 0 && ev < len(sw.cur.evs) && sw.cur.evs[ev].instr == instr
	}
	run := func(target uint64) {
		sw.runUntil(target)
		c, pos := sw.cur, sw.pos
		if pos == c.n {
			kinds[cutLastRef] = true
		} else if pos > 0 && !isEvent(sw.ev-1, sw.instr) &&
			!isEvent(sw.ev, sw.instr+uint64(c.refs[pos].Gap)+1) {
			kinds[cutInHits] = true
		}
	}
	if sc.Timeline {
		for j := 0; j < sc.Intervals; j++ {
			run(sw.instr + sc.IntervalInstr)
		}
		return kinds
	}
	if sc.Skip > 0 {
		run(sc.Skip)
		kinds[cutSkipSlice] = kinds[cutSkipSlice] || sw.pos < sw.cur.n
	}
	run(sw.instr + sc.Slice)
	return kinds
}

// TestSharedSweepScriptCoverage proves the property's scripts reach every
// kind of cut at every forced chunk size.
func TestSharedSweepScriptCoverage(t *testing.T) {
	qc := sweepScriptConfig()
	hit := map[int]*[cutKinds]bool{}
	for _, size := range sweepChunkSizes {
		hit[size] = new([cutKinds]bool)
	}
	for i := 0; i < qc.MaxCount; i++ {
		sc := sweepScript{}.Generate(qc.Rand, 0).Interface().(sweepScript)
		for k, ok := range sweepCuts(sc) {
			hit[sc.ChunkRefs][k] = hit[sc.ChunkRefs][k] || ok
		}
	}
	names := [cutKinds]string{"inside a run of hits", "on a chunk's last ref", "across skip → slice"}
	for _, size := range sweepChunkSizes {
		for k, ok := range hit[size] {
			// A one-ref chunk is cut on its last ref every time.
			if !ok && !(size == 1 && k != cutLastRef) {
				t.Errorf("chunks of %d refs: no script cuts %s", size, names[k])
			}
		}
	}
}

// TestSharedSweepPanicsAtEndOfStream pins the end-of-stream behavior: a
// sweep whose generator runs dry panics like a machine, naming the
// generator and the refs it took, instead of looping forever — after a
// short last chunk or an empty one, serial or with the next chunk built
// on the pool.
func TestSharedSweepPanicsAtEndOfStream(t *testing.T) {
	const chunk = 4096
	for _, n := range []int{10_000, 2 * chunk} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%d/workers=%d", n, workers), func(t *testing.T) {
				gen := &finiteGen{n: n}
				ms := newSweepMachines(gen, 3, DefaultRealMRCConfig())
				sw := newSharedSweep(gen, ms, workers, chunk)
				sw.runUntil(uint64(3 * (n - 1)))
				want := fmt.Sprintf("platform: generator %q ended after %d refs", "finite", n)
				expectEnd := func() {
					t.Helper()
					defer func() {
						if p := recover(); p != want {
							t.Fatalf("panic %v, want %q", p, want)
						}
					}()
					sw.runUntil(uint64(3*n + 1))
				}
				expectEnd()
				for k, m := range ms {
					if got := m.core.Instructions(); got != uint64(3*n) {
						t.Fatalf("machine %d: %d refs stepped %d instructions, want %d", k, n, got, 3*n)
					}
				}
				expectEnd() // and stays ended
				// After a short chunk the sweep reads the generator no
				// more; a stream that ends on a chunk boundary takes one
				// empty read to tell.
				wantDrained := 0
				if n%chunk == 0 {
					wantDrained = 1
				}
				if gen.drained != wantDrained {
					t.Fatalf("generator read %d times after its end, want %d", gen.drained, wantDrained)
				}
			})
		}
	}
}

// TestSharedSweepForwardsGeneratorPanic checks that a generator panic
// raised while the pool builds the next chunk reaches the sweep's caller
// once every machine has stepped the refs produced before it.
func TestSharedSweepForwardsGeneratorPanic(t *testing.T) {
	const chunk = 4096
	gen := &faultyGen{finiteGen{n: 3 * chunk}}
	ms := newSweepMachines(gen, 3, DefaultRealMRCConfig())
	sw := newSharedSweep(gen, ms, 4, chunk)
	func() {
		defer func() {
			if p := recover(); p != "generator fault" {
				t.Fatalf("recovered %v, want the generator's panic", p)
			}
		}()
		sw.runUntil(1 << 40)
	}()
	for k, m := range ms {
		if got, want := m.core.Instructions(), uint64(3*3*chunk); got != want {
			t.Fatalf("machine %d stepped %d instructions before the fault, want %d", k, got, want)
		}
	}
}

// TestRunRefsBatchedMatchesLegacyGenerator pins the batched read-ahead
// transport: a machine reading through NextBatch and one reading through a
// legacy per-ref generator must be indistinguishable in both metrics and
// captured trace.
func TestRunRefsBatchedMatchesLegacyGenerator(t *testing.T) {
	app := workload.MustByName("twolf")
	opts := Options{Mode: cpu.Complex, L3Enabled: true, Seed: 4}

	batched := NewMachine(workload.New(app, 4), opts)
	legacy := NewMachine(perRefOnly{workload.New(app, 4)}, opts)

	batched.RunRefs(150_000)
	legacy.RunRefs(150_000)
	if batched.Metrics() != legacy.Metrics() {
		t.Fatalf("metrics diverge:\n batched %+v\n legacy  %+v", batched.Metrics(), legacy.Metrics())
	}
	capB := batched.CollectTrace(3000)
	capL := legacy.CollectTrace(3000)
	if !reflect.DeepEqual(capB.Lines, capL.Lines) {
		t.Fatalf("captured traces diverge")
	}
}

// perRefOnly strips the BatchGenerator extension so mem.ReadBatch falls
// back to per-ref Next calls.
type perRefOnly struct{ g mem.Generator }

func (p perRefOnly) Next() mem.Ref    { return p.g.Next() }
func (p perRefOnly) Name() string     { return p.g.Name() }
func (p perRefOnly) Reset(seed int64) { p.g.Reset(seed) }
