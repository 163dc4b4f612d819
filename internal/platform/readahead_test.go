package platform

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"rapidmrc/internal/color"
	"rapidmrc/internal/cpu"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/pmu"
	"rapidmrc/internal/workload"
)

// scriptOp is one call a script makes on a machine.
type scriptOp struct {
	kind opKind
	// n is the instruction count, ref count, number of Steps or trace
	// entries; colors is the Repartition target.
	n      int
	colors color.Set
}

type opKind int

const (
	opRunInstructions opKind = iota
	opRunRefs
	opCollectTrace
	opStep
	opResetMetrics
	opRepartition
	numOpKinds
)

func (op scriptOp) String() string {
	names := [...]string{"RunInstructions", "RunRefs", "CollectTrace",
		"Step×", "ResetMetrics", "Repartition"}
	if op.kind == opRepartition {
		return fmt.Sprintf("Repartition(%v)", op.colors)
	}
	return fmt.Sprintf("%s(%d)", names[op.kind], op.n)
}

// script is a random sequence of machine calls. Sizes straddle the
// read-ahead batch so that runs start and stop mid-batch, and Step runs
// long enough to drain what a run left queued and then read inline.
type script []scriptOp

// Generate implements quick.Generator.
func (script) Generate(r *rand.Rand, size int) reflect.Value {
	s := make(script, 4+r.Intn(8))
	for i := range s {
		op := scriptOp{kind: opKind(r.Intn(int(numOpKinds)))}
		switch op.kind {
		case opRunInstructions:
			op.n = 1 + r.Intn(60_000)
		case opRunRefs:
			op.n = r.Intn(3 * readAheadBatch)
		case opCollectTrace:
			op.n = 1 + r.Intn(300)
		case opStep:
			op.n = 1 + r.Intn(4*readAheadBatch)
		case opRepartition:
			op.colors = color.Set(1 + r.Intn(int(color.All)))
		}
		s[i] = op
	}
	return reflect.ValueOf(s)
}

// oracle drives a machine only through StepRef, with references read one
// at a time from its own generator: the machine as it behaves with no
// read-ahead at all.
type oracle struct {
	m   *Machine
	gen mem.Generator
}

func (o *oracle) step() { o.m.StepRef(o.gen.Next()) }

func (o *oracle) runTrace() {
	for !o.m.pmu.TraceFull() {
		o.step()
	}
}

// outcome is what one script call returns or leaves observable.
type outcome struct {
	Metrics      Metrics
	Instructions uint64
	Cycles       uint64
	Lines        traceLog
	Stats        pmu.TraceStats
	Moved        int
}

func observe(m *Machine, out outcome) outcome {
	out.Metrics = m.Metrics()
	out.Instructions = m.core.Instructions()
	out.Cycles = m.core.Cycles()
	return out
}

// apply runs op on the machine under test through its public entry
// points.
func apply(m *Machine, op scriptOp) outcome {
	var out outcome
	switch op.kind {
	case opRunInstructions:
		m.RunInstructions(uint64(op.n))
	case opRunRefs:
		m.RunRefs(op.n)
	case opCollectTrace:
		out.Lines, out.Stats = collect(m, op.n)
	case opStep:
		for i := 0; i < op.n; i++ {
			m.Step()
		}
	case opResetMetrics:
		m.ResetMetrics()
	case opRepartition:
		out.Moved = m.Repartition(op.colors)
	}
	return observe(m, out)
}

// apply runs op on the oracle, spelling each run method out as StepRef
// calls.
func (o *oracle) apply(op scriptOp) outcome {
	m := o.m
	var out outcome
	switch op.kind {
	case opRunInstructions:
		target := m.core.Instructions() + uint64(op.n)
		for m.core.Instructions() < target {
			o.step()
		}
	case opRunRefs, opStep:
		for i := 0; i < op.n; i++ {
			o.step()
		}
	case opCollectTrace:
		m.pmu.StartTrace(&out.Lines, op.n, m.core.Instructions(), m.core.Cycles())
		o.runTrace()
		out.Stats = m.pmu.FinishTrace(m.core.Instructions(), m.core.Cycles())
	case opResetMetrics:
		m.ResetMetrics()
	case opRepartition:
		out.Moved = m.Repartition(op.colors)
	}
	return observe(m, out)
}

// waitGoroutines waits until the process is back to base goroutines. A
// stopped producer has signalled its exit but may not have returned yet,
// so the count is polled briefly; a leaked producer never returns and
// fails the test at the deadline.
func waitGoroutines(t *testing.T, base int, after string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("after %s: %d goroutines, baseline %d\n%s",
				after, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

// TestReadAheadMatchesOracle is the pipeline's equivalence property: a
// machine reading its workload through the read-ahead queue — pipelined
// runs, external Steps that drain what a run left queued, and everything
// between — behaves call for call like an oracle fed one reference at a
// time from an independently constructed generator with the same seed.
// Metrics, captured logs, capture stats and pages moved must be equal
// after every call, and no producer may outlive a call.
func TestReadAheadMatchesOracle(t *testing.T) {
	type variant struct {
		name string
		app  string
		wrap func(mem.Generator) mem.Generator
	}
	batched := func(g mem.Generator) mem.Generator { return g }
	legacy := func(g mem.Generator) mem.Generator { return perRefOnly{g} }
	variants := []variant{
		{"mcf", "mcf", batched},
		{"twolf", "twolf", batched},
		{"art", "art", batched},
		{"gzip", "gzip", batched},
		{"twolf/perRefOnly", "twolf", legacy},
	}
	for vi, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			app := workload.MustByName(v.app)
			seed := int64(11 + vi)
			check := func(s script) bool {
				opts := Options{Mode: cpu.Complex, L3Enabled: true, Seed: seed}
				m := NewMachine(v.wrap(workload.New(app, seed)), opts)
				o := &oracle{m: NewMachine(workload.New(app, seed), opts), gen: workload.New(app, seed)}
				base := runtime.NumGoroutine()
				for i, op := range s {
					got, want := apply(m, op), o.apply(op)
					waitGoroutines(t, base, op.String())
					if !reflect.DeepEqual(got, want) {
						t.Errorf("call %d %v of %v diverges:\n got  %+v\n want %+v",
							i, op, s, summary(got), summary(want))
						return false
					}
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(seed))}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// summary prints an outcome without its captured lines.
func summary(o outcome) string {
	return fmt.Sprintf("metrics %+v instr %d cycles %d lines %d stats %+v moved %d",
		o.Metrics, o.Instructions, o.Cycles, len(o.Lines), o.Stats, o.Moved)
}

// TestReadAheadStopsWhenSinkPanics drives a streamed capture whose sink
// panics part-way through. The producer must be gone once the panic
// leaves CollectTrace, and the machine must carry on from exactly
// the reference after the one whose step panicked: an oracle that panics
// at the same point of the same StepRef stays in lockstep with it.
func TestReadAheadStopsWhenSinkPanics(t *testing.T) {
	app := workload.MustByName("mcf")
	opts := Options{Mode: cpu.Complex, L3Enabled: true, Seed: 7}
	m := NewMachine(workload.New(app, 7), opts)
	o := &oracle{m: NewMachine(workload.New(app, 7), opts), gen: workload.New(app, 7)}
	base := runtime.NumGoroutine()

	m.RunInstructions(40_000)
	o.apply(scriptOp{kind: opRunInstructions, n: 40_000})
	waitGoroutines(t, base, "RunInstructions")

	const panicAt = 500
	panicky := func() pmu.Sink {
		n := 0
		return pmu.SinkFunc(func(mem.Line) {
			if n++; n == panicAt {
				panic("sink failed")
			}
		})
	}
	recovered := func(f func()) (p any) {
		defer func() { p = recover() }()
		f()
		return nil
	}
	if p := recovered(func() { m.CollectTrace(10_000, panicky()) }); p != "sink failed" {
		t.Fatalf("CollectTrace recovered %v, want the sink's panic", p)
	}
	waitGoroutines(t, base, "the panicking CollectTrace")
	o.m.pmu.StartTrace(panicky(), 10_000, o.m.core.Instructions(), o.m.core.Cycles())
	if p := recovered(o.runTrace); p != "sink failed" {
		t.Fatalf("oracle recovered %v, want the sink's panic", p)
	}
	m.pmu.FinishTrace(m.core.Instructions(), m.core.Cycles())
	o.m.pmu.FinishTrace(o.m.core.Instructions(), o.m.core.Cycles())

	for _, op := range []scriptOp{
		{kind: opStep, n: 1},
		{kind: opRunRefs, n: 3 * readAheadBatch},
		{kind: opCollectTrace, n: 200},
	} {
		got, want := apply(m, op), o.apply(op)
		waitGoroutines(t, base, op.String())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after the panic, %v diverges:\n got  %+v\n want %+v", op, summary(got), summary(want))
		}
	}
}

// finiteGen is a test-only finite stream of n loads, read through the
// batch interface: its last batch is short or, when n is a multiple of
// the batch size, the batch after the last full one is empty. drained
// counts the reads made once the stream had ended.
type finiteGen struct{ n, pos, drained int }

func (g *finiteGen) Next() mem.Ref    { panic("finiteGen is read in batches") }
func (g *finiteGen) Name() string     { return "finite" }
func (g *finiteGen) Reset(seed int64) { g.pos = 0 }

func (g *finiteGen) NextBatch(buf []mem.Ref) int {
	if g.pos == g.n {
		g.drained++
	}
	k := min(len(buf), g.n-g.pos)
	for i := 0; i < k; i++ {
		buf[i] = mem.Ref{Addr: mem.Addr(g.pos+i) * mem.LineSize, Kind: mem.Load, Gap: 2}
	}
	g.pos += k
	return k
}

// TestMachinePanicsAtEndOfStream pins the end-of-stream behavior: a
// machine whose generator runs dry panics, naming the generator and the
// refs it consumed, instead of replaying a stale reference or waiting
// forever for a batch — stepped inline or pipelined, after a short last
// batch or an empty one.
func TestMachinePanicsAtEndOfStream(t *testing.T) {
	for _, n := range []int{10_000, 2 * readAheadBatch} {
		want := fmt.Sprintf("generator %q ended after %d refs", "finite", n)
		expectEnd := func(t *testing.T, f func()) {
			t.Helper()
			defer func() {
				p := recover()
				msg, _ := p.(string)
				if !strings.Contains(msg, want) {
					t.Fatalf("panic %v, want one containing %q", p, want)
				}
			}()
			f()
		}
		t.Run(fmt.Sprintf("inline/%d", n), func(t *testing.T) {
			m := NewMachine(&finiteGen{n: n}, Options{Mode: cpu.Complex, Seed: 1})
			for i := 0; i < n; i++ {
				m.Step()
			}
			if got := m.core.Instructions(); got != uint64(3*n) {
				t.Fatalf("%d refs stepped %d instructions, want %d", n, got, 3*n)
			}
			expectEnd(t, m.Step)
			expectEnd(t, m.Step) // and stays ended
		})
		t.Run(fmt.Sprintf("pipelined/%d", n), func(t *testing.T) {
			base := runtime.NumGoroutine()
			m := NewMachine(&finiteGen{n: n}, Options{Mode: cpu.Complex, Seed: 1})
			m.RunRefs(n - 1)
			waitGoroutines(t, base, "RunRefs within the stream")
			expectEnd(t, func() { m.RunRefs(2) })
			waitGoroutines(t, base, "RunRefs past the end")
			if got := m.core.Instructions(); got != uint64(3*n) {
				t.Fatalf("%d refs stepped %d instructions, want %d", n, got, 3*n)
			}
			expectEnd(t, func() { m.RunInstructions(1_000_000) })
			waitGoroutines(t, base, "RunInstructions past the end")
		})
	}
}

// faultyGen panics once it has produced n refs.
type faultyGen struct{ finiteGen }

func (g *faultyGen) NextBatch(buf []mem.Ref) int {
	if g.pos >= g.n {
		panic("generator fault")
	}
	return g.finiteGen.NextBatch(buf)
}

// TestReadAheadForwardsGeneratorPanic checks that a generator panic on
// the producer reaches the caller of the run, as it would inline, once
// the machine has stepped every reference produced before it.
func TestReadAheadForwardsGeneratorPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	m := NewMachine(&faultyGen{finiteGen{n: 3 * readAheadBatch}}, Options{Mode: cpu.Complex, Seed: 1})
	func() {
		defer func() {
			if p := recover(); p != "generator fault" {
				t.Fatalf("recovered %v, want the generator's panic", p)
			}
		}()
		m.RunRefs(4 * readAheadBatch)
	}()
	waitGoroutines(t, base, "the faulting RunRefs")
	if got, want := m.core.Instructions(), uint64(3*3*readAheadBatch); got != want {
		t.Fatalf("stepped %d instructions before the fault, want %d", got, want)
	}
}
