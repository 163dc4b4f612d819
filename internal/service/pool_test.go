package service

import (
	"math/rand"
	"reflect"
	"testing"

	"rapidmrc/internal/core"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/sample"
)

// synthTrace builds a deterministic reference stream with reuse at mixed
// distances, enough distinct lines to end warmup on small stacks.
func synthTrace(seed int64, n int) []mem.Line {
	r := rand.New(rand.NewSource(seed))
	out := make([]mem.Line, n)
	for i := range out {
		switch r.Intn(4) {
		case 0: // tight reuse
			out[i] = mem.Line(r.Intn(64))
		case 1: // medium reuse
			out[i] = mem.Line(256 + r.Intn(2048))
		default: // wide footprint, mostly cold
			out[i] = mem.Line(1_000_000 + i*7 + r.Intn(3))
		}
	}
	return out
}

// feedSnap pushes a trace through an engine and snapshots it.
func feedSnap(t *testing.T, e *sample.Engine, trace []mem.Line, instr uint64) *core.Result {
	t.Helper()
	for _, l := range trace {
		e.Feed(l)
	}
	res, err := e.Snapshot(instr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPoolReuseBitIdentical is the pool's central property: an engine
// recycled through Put/Get — carrying arbitrary prior state — produces
// exactly the result a newly constructed engine does.
func TestPoolReuseBitIdentical(t *testing.T) {
	cfg := core.DefaultConfig()
	dirty := synthTrace(1, 3000)
	pool := NewEnginePool(4)

	// Dirty an engine with an unrelated stream, then recycle it.
	first, err := pool.Get(cfg, len(dirty), 0)
	if err != nil {
		t.Fatal(err)
	}
	feedSnap(t, first, dirty, 99_999)
	pool.Put(first)

	for round, seed := range []int64{7, 42, 1234} {
		trace := synthTrace(seed, 2000+500*round)
		reused, err := pool.Get(cfg, len(trace), 0)
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 && reused != first {
			t.Fatal("expected the recycled engine, got a fresh one")
		}
		got := feedSnap(t, reused, trace, 123_456)

		fresh, err := NewEnginePool(1).Get(cfg, len(trace), 0)
		if err != nil {
			t.Fatal(err)
		}
		want := feedSnap(t, fresh, trace, 123_456)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("round %d: recycled engine diverges:\nwant %+v\ngot  %+v", round, want, got)
		}
		pool.Put(reused)
	}
	st := pool.Stats()
	if st.Hits == 0 {
		t.Errorf("no pool hits recorded: %+v", st)
	}
}

// TestPoolConfigMatching checks that a retained engine only serves
// requests for its exact configuration.
func TestPoolConfigMatching(t *testing.T) {
	cfg := core.DefaultConfig()
	other := cfg
	other.StaticWarmupFrac = 0.25

	pool := NewEnginePool(4)
	e, err := pool.Get(cfg, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(e)

	got, err := pool.Get(other, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got == e {
		t.Fatal("engine with mismatched config was reused")
	}
	if got.Config() != other {
		t.Fatalf("Get returned config %+v, want %+v", got.Config(), other)
	}
	back, err := pool.Get(cfg, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if back != e {
		t.Fatal("retained matching engine was not reused")
	}
}

// TestPoolCapacity checks the retention bound and the drop counter.
func TestPoolCapacity(t *testing.T) {
	cfg := core.DefaultConfig()
	pool := NewEnginePool(2)
	engines := make([]*sample.Engine, 3)
	for i := range engines {
		e, err := pool.Get(cfg, 100, 0)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	for _, e := range engines {
		pool.Put(e)
	}
	st := pool.Stats()
	if st.Idle != 2 {
		t.Errorf("Idle = %d, want 2", st.Idle)
	}
	if st.Drops != 1 {
		t.Errorf("Drops = %d, want 1", st.Drops)
	}
}

// TestPoolRejectsForeignEngines checks Put ignores a nil engine.
func TestPoolRejectsForeignEngines(t *testing.T) {
	pool := NewEnginePool(2)
	pool.Put(nil)
	if st := pool.Stats(); st != (PoolStats{}) {
		t.Errorf("nil engine retained: %+v", st)
	}
}

// TestPoolRejectsBadTarget checks the target is validated for both fresh
// construction and reset-reuse, exact and sampled — and that a rejected
// request leaves a retained engine in place without counting a hit.
func TestPoolRejectsBadTarget(t *testing.T) {
	cfg := core.DefaultConfig()
	for _, tc := range []struct {
		kind string
		spec TenantConfig
	}{
		{"exact", TenantConfig{Engine: cfg}},
		{"sampled", TenantConfig{Engine: cfg, Sampling: sample.Config{Rate: 0.5}}},
	} {
		pool := NewEnginePool(2)
		spec := tc.spec
		if _, err := pool.Open(spec); err == nil {
			t.Errorf("%s: target 0 accepted on construction", tc.kind)
		}
		spec.Target = 100
		sess, err := pool.Open(spec)
		if err != nil {
			t.Fatal(err)
		}
		sess.Close()
		before := pool.Stats()
		spec.Target = -3
		if _, err := pool.Open(spec); err == nil {
			t.Errorf("%s: negative target accepted on reset", tc.kind)
		}
		if _, err := pool.Get(cfg, -3, tc.spec.Sampling.Rate); err == nil {
			t.Errorf("%s: Get accepted a negative target", tc.kind)
		}
		if after := pool.Stats(); after != before {
			t.Errorf("%s: rejected target touched the pool: %+v -> %+v", tc.kind, before, after)
		}
	}
}
