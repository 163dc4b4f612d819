package service

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"rapidmrc/internal/core"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/sample"
)

// rawTrace converts a synthetic trace to the feed wire form.
func rawTrace(trace []mem.Line) []uint64 {
	out := make([]uint64, len(trace))
	for i, l := range trace {
		out[i] = uint64(l)
	}
	return out
}

func TestRegisterLifecycle(t *testing.T) {
	svc := New(Config{})
	if _, err := svc.Register("", TenantConfig{}); err == nil {
		t.Error("empty tenant id accepted")
	}
	if _, err := svc.Register("a", TenantConfig{Sampling: sample.Config{Rate: 2}}); err == nil {
		t.Error("sampling rate 2 accepted")
	}
	a, err := svc.Register("a", TenantConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if a.cfg.Target != DefaultTarget || a.cfg.MaxQueued != DefaultMaxQueued {
		t.Errorf("defaults not applied: %+v", a.cfg)
	}
	if _, err := svc.Register("a", TenantConfig{}); !errors.Is(err, ErrTenantExists) {
		t.Errorf("duplicate register: %v", err)
	}
	got, err := svc.Lookup("a")
	if err != nil || got != a {
		t.Fatalf("Lookup = %v, %v", got, err)
	}
	if _, err := svc.Lookup("nope"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("unknown lookup: %v", err)
	}
	if err := svc.Evict("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Lookup("a"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("evicted tenant still resolvable: %v", err)
	}
	if err := svc.Evict("a"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("double evict: %v", err)
	}
	// The evicted tenant's handle refuses feeds and snapshots.
	if err := a.Feed([]uint64{1, 2, 3}, 10); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("feed after evict: %v", err)
	}
	if _, err := a.Snapshot(true); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("snapshot after evict: %v", err)
	}
}

// TestTenantMatchesDirectEngine pins the tenant feed path bit-identical
// to the serial oracle: core.Compute over the batch-corrected trace with
// the tenant's defaulted config. A zero Engine defaults to unpriced walks
// (ModelCycles = entries×CostFixed); an explicit priced config still
// matches core.Compute(DefaultConfig()), the paper's modeled cost.
func TestTenantMatchesDirectEngine(t *testing.T) {
	trace := synthTrace(3, 4000)
	raw := rawTrace(trace)
	const instr = 777_777
	corrected := append([]mem.Line(nil), trace...)
	converted := core.CorrectPrefetchRepetitions(corrected)

	unpriced := core.DefaultConfig()
	unpriced.CostPerWalk = 0
	for _, tc := range []struct {
		name         string
		engine, want core.Config // registered, and as defaulted
	}{
		{"default", core.Config{}, unpriced},
		{"priced", core.DefaultConfig(), core.DefaultConfig()},
	} {
		svc := New(Config{})
		tn, err := svc.Register("app", TenantConfig{Target: len(trace), Engine: tc.engine})
		if err != nil {
			t.Fatal(err)
		}
		// Feed in uneven batches with split instruction progress.
		cuts := []int{0, 997, 1500, 3999, len(raw)}
		fed := uint64(0)
		for i := 1; i < len(cuts); i++ {
			part := instr * uint64(cuts[i]-cuts[i-1]) / uint64(len(raw))
			if i == len(cuts)-1 {
				part = instr - fed
			}
			fed += part
			if err := tn.Feed(raw[cuts[i-1]:cuts[i]], part); err != nil {
				t.Fatal(err)
			}
		}
		ep, err := tn.Snapshot(true)
		if err != nil {
			t.Fatal(err)
		}

		if got := tn.cfg.Engine; got != tc.want {
			t.Fatalf("%s: engine config %+v, want %+v", tc.name, got, tc.want)
		}
		want, err := core.Compute(corrected, instr, tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, ep.Result) {
			t.Fatalf("%s: tenant result diverges from Compute:\nwant %+v\ngot  %+v", tc.name, want, ep.Result)
		}
		if ep.Converted != converted {
			t.Errorf("%s: Converted = %d, want %d", tc.name, ep.Converted, converted)
		}
		if ep.Entries != len(trace) || ep.Instructions != instr {
			t.Errorf("%s: epoch covers %d entries / %d instr", tc.name, ep.Entries, ep.Instructions)
		}
		fixed := uint64(len(trace)) * tc.want.CostFixed
		if got := ep.Result.ModelCycles; (got == fixed) != (tc.want.CostPerWalk == 0) {
			t.Errorf("%s: ModelCycles = %d against entries×CostFixed = %d with CostPerWalk %d",
				tc.name, got, fixed, tc.want.CostPerWalk)
		}
	}
}

// TestFeedShedsTyped checks both admission bounds reject with a
// *ShedError matching ErrOverloaded, without blocking.
func TestFeedShedsTyped(t *testing.T) {
	// Per-tenant bound: the batch alone exceeds the queue.
	svc := New(Config{})
	tn, err := svc.Register("small", TenantConfig{MaxQueued: 8})
	if err != nil {
		t.Fatal(err)
	}
	err = tn.Feed(make([]uint64, 16), 10)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("per-tenant overflow returned %v, want *ShedError", err)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Error("shed does not match ErrOverloaded")
	}
	if shed.Global || shed.Tenant != "small" || shed.Entries != 16 || shed.Limit != 8 {
		t.Errorf("shed detail %+v", shed)
	}
	if tn.Stats().Sheds != 1 {
		t.Errorf("Sheds = %d, want 1", tn.Stats().Sheds)
	}

	// Global budget: the tenant queue has room but the service does not.
	svc = New(Config{GlobalBudget: 10})
	tn, err = svc.Register("big", TenantConfig{MaxQueued: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	err = tn.Feed(make([]uint64, 16), 10)
	if !errors.As(err, &shed) {
		t.Fatalf("global overflow returned %v, want *ShedError", err)
	}
	if !shed.Global || shed.Limit != 10 {
		t.Errorf("global shed detail %+v", shed)
	}

	// Empty batches are accepted trivially.
	if err := tn.Feed(nil, 5); err != nil {
		t.Errorf("empty feed: %v", err)
	}
}

// TestBudgetReleased checks the global budget returns to its full level
// once queues drain, and after an eviction that discards queued work.
func TestBudgetReleased(t *testing.T) {
	svc := New(Config{GlobalBudget: 1000})
	tn, err := svc.Register("a", TenantConfig{Target: 100})
	if err != nil {
		t.Fatal(err)
	}
	trace := rawTrace(synthTrace(5, 600))
	for i := 0; i < 600; i += 100 {
		if err := tn.Feed(trace[i:i+100], 50); err != nil {
			t.Fatal(err)
		}
	}
	tn.Flush()
	if got := svc.Stats().BudgetRemaining; got != 1000 {
		t.Errorf("budget after flush = %d, want 1000", got)
	}
	if err := tn.Feed(trace[:100], 50); err != nil {
		t.Fatal(err)
	}
	if err := svc.Evict("a"); err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().BudgetRemaining; got != 1000 {
		t.Errorf("budget after evict = %d, want 1000", got)
	}
}

// TestDrain checks the graceful path: queued work is computed, new work
// is refused, and final curves stay readable from the cached epoch.
func TestDrain(t *testing.T) {
	trace := synthTrace(9, 3000)
	raw := rawTrace(trace)
	svc := New(Config{})
	tn, err := svc.Register("a", TenantConfig{Target: len(trace)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.Feed(raw, 500_000); err != nil {
		t.Fatal(err)
	}
	svc.Drain()

	if _, err := svc.Register("b", TenantConfig{}); !errors.Is(err, ErrDraining) {
		t.Errorf("register during drain: %v", err)
	}
	if err := tn.Feed(raw[:10], 1); !errors.Is(err, ErrDraining) {
		t.Errorf("feed after drain: %v", err)
	}
	st := tn.Stats()
	if !st.Closed || st.QueuedEntries != 0 || st.Entries != len(trace) {
		t.Errorf("drained tenant stats %+v", st)
	}

	// The queued batch was computed before the engine was recycled, and
	// the final epoch is still served.
	ep, err := tn.Live()
	if err != nil {
		t.Fatal(err)
	}
	if ep.Entries != len(trace) {
		t.Errorf("final epoch covers %d entries, want %d", ep.Entries, len(trace))
	}
	if !svc.Stats().Draining {
		t.Error("service does not report draining")
	}
}

// TestAutoEpochs checks the configured cadence produces cached epochs
// readable without forcing a recompute.
func TestAutoEpochs(t *testing.T) {
	trace := synthTrace(13, 4000)
	svc := New(Config{})
	tn, err := svc.Register("a", TenantConfig{Target: len(trace), EpochEntries: 500})
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.Feed(rawTrace(trace), 100_000); err != nil {
		t.Fatal(err)
	}
	tn.Flush()
	st := tn.Stats()
	if st.Epochs == 0 {
		t.Fatal("no auto-epochs taken")
	}
	if st.LastEpochNanos <= 0 {
		t.Error("epoch latency not recorded")
	}
	ep, err := tn.Live()
	if err != nil {
		t.Fatal(err)
	}
	if ep.Entries == 0 || ep.Result == nil {
		t.Errorf("cached epoch %+v", ep)
	}
	if svc.Stats().Tenants != 1 {
		t.Errorf("Tenants = %d", svc.Stats().Tenants)
	}
}

// TestFeedNeverBlocks feeds far past every bound under a timeout: the
// producer must get typed sheds, not a stall.
func TestFeedNeverBlocks(t *testing.T) {
	svc := New(Config{GlobalBudget: 256})
	tn, err := svc.Register("a", TenantConfig{Target: 100_000, MaxQueued: 128})
	if err != nil {
		t.Fatal(err)
	}
	batch := rawTrace(synthTrace(21, 64))
	done := make(chan int, 1)
	go func() {
		sheds := 0
		for i := 0; i < 200; i++ {
			if err := tn.Feed(batch, 10); errors.Is(err, ErrOverloaded) {
				sheds++
			}
		}
		done <- sheds
	}()
	select {
	case sheds := <-done:
		if sheds == 0 {
			t.Skip("queue drained faster than the producer; no sheds forced")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Feed blocked")
	}
}
