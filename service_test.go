package rapidmrc

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"testing"

	"rapidmrc/internal/core"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/service"
)

// TestPooledPathsMatchSerialReferenceZoo is the refactor's pinning
// property: for every bundled application, the three pooled paths — the
// one-shot Online workflow, the fused System.Stream workflow, and a
// probing period fed through the tenant service over HTTP — produce
// curves bit-identical to the pre-service serial reference (capture,
// batch correction, serial Mattson computation, v-offset transposition,
// all driven by hand against internal/core).
func TestPooledPathsMatchSerialReferenceZoo(t *testing.T) {
	const (
		seed    = 29
		entries = 5000
	)
	svc := service.New(service.Config{})
	ts := httptest.NewServer(service.NewHandler(svc))
	defer ts.Close()
	client := ts.Client()

	for _, app := range Apps() {
		mk := func() *System {
			sys, err := NewSystem(app, WithSeed(seed), WithTraceEntries(entries))
			if err != nil {
				t.Fatal(err)
			}
			// Match Online's warmup-to-steady-state run exactly.
			sys.Run(500_000)
			return sys
		}

		// Serial reference, driven by hand against the core.
		refSys := mk()
		trace := refSys.Capture()
		lines := make([]mem.Line, len(trace.Lines))
		for i, l := range trace.Lines {
			lines[i] = mem.Line(l)
		}
		core.CorrectPrefetchRepetitions(lines)
		res, err := core.Compute(lines, trace.Instructions, core.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: reference compute: %v", app, err)
		}
		measured := refSys.MeasureMPKI(200_000)
		refCurve := &Curve{MPKI: append([]float64(nil), res.MRC.MPKI...)}
		refShift := refCurve.Transpose(Colors, measured)

		// Path 1: Online (pooled batch engine).
		curve, stats, _, err := Online(app, WithSeed(seed), WithTraceEntries(entries))
		if err != nil {
			t.Fatalf("%s: Online: %v", app, err)
		}
		if !reflect.DeepEqual(refCurve.MPKI, curve.MPKI) || stats.Shift != refShift {
			t.Errorf("%s: Online diverges from serial reference (shift %v vs %v)",
				app, stats.Shift, refShift)
		}

		// Path 2: System.Stream (pooled incremental engine).
		curve, stats, err = mk().Stream(0, nil)
		if err != nil {
			t.Fatalf("%s: Stream: %v", app, err)
		}
		if !reflect.DeepEqual(refCurve.MPKI, curve.MPKI) || stats.Shift != refShift {
			t.Errorf("%s: System.Stream diverges from serial reference (shift %v vs %v)",
				app, stats.Shift, refShift)
		}

		// Path 3: the captured period fed through the tenant service over
		// HTTP, transposed server-side at the same measured point.
		reg, _ := json.Marshal(service.RegisterRequest{ID: app, Target: entries})
		resp, err := client.Post(ts.URL+"/tenants", "application/json", bytes.NewReader(reg))
		if err != nil || resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s: register: %v %d", app, err, resp.StatusCode)
		}
		resp.Body.Close()
		feed, _ := json.Marshal(service.FeedRequest{Lines: trace.Lines, Instructions: trace.Instructions})
		resp, err = client.Post(ts.URL+"/tenants/"+app+"/feed", "application/json", bytes.NewReader(feed))
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: feed: %v %d", app, err, resp.StatusCode)
		}
		resp.Body.Close()
		q := url.Values{}
		q.Set("wait", "1")
		q.Set("transpose_at", strconv.Itoa(Colors))
		q.Set("measured", strconv.FormatFloat(measured, 'g', -1, 64))
		resp, err = client.Get(ts.URL + "/tenants/" + app + "/curve?" + q.Encode())
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: curve: %v %d", app, err, resp.StatusCode)
		}
		var cr service.CurveResponse
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !reflect.DeepEqual(refCurve.MPKI, cr.MPKI) || cr.Shift != refShift {
			t.Errorf("%s: HTTP service path diverges from serial reference (shift %v vs %v)",
				app, cr.Shift, refShift)
		}
	}
}

// TestStreamCloseBothOrders is the finalization regression: Feed and
// Snapshot fail with the typed ErrStreamClosed after Close, whether the
// stream was fed first or closed untouched.
func TestStreamCloseBothOrders(t *testing.T) {
	for _, mkStream := range []func() (*Stream, error){
		func() (*Stream, error) { return NewEngine().NewStream(1000) },
	} {
		// Order 1: feed, close, then feed/snapshot.
		st, err := mkStream()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Feed(42); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if err := st.Feed(43); !errors.Is(err, ErrStreamClosed) {
			t.Errorf("Feed after Close: %v, want ErrStreamClosed", err)
		}
		if _, _, err := st.Snapshot(1); !errors.Is(err, ErrStreamClosed) {
			t.Errorf("Snapshot after Close: %v, want ErrStreamClosed", err)
		}
		if st.Entries() != 0 || st.Warming() {
			t.Error("closed stream still reports live state")
		}

		// Order 2: close an untouched stream, then feed.
		st, err = mkStream()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if err := st.Feed(42); !errors.Is(err, ErrStreamClosed) {
			t.Errorf("Feed after immediate Close: %v, want ErrStreamClosed", err)
		}
		// Close is idempotent.
		if err := st.Close(); err != nil {
			t.Errorf("second Close: %v", err)
		}
	}
}

// TestWorkerOptionValidation pins the option-apply-time validation: the
// worker-count option rejects counts below one, and the error surfaces
// from whichever constructor consumed it.
func TestWorkerOptionValidation(t *testing.T) {
	for _, n := range []int{0, -1, -8} {
		if _, err := NewSystem("mcf", WithParallelism(n)); err == nil {
			t.Errorf("WithParallelism(%d) accepted by NewSystem", n)
		}
		if _, err := RealCurve("mcf", WithParallelism(n)); err == nil {
			t.Errorf("WithParallelism(%d) accepted by RealCurve", n)
		}
		if _, err := NewManager([]string{"mcf", "art"}, WithParallelism(n)); err == nil {
			t.Errorf("WithParallelism(%d) accepted by NewManager", n)
		}
	}
	// The first invalid option wins even when followed by valid ones.
	_, err := NewSystem("mcf", WithParallelism(0), WithSeed(3))
	if err == nil || !contains(err.Error(), "WithParallelism") {
		t.Errorf("option error lost: %v", err)
	}
	// Valid counts still work.
	if _, err := NewSystem("mcf", WithParallelism(1)); err != nil {
		t.Errorf("valid worker counts rejected: %v", err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && bytes.Contains([]byte(s), []byte(sub))
}
