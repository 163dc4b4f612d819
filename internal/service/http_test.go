package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"rapidmrc/internal/core"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/sample"
)

// doJSON issues a request with an optional JSON body and decodes the
// JSON response into out (skipped when out is nil).
func doJSON(t *testing.T, client *http.Client, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPFeedCurveBitIdentical(t *testing.T) {
	trace := synthTrace(31, 4000)
	raw := rawTrace(trace)
	const instr = 555_555

	svc := New(Config{})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	c := ts.Client()

	if code := doJSON(t, c, "POST", ts.URL+"/tenants",
		RegisterRequest{ID: "app", Target: len(trace)}, nil); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	// Feed in two batches.
	half := len(raw) / 2
	for _, b := range []FeedRequest{
		{Lines: raw[:half], Instructions: instr / 2},
		{Lines: raw[half:], Instructions: instr - instr/2},
	} {
		var fr FeedResponse
		if code := doJSON(t, c, "POST", ts.URL+"/tenants/app/feed", b, &fr); code != http.StatusAccepted {
			t.Fatalf("feed: status %d", code)
		}
		if fr.Accepted != len(b.Lines) {
			t.Fatalf("accepted %d, want %d", fr.Accepted, len(b.Lines))
		}
	}

	var cr CurveResponse
	if code := doJSON(t, c, "GET", ts.URL+"/tenants/app/curve?wait=1", nil, &cr); code != http.StatusOK {
		t.Fatalf("curve: status %d", code)
	}

	// Reference: the serial oracle over the batch-corrected trace.
	corrected := append([]mem.Line(nil), trace...)
	converted := core.CorrectPrefetchRepetitions(corrected)
	want, err := core.Compute(corrected, instr, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.MRC.MPKI, cr.MPKI) {
		t.Fatalf("HTTP curve diverges:\nwant %v\ngot  %v", want.MRC.MPKI, cr.MPKI)
	}
	if cr.WarmupEntries != want.WarmupEntries || cr.AutoWarmup != want.AutoWarmup ||
		cr.StackHitRate != want.StackHitRate || cr.Converted != converted {
		t.Errorf("curve metadata diverges: %+v", cr)
	}

	// An unsampled tenant runs the same engine as a sampled one, but its
	// curve carries no sampling rate or band fields and its stats report
	// rate 0.
	var fields map[string]json.RawMessage
	if code := doJSON(t, c, "GET", ts.URL+"/tenants/app/curve", nil, &fields); code != http.StatusOK {
		t.Fatalf("raw curve: status %d", code)
	}
	for _, k := range []string{"sampling_rate", "band_low", "band_high", "band_level", "eff_samples"} {
		if _, ok := fields[k]; ok {
			t.Errorf("unsampled curve carries %q: %s", k, fields[k])
		}
	}
	var st TenantStats
	if code := doJSON(t, c, "GET", ts.URL+"/tenants/app/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.SamplingRate != 0 || st.BandWidthMPKI != 0 {
		t.Errorf("unsampled stats: sampling rate %v, band width %v", st.SamplingRate, st.BandWidthMPKI)
	}

	// Transposed read: the v-offset applied server-side must equal the
	// in-process transposition.
	ref := want.MRC.Clone()
	wantShift := ref.Transpose(15, 2.5)
	var tr CurveResponse
	code := doJSON(t, c, "GET", ts.URL+"/tenants/app/curve?wait=1&transpose_at=16&measured=2.5", nil, &tr)
	if code != http.StatusOK {
		t.Fatalf("transposed curve: status %d", code)
	}
	if tr.Shift != wantShift || !reflect.DeepEqual(ref.MPKI, tr.MPKI) {
		t.Fatalf("transposed curve diverges: shift %v vs %v", tr.Shift, wantShift)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	svc := New(Config{GlobalBudget: 32})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	c := ts.Client()

	if code := doJSON(t, c, "GET", ts.URL+"/tenants/none/curve", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown tenant curve: %d", code)
	}
	if code := doJSON(t, c, "DELETE", ts.URL+"/tenants/none", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown tenant delete: %d", code)
	}
	if code := doJSON(t, c, "POST", ts.URL+"/tenants", RegisterRequest{ID: "a"}, nil); code != http.StatusCreated {
		t.Fatalf("register: %d", code)
	}
	if code := doJSON(t, c, "POST", ts.URL+"/tenants", RegisterRequest{ID: "a"}, nil); code != http.StatusConflict {
		t.Errorf("duplicate register: %d", code)
	}
	if code := doJSON(t, c, "POST", ts.URL+"/tenants", RegisterRequest{ID: "bad", SamplingRate: 2}, nil); code != http.StatusBadRequest {
		t.Errorf("invalid sampling rate: %d", code)
	}

	// Overflow the global budget: typed shed detail on the 429.
	var er struct {
		Error string    `json:"error"`
		Shed  *shedJSON `json:"shed"`
	}
	code := doJSON(t, c, "POST", ts.URL+"/tenants/a/feed",
		FeedRequest{Lines: make([]uint64, 64), Instructions: 1}, &er)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overload: %d", code)
	}
	if er.Shed == nil || !er.Shed.Global || er.Shed.Entries != 64 || er.Shed.Limit != 32 {
		t.Errorf("shed detail %+v", er.Shed)
	}

	// Snapshot with nothing fed: still warming → 400 family, not a hang.
	if code := doJSON(t, c, "GET", ts.URL+"/tenants/a/curve?wait=1", nil, nil); code == http.StatusOK {
		t.Error("empty snapshot succeeded")
	}

	if code := doJSON(t, c, "DELETE", ts.URL+"/tenants/a", nil, nil); code != http.StatusNoContent {
		t.Errorf("evict: %d", code)
	}
	if code := doJSON(t, c, "GET", ts.URL+"/tenants/a/curve", nil, nil); code != http.StatusNotFound {
		t.Errorf("curve after evict: %d", code)
	}
}

func TestHTTPAdviceAndMetrics(t *testing.T) {
	svc := New(Config{})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	c := ts.Client()

	for i, seed := range []int64{41, 43} {
		id := fmt.Sprintf("t%d", i)
		trace := rawTrace(synthTrace(seed, 3000))
		if code := doJSON(t, c, "POST", ts.URL+"/tenants",
			RegisterRequest{ID: id, Target: len(trace)}, nil); code != http.StatusCreated {
			t.Fatalf("register %s: %d", id, code)
		}
		if code := doJSON(t, c, "POST", ts.URL+"/tenants/"+id+"/feed",
			FeedRequest{Lines: trace, Instructions: 100_000}, nil); code != http.StatusAccepted {
			t.Fatalf("feed %s: %d", id, code)
		}
		if code := doJSON(t, c, "GET", ts.URL+"/tenants/"+id+"/curve?wait=1", nil, nil); code != http.StatusOK {
			t.Fatalf("curve %s: %d", id, code)
		}
	}

	var ar AdviceResponse
	if code := doJSON(t, c, "GET", ts.URL+"/advice", nil, &ar); code != http.StatusOK {
		t.Fatalf("advice: %d", code)
	}
	sum := 0
	for _, n := range ar.Allocation {
		sum += n
	}
	if len(ar.Allocation) != 2 || sum != DefaultColors {
		t.Errorf("advice %+v: want 2 tenants summing to %d colors", ar, DefaultColors)
	}
	if code := doJSON(t, c, "GET", ts.URL+"/advice?colors=0", nil, nil); code != http.StatusBadRequest {
		t.Error("colors=0 accepted")
	}

	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"rapidmrc_tenants 2",
		`rapidmrc_tenant_fed_entries{tenant="t0"} 3000`,
		`rapidmrc_tenant_queue_entries{tenant="t1"} 0`,
		`rapidmrc_tenant_sheds{tenant="t0"} 0`,
		"rapidmrc_budget_remaining_entries",
		"rapidmrc_pool_misses",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}

	var ok map[string]bool
	if code := doJSON(t, c, "GET", ts.URL+"/healthz", nil, &ok); code != http.StatusOK || !ok["ok"] {
		t.Error("healthz failed")
	}

	// GET /tenants lists both with their stats.
	var list []TenantStats
	if code := doJSON(t, c, "GET", ts.URL+"/tenants", nil, &list); code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if len(list) != 2 || list[0].ID != "t0" || list[1].ID != "t1" {
		t.Errorf("tenant list %+v", list)
	}
}

// TestHTTPStatsSamplingRateStableAcrossDrain reads a sampled tenant's
// /stats while its session is open and again after Drain has finalized
// it: both report the engine's quantized rate, to the bit. 0.1 is not on
// the bucket grid, so the configured rate would read differently.
func TestHTTPStatsSamplingRateStableAcrossDrain(t *testing.T) {
	const rate = 0.1
	trace := rawTrace(synthTrace(53, 8000))
	svc := New(Config{})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	c := ts.Client()
	if code := doJSON(t, c, "POST", ts.URL+"/tenants",
		RegisterRequest{ID: "s", Target: len(trace), SamplingRate: rate}, nil); code != http.StatusCreated {
		t.Fatalf("register: %d", code)
	}
	if code := doJSON(t, c, "POST", ts.URL+"/tenants/s/feed",
		FeedRequest{Lines: trace, Instructions: 1_000_000}, nil); code != http.StatusAccepted {
		t.Fatal("feed failed")
	}
	var open, drained TenantStats
	if code := doJSON(t, c, "GET", ts.URL+"/tenants/s/stats", nil, &open); code != http.StatusOK || open.Closed {
		t.Fatalf("stats of the open tenant: %d, closed %v", code, open.Closed)
	}
	svc.Drain()
	if code := doJSON(t, c, "GET", ts.URL+"/tenants/s/stats", nil, &drained); code != http.StatusOK || !drained.Closed {
		t.Fatalf("stats after drain: %d, closed %v", code, drained.Closed)
	}
	if open.SamplingRate == rate {
		t.Fatalf("open tenant reports the configured rate %v, not the engine's quantized one", rate)
	}
	if math.Float64bits(open.SamplingRate) != math.Float64bits(drained.SamplingRate) {
		t.Fatalf("sampling rate %v while open, %v after drain", open.SamplingRate, drained.SamplingRate)
	}
}

func TestHTTPSampling(t *testing.T) {
	trace := rawTrace(synthTrace(51, 30_000))

	svc := New(Config{})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	c := ts.Client()

	// Unknown fields such as sampling_smax and sampling_level are
	// ignored: bands are always built at 0.95.
	if code := doJSON(t, c, "POST", ts.URL+"/tenants", map[string]any{
		"id": "s", "target": len(trace), "sampling_rate": 0.1,
		"sampling_smax": 900, "sampling_level": 0.90,
	}, nil); code != http.StatusCreated {
		t.Fatalf("register: %d", code)
	}
	if code := doJSON(t, c, "POST", ts.URL+"/tenants/s/feed",
		FeedRequest{Lines: trace, Instructions: 3_000_000}, nil); code != http.StatusAccepted {
		t.Fatal("feed failed")
	}
	var cr CurveResponse
	if code := doJSON(t, c, "GET", ts.URL+"/tenants/s/curve?wait=1", nil, &cr); code != http.StatusOK {
		t.Fatalf("curve: %d", code)
	}
	if cr.SamplingRate <= 0 || cr.SamplingRate > 0.11 {
		t.Errorf("sampling_rate %v, want ~0.1", cr.SamplingRate)
	}
	if cr.EffSamples <= 0 {
		t.Errorf("eff_samples %v", cr.EffSamples)
	}
	// The band is always at sample.DefaultLevel, so the curve does not
	// carry a level.
	var fields map[string]json.RawMessage
	if code := doJSON(t, c, "GET", ts.URL+"/tenants/s/curve", nil, &fields); code != http.StatusOK {
		t.Fatalf("raw curve: %d", code)
	}
	if v, ok := fields["band_level"]; ok {
		t.Errorf("sampled curve carries band_level: %s", v)
	}
	if len(cr.BandLow) != len(cr.MPKI) || len(cr.BandHigh) != len(cr.MPKI) {
		t.Fatalf("band lengths %d/%d vs %d points", len(cr.BandLow), len(cr.BandHigh), len(cr.MPKI))
	}
	for i := range cr.MPKI {
		if cr.BandLow[i] > cr.MPKI[i] || cr.BandHigh[i] < cr.MPKI[i] {
			t.Fatalf("band excludes curve at %d: [%v, %v] vs %v", i, cr.BandLow[i], cr.BandHigh[i], cr.MPKI[i])
		}
	}

	// Transposed read shifts the bands along with the curve.
	var tr CurveResponse
	if code := doJSON(t, c, "GET", ts.URL+"/tenants/s/curve?wait=1&transpose_at=16&measured=50", nil, &tr); code != http.StatusOK {
		t.Fatalf("transposed curve: %d", code)
	}
	for i := range tr.MPKI {
		wantLow := cr.BandLow[i] + tr.Shift
		if wantLow < 0 {
			wantLow = 0
		}
		if tr.BandLow[i] != wantLow {
			t.Fatalf("transposed band_low[%d] = %v, want %v (shift %v)", i, tr.BandLow[i], wantLow, tr.Shift)
		}
	}

	// Bad rates, negative ones included, map to a typed 400 at
	// registration time and register nothing.
	for _, rate := range []float64{2, -0.5} {
		id := fmt.Sprintf("r%v", rate)
		var er errorResponse
		if code := doJSON(t, c, "POST", ts.URL+"/tenants",
			RegisterRequest{ID: id, SamplingRate: rate}, &er); code != http.StatusBadRequest {
			t.Errorf("rate %v: status %d, want 400", rate, code)
		}
		if want := (&sample.RateError{Rate: rate}).Error(); er.Error != want {
			t.Errorf("rate %v: error %q, want %q", rate, er.Error, want)
		}
		if _, err := svc.Lookup(id); !errors.Is(err, ErrUnknownTenant) {
			t.Errorf("rate %v: rejected tenant registered (%v)", rate, err)
		}
	}

	// Metrics expose the per-tenant rate and band width.
	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`rapidmrc_tenant_sampling_rate_milli{tenant="s"} 100`,
		`rapidmrc_tenant_band_width_milli_mpki{tenant="s"}`,
		"rapidmrc_pool_idle ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
