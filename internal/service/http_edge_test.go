package service

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// TestHTTPQueryEdgeCases drives the mrcd query surface through hostile
// parameter values, asserting each is a typed 400 with a JSON error body
// — never a 500, never silently accepted.
func TestHTTPQueryEdgeCases(t *testing.T) {
	svc := New(Config{})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	c := ts.Client()

	// One tenant with a served curve so transposition paths are live.
	trace := rawTrace(synthTrace(31, 4000))
	if code := doJSON(t, c, "POST", ts.URL+"/tenants",
		RegisterRequest{ID: "app", Target: len(trace)}, nil); code != http.StatusCreated {
		t.Fatalf("register: %d", code)
	}
	if code := doJSON(t, c, "POST", ts.URL+"/tenants/app/feed",
		FeedRequest{Lines: trace, Instructions: 100_000}, nil); code != http.StatusAccepted {
		t.Fatalf("feed: %d", code)
	}
	// Drain the queue first: a no-wait read snapshots only what the
	// worker has consumed, which may still be all warmup.
	if code := doJSON(t, c, "GET", ts.URL+"/tenants/app/curve?wait=1", nil, nil); code != http.StatusOK {
		t.Fatalf("drain: %d", code)
	}

	cases := []struct {
		name  string
		path  string
		query string
		code  int
	}{
		{"wait default", "/tenants/app/curve", "", http.StatusOK},
		{"wait 0", "/tenants/app/curve", "wait=0", http.StatusOK},
		{"wait 1", "/tenants/app/curve", "wait=1", http.StatusOK},
		{"wait empty value", "/tenants/app/curve", "wait=", http.StatusOK},
		{"wait 2", "/tenants/app/curve", "wait=2", http.StatusBadRequest},
		{"wait non-numeric", "/tenants/app/curve", "wait=yes", http.StatusBadRequest},
		{"wait huge", "/tenants/app/curve", "wait=99999999999999999999", http.StatusBadRequest},

		{"transpose ok", "/tenants/app/curve", "wait=1&transpose_at=16&measured=2.5", http.StatusOK},
		{"transpose_at zero", "/tenants/app/curve", "transpose_at=0&measured=1", http.StatusBadRequest},
		{"transpose_at beyond curve", "/tenants/app/curve", "transpose_at=17&measured=1", http.StatusBadRequest},
		{"transpose_at negative", "/tenants/app/curve", "transpose_at=-1&measured=1", http.StatusBadRequest},
		{"transpose_at non-numeric", "/tenants/app/curve", "transpose_at=abc&measured=1", http.StatusBadRequest},
		{"transpose_at huge", "/tenants/app/curve", "transpose_at=99999999999999999999&measured=1", http.StatusBadRequest},

		{"measured missing", "/tenants/app/curve", "transpose_at=16", http.StatusBadRequest},
		{"measured empty", "/tenants/app/curve", "transpose_at=16&measured=", http.StatusBadRequest},
		{"measured non-numeric", "/tenants/app/curve", "transpose_at=16&measured=abc", http.StatusBadRequest},
		{"measured NaN", "/tenants/app/curve", "transpose_at=16&measured=NaN", http.StatusBadRequest},
		{"measured Inf", "/tenants/app/curve", "transpose_at=16&measured=Inf", http.StatusBadRequest},
		{"measured -Inf", "/tenants/app/curve", "transpose_at=16&measured=-Inf", http.StatusBadRequest},
		{"measured negative", "/tenants/app/curve", "transpose_at=16&measured=-5", http.StatusBadRequest},
		{"measured overflows float64", "/tenants/app/curve", "transpose_at=16&measured=1e999", http.StatusBadRequest},
		{"measured large but finite", "/tenants/app/curve", "transpose_at=16&measured=1e308", http.StatusOK},

		{"colors default", "/advice", "", http.StatusOK},
		{"colors max", "/advice", "colors=1024", http.StatusOK},
		{"colors zero", "/advice", "colors=0", http.StatusBadRequest},
		{"colors negative", "/advice", "colors=-3", http.StatusBadRequest},
		{"colors non-numeric", "/advice", "colors=abc", http.StatusBadRequest},
		{"colors beyond max", "/advice", "colors=1025", http.StatusBadRequest},
		{"colors huge", "/advice", "colors=99999999999999999999", http.StatusBadRequest},
	}
	for _, tc := range cases {
		url := ts.URL + tc.path
		if tc.query != "" {
			url += "?" + tc.query
		}
		var er errorResponse
		code := doJSON(t, c, "GET", url, nil, &er)
		if code != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.code)
			continue
		}
		if tc.code == http.StatusBadRequest && er.Error == "" {
			t.Errorf("%s: 400 without a JSON error body", tc.name)
		}
	}
}

// TestHTTPAnalyticalTier drives the tiered surface end to end over HTTP:
// a tenant registered with approx_threshold serves an analytical curve,
// /curve reports the tier, /stats and /metrics expose the decision
// counters.
func TestHTTPAnalyticalTier(t *testing.T) {
	svc := New(Config{})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	c := ts.Client()

	trace := rawTrace(synthTrace(47, 4000))
	if code := doJSON(t, c, "POST", ts.URL+"/tenants",
		RegisterRequest{ID: "fast", Target: len(trace), ApproxThreshold: 0.95},
		nil); code != http.StatusCreated {
		t.Fatalf("register: %d", code)
	}
	if code := doJSON(t, c, "POST", ts.URL+"/tenants/fast/feed",
		FeedRequest{Lines: trace, Instructions: 100_000}, nil); code != http.StatusAccepted {
		t.Fatalf("feed: %d", code)
	}

	var cr CurveResponse
	if code := doJSON(t, c, "GET", ts.URL+"/tenants/fast/curve?wait=1", nil, &cr); code != http.StatusOK {
		t.Fatalf("curve: %d", code)
	}
	if cr.Tier != "analytical" && cr.Tier != "simulated" {
		t.Fatalf("tier %q", cr.Tier)
	}
	if cr.Tier == "analytical" {
		if cr.Estimator == "" {
			t.Error("analytical serve without estimator name")
		}
		if cr.Uncertainty > 0.95 {
			t.Errorf("served uncertainty %v beyond threshold", cr.Uncertainty)
		}
	} else if cr.TierReason == "" {
		t.Error("simulated serve without a reason")
	}

	var st TenantStats
	if code := doJSON(t, c, "GET", ts.URL+"/tenants/fast/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.ApproxServed+st.SimServed != 1 {
		t.Errorf("decision counters %+v", st)
	}

	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`rapidmrc_tenant_tier_analytical{tenant="fast"}`,
		`rapidmrc_tenant_approx_served{tenant="fast"}`,
		`rapidmrc_tenant_sim_served{tenant="fast"}`,
		`rapidmrc_tenant_escalations{tenant="fast"}`,
		`rapidmrc_tenant_phase_transitions{tenant="fast"}`,
		`rapidmrc_tenant_uncertainty_milli{tenant="fast"}`,
		`rapidmrc_tenant_crossval_error_milli_mpki{tenant="fast"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// feedBodyRejects are feed bodies encoding/json refuses for a
// FeedRequest; each must be a typed 400 that leaves the tenant alone.
var feedBodyRejects = []struct{ name, body string }{
	{"empty", ``},
	{"truncated", `{"lines":[1,2`},
	{"truncated key", `{"lin`},
	{"negative", `{"lines":[-1]}`},
	{"fraction", `{"lines":[1.5]}`},
	{"exponent", `{"lines":[1e3]}`},
	{"leading zero", `{"lines":[01]}`},
	{"overflow", `{"lines":[18446744073709551616]}`},
	{"string element", `{"lines":["1"]}`},
	{"lines not an array", `{"lines":"x"}`},
	{"trailing comma", `{"lines":[1,]}`},
	{"negative instructions", `{"lines":[1],"instructions":-1}`},
	{"type error mid-array", `{"lines":[1,-2,3],"instructions":4}`},
}

// feedBodyAccepts are feed bodies outside the canonical shape that
// encoding/json accepts, with the values it decodes them to.
var feedBodyAccepts = []struct {
	name, body string
	want       FeedRequest
}{
	{"null", `null`, FeedRequest{}},
	{"empty object", `{}`, FeedRequest{}},
	{"empty lines", `{"lines":[],"instructions":9}`, FeedRequest{Lines: []uint64{}, Instructions: 9}},
	{"upper-case key", `{"LINES":[1]}`, FeedRequest{Lines: []uint64{1}}},
	{"escaped key", `{"line\u0073":[5],"instructions":6}`, FeedRequest{Lines: []uint64{5}, Instructions: 6}},
	{"unknown key", `{"lines":[1,2],"extra":{"a":[true]},"instructions":3}`,
		FeedRequest{Lines: []uint64{1, 2}, Instructions: 3}},
	{"duplicate lines", `{"lines":[1,2],"lines":[7]}`, FeedRequest{Lines: []uint64{7}}},
	{"null lines", `{"lines":null,"instructions":2}`, FeedRequest{Instructions: 2}},
	{"trailing bytes", `{"lines":[4],"instructions":1}garbage`, FeedRequest{Lines: []uint64{4}, Instructions: 1}},
	{"keys reversed", `{"instructions":8,"lines":[0,18446744073709551615]}`,
		FeedRequest{Lines: []uint64{0, 18446744073709551615}, Instructions: 8}},
	{"heavy whitespace", " \r\n\t{ \n\"lines\" \t:\r[ 1 ,\n2 ,\t3 ] \n, \"instructions\"\t:  10 \r\n}\n\n",
		FeedRequest{Lines: []uint64{1, 2, 3}, Instructions: 10}},
}

// postRaw POSTs body verbatim and returns the status and response body.
func postRaw(t *testing.T, c *http.Client, url, body string) (int, []byte) {
	t.Helper()
	resp, err := c.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// feedCounters is the part of a tenant's state a refused feed must not
// touch.
type feedCounters struct {
	Batches, Entries, Sheds, QueuedEntries, Budget int
	Instructions                                   uint64
}

func countersOf(svc *Service, tn *Tenant) feedCounters {
	tn.Flush()
	st := tn.Stats()
	return feedCounters{
		Batches: st.Batches, Entries: st.Entries, Sheds: st.Sheds,
		QueuedEntries: st.QueuedEntries, Budget: svc.Stats().BudgetRemaining,
		Instructions: st.Instructions,
	}
}

// TestHTTPFeedBodyEdgeCases pins which feed bodies the daemon accepts
// and with which values: exactly encoding/json's verdicts. Rejects are
// typed 400s with a JSON error body that leave the tenant's counters and
// the global budget untouched; accepts advance the tenant by the values
// encoding/json decodes.
func TestHTTPFeedBodyEdgeCases(t *testing.T) {
	svc := New(Config{})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	c := ts.Client()
	tn, err := svc.Register("edge", TenantConfig{Target: 1000})
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/tenants/edge/feed"

	before := countersOf(svc, tn)
	for _, tc := range feedBodyRejects {
		code, body := postRaw(t, c, url, tc.body)
		var er errorResponse
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, code, body)
		} else if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: 400 without a JSON error body: %s", tc.name, body)
		}
		if got := countersOf(svc, tn); got != before {
			t.Errorf("%s: rejected feed changed the tenant: %+v, was %+v", tc.name, got, before)
		}
	}

	for _, tc := range feedBodyAccepts {
		var std FeedRequest
		if err := json.NewDecoder(strings.NewReader(tc.body)).Decode(&std); err != nil {
			t.Fatalf("%s: encoding/json rejects the body: %v", tc.name, err)
		}
		if !reflect.DeepEqual(std, tc.want) {
			t.Fatalf("%s: encoding/json decodes %+v, table says %+v", tc.name, std, tc.want)
		}
		before := countersOf(svc, tn)
		var fr FeedResponse
		code, body := postRaw(t, c, url, tc.body)
		if code != http.StatusAccepted {
			t.Errorf("%s: status %d, want 202 (%s)", tc.name, code, body)
			continue
		}
		if err := json.Unmarshal(body, &fr); err != nil || fr.Accepted != len(tc.want.Lines) {
			t.Errorf("%s: response %s, want %d accepted", tc.name, body, len(tc.want.Lines))
		}
		want := before
		if n := len(tc.want.Lines); n > 0 { // an empty batch is a no-op
			want.Batches++
			want.Entries += n
			want.Instructions += tc.want.Instructions
		}
		if got := countersOf(svc, tn); got != want {
			t.Errorf("%s: tenant %+v, want %+v", tc.name, got, want)
		}
	}
}

// TestHTTPBodyLimits pins the request-body bounds: a feed body one byte
// past 24*MaxQueued+4096 is a 413 that leaves the tenant and the global
// budget untouched, a canonical body of MaxQueued maximal lines padded to
// exactly the bound is accepted, and a register body past 64 KiB is a
// 413.
func TestHTTPBodyLimits(t *testing.T) {
	const maxQueued = 64
	svc := New(Config{})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	c := ts.Client()
	tn, err := svc.Register("lim", TenantConfig{Target: 1000, MaxQueued: maxQueued})
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/tenants/lim/feed"

	lines := make([]uint64, maxQueued)
	for i := range lines {
		lines[i] = math.MaxUint64
	}
	canon, err := json.Marshal(FeedRequest{Lines: lines, Instructions: math.MaxUint64})
	if err != nil {
		t.Fatal(err)
	}
	const limit = 24*maxQueued + 4096
	if len(canon) > limit {
		t.Fatalf("canonical %d-line body is %d bytes, past the %d-byte bound", maxQueued, len(canon), limit)
	}
	pad := func(n int) string { return string(canon) + strings.Repeat(" ", n-len(canon)) }

	before := countersOf(svc, tn)
	code, body := postRaw(t, c, url, pad(limit+1))
	var er errorResponse
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body one byte over the bound: status %d, want 413 (%s)", code, body)
	}
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Errorf("413 without a JSON error body: %s", body)
	}
	if got := countersOf(svc, tn); got != before {
		t.Errorf("413 changed the tenant: %+v, was %+v", got, before)
	}

	code, body = postRaw(t, c, url, pad(limit))
	if code != http.StatusAccepted {
		t.Fatalf("body at the bound: status %d, want 202 (%s)", code, body)
	}
	if got := countersOf(svc, tn); got.Entries != maxQueued || got.Batches != 1 {
		t.Errorf("body at the bound: tenant %+v, want %d entries in 1 batch", got, maxQueued)
	}

	reg := `{"id":"` + strings.Repeat("x", 64<<10) + `"}`
	if code, body := postRaw(t, c, ts.URL+"/tenants", reg); code != http.StatusRequestEntityTooLarge {
		t.Errorf("register body past 64 KiB: status %d, want 413 (%s)", code, body)
	}
	if n := svc.Stats().Tenants; n != 1 {
		t.Errorf("%d tenants after an oversized register, want 1", n)
	}
}

// TestHTTPBodyLimitCappedByBudget pins the feed-body bound to the global
// admission budget: a tenant registered with a max_queued far above the
// budget still gets the budget-derived bound, and a body past it is a
// 413 that leaves the tenant and the budget untouched. With the budget
// disabled (negative) the tenant's own max_queued bound applies.
func TestHTTPBodyLimitCappedByBudget(t *testing.T) {
	const budget = 64
	lines := make([]uint64, budget)
	for i := range lines {
		lines[i] = math.MaxUint64
	}
	canon, err := json.Marshal(FeedRequest{Lines: lines, Instructions: math.MaxUint64})
	if err != nil {
		t.Fatal(err)
	}
	const limit = 24*budget + 4096
	pad := func(n int) string { return string(canon) + strings.Repeat(" ", n-len(canon)) }

	svc := New(Config{GlobalBudget: budget})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	tn, err := svc.Register("big", TenantConfig{Target: 1000, MaxQueued: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/tenants/big/feed"
	before := countersOf(svc, tn)
	code, body := postRaw(t, ts.Client(), url, pad(limit+1))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body one byte over the budget's bound: status %d, want 413 (%s)", code, body)
	}
	if got := countersOf(svc, tn); got != before {
		t.Errorf("413 changed the tenant or budget: %+v, was %+v", got, before)
	}
	if code, body := postRaw(t, ts.Client(), url, pad(limit)); code != http.StatusAccepted {
		t.Fatalf("body at the budget's bound: status %d, want 202 (%s)", code, body)
	}

	open := New(Config{GlobalBudget: -1})
	ts2 := httptest.NewServer(NewHandler(open))
	defer ts2.Close()
	tn2, err := open.Register("q", TenantConfig{Target: 1000, MaxQueued: 4 * budget})
	if err != nil {
		t.Fatal(err)
	}
	if code, body := postRaw(t, ts2.Client(), ts2.URL+"/tenants/q/feed", pad(limit+1)); code != http.StatusAccepted {
		t.Fatalf("no budget: body within max_queued's bound: status %d, want 202 (%s)", code, body)
	}
	if got := countersOf(open, tn2); got.Entries != budget || got.Batches != 1 {
		t.Errorf("no budget: tenant %+v, want %d entries in 1 batch", got, budget)
	}
}
