package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzRegister drives POST /tenants bodies through NewHandler. Whatever
// the body, the handler must not panic and must answer 201 Created or a
// 4xx with a JSON error body; a rejected registration must leave the
// tenant count and the remaining global budget exactly as they were,
// and an accepted one adds one tenant without touching the budget.
func FuzzRegister(f *testing.F) {
	for _, body := range []string{
		`{"id":"a"}`,
		`{"id":"taken"}`,
		`{"id":""}`,
		`{}`,
		`not json`,
		`{"id":"a"} trailing`,
		// A workers field, which older clients may still send.
		`{"id":"a","workers":4}`,
		`{"id":"a","workers":-2}`,
		`{"id":"a","workers":1e40}`,
		// Sampling rates, valid and not.
		`{"id":"a","sampling_rate":0.1}`,
		`{"id":"a","sampling_rate":1}`,
		`{"id":"a","sampling_rate":-1}`,
		`{"id":"a","sampling_rate":1.5}`,
		`{"id":"a","sampling_rate":NaN}`,
		`{"id":"a","sampling_rate":"NaN"}`,
		`{"id":"a","sampling_rate":1e309}`,
		`{"id":"a","sampling_rate":5e-324}`,
		`{"id":"a","sampling_rate":0.5,"sampling_smax":-1}`,
		`{"id":"a","sampling_rate":0.5,"sampling_smax":9223372036854775807}`,
		`{"id":"a","sampling_rate":0.5,"sampling_level":0.5}`,
		`{"id":"a","sampling_level":0.99}`,
		// Negative and huge targets and queue sizes.
		`{"id":"a","target":-1}`,
		`{"id":"a","target":1}`,
		`{"id":"a","target":9223372036854775807}`,
		`{"id":"a","target":9223372036854775808}`,
		`{"id":"a","target":1e30}`,
		`{"id":"a","max_queued":-5}`,
		`{"id":"a","max_queued":9223372036854775807}`,
		`{"id":"a","epoch_entries":-1}`,
		`{"id":"a","epoch_entries":9223372036854775807}`,
		`{"id":"a","approx_threshold":0.35,"target":2}`,
		`{"id":"a","approx_threshold":-1,"no_correction":true}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		svc := New(Config{GlobalBudget: 4096})
		if _, err := svc.Register("taken", TenantConfig{}); err != nil {
			t.Fatal(err)
		}
		defer svc.Drain()
		h := NewHandler(svc)
		before := svc.Stats()

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tenants", bytes.NewReader(body)))

		after := svc.Stats()
		if after.BudgetRemaining != before.BudgetRemaining {
			t.Fatalf("%q: budget %d -> %d", body, before.BudgetRemaining, after.BudgetRemaining)
		}
		switch code := rec.Code; {
		case code == http.StatusCreated:
			if after.Tenants != before.Tenants+1 {
				t.Fatalf("%q: 201 but tenants %d -> %d", body, before.Tenants, after.Tenants)
			}
			var resp map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%q: 201 body %q: %v", body, rec.Body, err)
			}
			if _, err := svc.Lookup(resp["id"]); err != nil {
				t.Fatalf("%q: created tenant %q not registered: %v", body, resp["id"], err)
			}
		case code >= 400 && code < 500:
			if after.Tenants != before.Tenants {
				t.Fatalf("%q: %d but tenants %d -> %d", body, code, before.Tenants, after.Tenants)
			}
			if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("%q: %d with content type %q", body, code, ct)
			}
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("%q: %d body %q is not a JSON error (%v)", body, code, rec.Body, err)
			}
		default:
			t.Fatalf("%q: status %d, want 201 or 4xx", body, code)
		}
	})
}
