package service

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"sort"
	"strconv"

	"rapidmrc/internal/approx"
	"rapidmrc/internal/core"
	"rapidmrc/internal/partition"
	"rapidmrc/internal/sample"
)

// DefaultColors is the partition-advice domain when the request does not
// choose: the modeled platform's 16 page colors.
const DefaultColors = 16

// MaxAdviceColors bounds the colors query parameter: the allocator's
// work grows with the color count, so an unbounded request would let one
// caller burn arbitrary CPU. 1024 covers every plausible platform.
const MaxAdviceColors = 1024

// parseWait interprets the wait query parameter: empty and "0" poll the
// live curve, "1" flushes the ingest queue first. Anything else is a
// client error (it used to be silently treated as "0").
func parseWait(v string) (bool, error) {
	switch v {
	case "", "0":
		return false, nil
	case "1":
		return true, nil
	}
	return false, errors.New("service: wait must be 0 or 1")
}

// RegisterRequest is the POST /tenants body.
type RegisterRequest struct {
	ID           string `json:"id"`
	Target       int    `json:"target,omitempty"`
	NoCorrection bool   `json:"no_correction,omitempty"`
	MaxQueued    int    `json:"max_queued,omitempty"`
	EpochEntries int    `json:"epoch_entries,omitempty"`
	// ApproxThreshold > 0 enables the analytical serving tier for this
	// tenant at the given uncertainty threshold; zero or negative keeps
	// every serve a full simulation.
	ApproxThreshold float64 `json:"approx_threshold,omitempty"`
	// SamplingRate profiles this tenant through the SHARDS-sampled
	// engine at the given rate in (0, 1], with bands at 95% confidence;
	// zero profiles at full rate. Any other rate is rejected with a 400.
	SamplingRate float64 `json:"sampling_rate,omitempty"`
}

// FeedRequest is the POST /tenants/{id}/feed body: one batch of raw
// logged cache-line addresses plus the application's instruction
// progress over the batch.
type FeedRequest struct {
	Lines        []uint64 `json:"lines"`
	Instructions uint64   `json:"instructions"`
}

// FeedResponse acknowledges an accepted batch.
type FeedResponse struct {
	Accepted int `json:"accepted"`
}

// CurveResponse is the GET /tenants/{id}/curve body. MPKI round-trips
// float64 values exactly through JSON (shortest-representation
// encoding), so clients can assert byte-identity against in-process
// curves.
type CurveResponse struct {
	MPKI          []float64 `json:"mpki"`
	Entries       int       `json:"entries"`
	Instructions  uint64    `json:"instructions"`
	WarmupEntries int       `json:"warmup_entries"`
	AutoWarmup    bool      `json:"auto_warmup"`
	StackHitRate  float64   `json:"stack_hit_rate"`
	Converted     int       `json:"converted"`
	// Shift is the v-offset applied when the request asked for
	// transposition (transpose_at + measured query parameters).
	Shift float64 `json:"shift"`
	// Tier reports which path produced the curve ("analytical" or
	// "simulated"); TierReason explains a simulated serve; Estimator
	// names the analytical model behind an analytical one.
	Tier       string `json:"tier"`
	TierReason string `json:"tier_reason,omitempty"`
	Estimator  string `json:"estimator,omitempty"`
	// Uncertainty and Disagreement are the tiered policy's inputs for
	// this serve; CrossValError the tenant's last measured estimate-vs-
	// simulation error (mean absolute MPKI distance, -1 until measured).
	Uncertainty   float64 `json:"uncertainty"`
	Disagreement  float64 `json:"disagreement"`
	CrossValError float64 `json:"crossval_error"`
	// SamplingRate is the effective SHARDS rate behind this curve (absent
	// when the tenant profiles unsampled); BandLow/BandHigh the per-point
	// confidence band at sample.DefaultLevel (transposed together with
	// the curve when transpose_at applies), and EffSamples the effective
	// sample size behind it.
	SamplingRate float64   `json:"sampling_rate,omitempty"`
	BandLow      []float64 `json:"band_low,omitempty"`
	BandHigh     []float64 `json:"band_high,omitempty"`
	EffSamples   float64   `json:"eff_samples,omitempty"`
}

// AdviceResponse is the GET /advice body: a color allocation across the
// tenants whose curves are ready.
type AdviceResponse struct {
	Colors     int            `json:"colors"`
	Allocation map[string]int `json:"allocation"`
	// Skipped lists tenants without a computable curve (still warming).
	Skipped []string `json:"skipped,omitempty"`
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
	// Shed carries the typed admission details on 429s.
	Shed *shedJSON `json:"shed,omitempty"`
}

type shedJSON struct {
	Tenant  string `json:"tenant"`
	Entries int    `json:"entries"`
	Queued  int    `json:"queued"`
	Limit   int    `json:"limit"`
	Global  bool   `json:"global"`
}

// NewHandler returns the daemon's HTTP API over svc:
//
//	POST   /tenants              register a tenant (413 past 64 KiB)
//	GET    /tenants              list tenants with stats
//	DELETE /tenants/{id}         evict (discard queue, recycle engine)
//	POST   /tenants/{id}/feed    feed one reference batch (never blocks;
//	                             429 with typed shed detail on overload,
//	                             413 for a body past the tenant's bound)
//	GET    /tenants/{id}/curve   snapshot the curve (wait=1 flushes the
//	                             queue first; transpose_at=N&measured=F
//	                             applies the v-offset)
//	GET    /tenants/{id}/stats   one tenant's counters
//	GET    /advice               partition advice across ready tenants
//	GET    /metrics              Prometheus-style text metrics
//	GET    /healthz              liveness
func NewHandler(svc *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /tenants", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		body := http.MaxBytesReader(w, r.Body, maxRegisterBody)
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			writeDecodeError(w, err)
			return
		}
		_, err := svc.Register(req.ID, TenantConfig{
			Target:       req.Target,
			NoCorrection: req.NoCorrection,
			MaxQueued:    req.MaxQueued,
			EpochEntries: req.EpochEntries,
			Approx:       approx.PolicyConfig{Threshold: req.ApproxThreshold},
			Sampling:     sample.Config{Rate: req.SamplingRate},
		})
		if err != nil {
			writeServiceError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"id": req.ID})
	})
	mux.HandleFunc("GET /tenants", func(w http.ResponseWriter, r *http.Request) {
		ts := svc.Tenants()
		out := make([]TenantStats, len(ts))
		for i, t := range ts {
			out[i] = t.Stats()
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("DELETE /tenants/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := svc.Evict(r.PathValue("id")); err != nil {
			writeServiceError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /tenants/{id}/feed", func(w http.ResponseWriter, r *http.Request) {
		t, err := svc.Lookup(r.PathValue("id"))
		if err != nil {
			writeServiceError(w, err)
			return
		}
		s := feedScratches.Get().(*feedScratch)
		defer feedScratches.Put(s)
		req, err := decodeFeed(http.MaxBytesReader(w, r.Body, feedBodyLimit(t.cfg.MaxQueued, svc.cfg.GlobalBudget)), s)
		if err != nil {
			writeDecodeError(w, err)
			return
		}
		if err := t.Feed(req.Lines, req.Instructions); err != nil {
			writeServiceError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, FeedResponse{Accepted: len(req.Lines)})
	})
	mux.HandleFunc("GET /tenants/{id}/curve", func(w http.ResponseWriter, r *http.Request) {
		t, err := svc.Lookup(r.PathValue("id"))
		if err != nil {
			writeServiceError(w, err)
			return
		}
		q := r.URL.Query()
		wait, err := parseWait(q.Get("wait"))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		ep, err := t.Serve(wait)
		if err != nil {
			writeServiceError(w, err)
			return
		}
		resp := CurveResponse{
			MPKI:          append([]float64(nil), ep.Result.MRC.MPKI...),
			Entries:       ep.Entries,
			Instructions:  ep.Instructions,
			WarmupEntries: ep.Result.WarmupEntries,
			AutoWarmup:    ep.Result.AutoWarmup,
			StackHitRate:  ep.Result.StackHitRate,
			Converted:     ep.Converted,
			Tier:          ep.Tier.String(),
			TierReason:    ep.TierReason,
			Estimator:     ep.Estimator,
			Uncertainty:   ep.Uncertainty,
			Disagreement:  ep.Disagreement,
			CrossValError: t.crossValError(),
			SamplingRate:  ep.SamplingRate,
			BandLow:       append([]float64(nil), ep.BandLow...),
			BandHigh:      append([]float64(nil), ep.BandHigh...),
			EffSamples:    ep.EffSamples,
		}
		if at := q.Get("transpose_at"); at != "" {
			ref, err := strconv.Atoi(at)
			if err != nil || ref < 1 || ref > len(resp.MPKI) {
				writeError(w, http.StatusBadRequest,
					errors.New("service: transpose_at must be a color in [1, "+
						strconv.Itoa(len(resp.MPKI))+"]"))
				return
			}
			measured, err := strconv.ParseFloat(q.Get("measured"), 64)
			if err != nil {
				writeError(w, http.StatusBadRequest,
					errors.New("service: transpose_at requires measured=<mpki>"))
				return
			}
			// A v-offset target must be a physical miss rate: finite and
			// non-negative. NaN/Inf would poison every point of the served
			// curve, and a negative MPKI is meaningless.
			if math.IsNaN(measured) || math.IsInf(measured, 0) || measured < 0 {
				writeError(w, http.StatusBadRequest,
					errors.New("service: measured must be a finite MPKI >= 0"))
				return
			}
			m := core.MRC{MPKI: resp.MPKI}
			resp.Shift = m.Transpose(ref-1, measured)
			// The band brackets the curve, so the v-offset moves it too.
			sample.Bands{Low: resp.BandLow, High: resp.BandHigh}.Shift(resp.Shift)
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /tenants/{id}/stats", func(w http.ResponseWriter, r *http.Request) {
		t, err := svc.Lookup(r.PathValue("id"))
		if err != nil {
			writeServiceError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, t.Stats())
	})
	mux.HandleFunc("GET /advice", func(w http.ResponseWriter, r *http.Request) {
		colors := DefaultColors
		if c := r.URL.Query().Get("colors"); c != "" {
			n, err := strconv.Atoi(c)
			if err != nil || n < 1 || n > MaxAdviceColors {
				writeError(w, http.StatusBadRequest,
					errors.New("service: colors must be an integer in [1, "+
						strconv.Itoa(MaxAdviceColors)+"]"))
				return
			}
			colors = n
		}
		var ids []string
		var mrcs []*core.MRC
		var skipped []string
		for _, t := range svc.Tenants() {
			ep, err := t.Live()
			if err != nil {
				skipped = append(skipped, t.ID())
				continue
			}
			ids = append(ids, t.ID())
			mrcs = append(mrcs, ep.Result.MRC)
		}
		alloc := make(map[string]int, len(ids))
		if len(mrcs) > 0 {
			for i, n := range partition.ChooseN(mrcs, colors) {
				alloc[ids[i]] = n
			}
		}
		writeJSON(w, http.StatusOK, AdviceResponse{
			Colors: colors, Allocation: alloc, Skipped: skipped,
		})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeMetrics(w, svc)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	return mux
}

// writeServiceError maps the service's typed errors to status codes.
func writeServiceError(w http.ResponseWriter, err error) {
	var shed *ShedError
	switch {
	case errors.As(err, &shed):
		writeJSON(w, http.StatusTooManyRequests, errorResponse{
			Error: err.Error(),
			Shed: &shedJSON{
				Tenant:  shed.Tenant,
				Entries: shed.Entries,
				Queued:  shed.Queued,
				Limit:   shed.Limit,
				Global:  shed.Global,
			},
		})
	case errors.Is(err, ErrOverloaded):
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrUnknownTenant):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrTenantExists):
		writeError(w, http.StatusConflict, err)
	case errors.Is(err, ErrStreamClosed):
		writeError(w, http.StatusGone, err)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

// writeDecodeError maps a request-body failure: a 413 when the body
// overran its bound, a 400 for anything else.
func writeDecodeError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	writeError(w, http.StatusBadRequest, err)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	//lint:allow errdrop status already committed; an encode failure means the client went away
	enc.Encode(v)
}

// writeMetrics renders the Prometheus text exposition: service-level
// gauges plus one labeled series per tenant for fed entries, queue
// depth, sheds, and latest epoch latency.
func writeMetrics(w http.ResponseWriter, svc *Service) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	st := svc.Stats()
	b := make([]byte, 0, 1024)
	gauge := func(name string, v int64) {
		b = append(b, name...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, v, 10)
		b = append(b, '\n')
	}
	gauge("rapidmrc_tenants", int64(st.Tenants))
	gauge("rapidmrc_budget_total_entries", int64(st.BudgetTotal))
	gauge("rapidmrc_budget_remaining_entries", int64(st.BudgetRemaining))
	draining := int64(0)
	if st.Draining {
		draining = 1
	}
	gauge("rapidmrc_draining", draining)
	gauge("rapidmrc_pool_idle", int64(st.Pool.Idle))
	gauge("rapidmrc_pool_hits", int64(st.Pool.Hits))
	gauge("rapidmrc_pool_misses", int64(st.Pool.Misses))
	gauge("rapidmrc_pool_drops", int64(st.Pool.Drops))

	ts := svc.Tenants()
	stats := make([]TenantStats, len(ts))
	for i, t := range ts {
		stats[i] = t.Stats()
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].ID < stats[j].ID })
	series := func(name, id string, v int64) {
		b = append(b, name...)
		b = append(b, `{tenant="`...)
		b = append(b, id...)
		b = append(b, `"} `...)
		b = strconv.AppendInt(b, v, 10)
		b = append(b, '\n')
	}
	for _, s := range stats {
		series("rapidmrc_tenant_fed_entries", s.ID, int64(s.Entries))
		series("rapidmrc_tenant_queue_entries", s.ID,
			int64(s.QueuedEntries+s.InFlightEntries))
		series("rapidmrc_tenant_batches", s.ID, int64(s.Batches))
		series("rapidmrc_tenant_sheds", s.ID, int64(s.Sheds))
		series("rapidmrc_tenant_epochs", s.ID, int64(s.Epochs))
		series("rapidmrc_tenant_epoch_latency_nanos", s.ID, s.LastEpochNanos)
		// Analytical-tier series: last serving tier (1 = analytical),
		// decision counters, and the float signals scaled to milli-units
		// so the text exposition stays integer-only.
		tier := int64(0)
		if s.Tier == approx.TierAnalytical.String() {
			tier = 1
		}
		series("rapidmrc_tenant_tier_analytical", s.ID, tier)
		series("rapidmrc_tenant_approx_served", s.ID, int64(s.ApproxServed))
		series("rapidmrc_tenant_sim_served", s.ID, int64(s.SimServed))
		series("rapidmrc_tenant_escalations", s.ID, int64(s.Escalations))
		series("rapidmrc_tenant_phase_transitions", s.ID, int64(s.PhaseTransitions))
		series("rapidmrc_tenant_uncertainty_milli", s.ID, int64(s.Uncertainty*1000))
		series("rapidmrc_tenant_crossval_error_milli_mpki", s.ID,
			int64(s.CrossValError*1000))
		// Sampling series: the effective rate (milli-units; 0 = sampling
		// off, 1000 = exhaustive) and the mean confidence-band width of
		// the latest epoch.
		series("rapidmrc_tenant_sampling_rate_milli", s.ID, int64(s.SamplingRate*1000))
		series("rapidmrc_tenant_band_width_milli_mpki", s.ID, int64(s.BandWidthMPKI*1000))
	}
	//lint:allow errdrop scrape response; a short write means the client went away
	w.Write(b)
}
