package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rapidmrc/internal/core"
	"rapidmrc/internal/sample"
	"rapidmrc/internal/service"
)

// The tiered tenants' configuration: SHARDS sampling at the rate the
// ext-sampling sweep picks, the analytical tier at its default
// threshold, and auto-epochs twice per 4-batch poll interval.
const (
	tierRate      = 0.1
	tierThreshold = 0.35
	tierEpoch     = 8192
	tierPollEvery = 4
	// tierBudget is ext-sampling's acceptance budget: the tiered curve's
	// mean absolute miss-ratio error against the exact oracle.
	tierBudget = 0.02
	// tenantQueue bounds each benchmark tenant's ingest queue at more than
	// one probing period, so a closed-loop producer is never shed.
	tenantQueue = 1 << 18
)

// tenantMode is how the benchmark registers its tenants.
type tenantMode struct {
	tiered    bool
	maxQueued int // 0 means tenantQueue
}

// feedSet is one probing period prepared for the daemon: the trace cut
// into pre-encoded FeedRequest bodies, and the oracle its curve is
// checked against.
type feedSet struct {
	cap       *capture
	bodies    [][]byte
	batchLens []int
	// oracle is core.Compute over the corrected trace; want is the exact
	// tenant's expected response, the oracle transposed at 16 colors to
	// the measured miss rate exactly as the handler does.
	oracle   []float64
	want     []float64
	measured string
	// calcCycles is the oracle's modeled compute cost.
	calcCycles uint64
	// mrScale converts MPKI to misses per reference for this trace.
	mrScale float64
	// pollFrom is the batch count after which the sampled engine has left
	// warmup, so a tiered tenant's curve can always be served.
	pollFrom int
}

func prepareFeed(c *capture, batch int, mode tenantMode, perturb bool) (*feedSet, error) {
	t := c.trace
	n := len(t.Lines)
	corrected := lineSlice(t)
	core.CorrectPrefetchRepetitions(corrected)
	res, err := core.Compute(corrected, t.Instructions, core.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("%s oracle: %w", c.app, err)
	}
	fs := &feedSet{
		cap:        c,
		oracle:     res.MRC.MPKI,
		measured:   strconv.FormatFloat(c.measured, 'g', -1, 64),
		calcCycles: res.ModelCycles,
		mrScale:    float64(t.Instructions) / (1000 * float64(n)),
	}
	want := core.MRC{MPKI: append([]float64(nil), fs.oracle...)}
	want.Transpose(len(want.MPKI)-1, c.measured)
	fs.want = want.MPKI
	if perturb {
		bumpULP(fs.want)
		bumpULP(fs.oracle)
	}
	// Instructions are split over the batches so they sum exactly to the
	// capture's total, which the oracle normalizes by.
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		instr := t.Instructions*uint64(hi)/uint64(n) - t.Instructions*uint64(lo)/uint64(n)
		body, err := json.Marshal(service.FeedRequest{Lines: t.Lines[lo:hi], Instructions: instr})
		if err != nil {
			return nil, err
		}
		fs.bodies = append(fs.bodies, body)
		fs.batchLens = append(fs.batchLens, hi-lo)
	}
	if mode.tiered {
		eng, err := sample.NewEngine(core.DefaultConfig(), sample.Config{Rate: tierRate}, n)
		if err != nil {
			return nil, err
		}
		fs.pollFrom = len(fs.bodies) + 1
		for b, lo := 0, 0; b < len(fs.batchLens); b++ {
			for _, l := range corrected[lo : lo+fs.batchLens[b]] {
				eng.Feed(l)
			}
			lo += fs.batchLens[b]
			if !eng.Warming() {
				fs.pollFrom = b + 1
				break
			}
		}
	}
	return fs, nil
}

// daemon is the mrcd handler on a loopback server, with the client the
// benchmark drives it through.
type daemon struct {
	svc    *service.Service
	srv    *httptest.Server
	tp     *http.Transport
	client *http.Client
	// tracer is the traced loop's tracer, nil while untraced; the handler
	// middleware reads it per request.
	tracer atomic.Pointer[tracer]
}

func startDaemon(clients int) *daemon {
	d := &daemon{svc: service.New(service.Config{GlobalBudget: -1})}
	h := service.NewHandler(d.svc)
	d.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if tr := d.tracer.Load(); tr != nil {
			tr.middleware(h).ServeHTTP(w, r)
			return
		}
		h.ServeHTTP(w, r)
	}))
	d.tp = &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	d.client = &http.Client{Transport: d.tp, Timeout: time.Minute}
	return d
}

// close stops the server, waiting for in-flight requests, then drains the
// service so every tenant worker has exited.
func (d *daemon) close() {
	d.srv.Close()
	d.tp.CloseIdleConnections()
	d.svc.Drain()
}

// call makes one request and accounts for it in lr. It returns the
// response body, the request's latency in ms and whether the status was
// the expected one.
func (d *daemon) call(tr *tracer, lr *loopResult, name, method, path string, body []byte, want int) ([]byte, float64, bool) {
	id := tr.beginRequest("client." + name)
	t0 := time.Now()
	out, status, err := d.do(id, method, path, body)
	lat := ms(time.Since(t0))
	tr.end(id)
	lr.attempted++
	if err != nil || status != want {
		lr.failed++
		if len(lr.failures) < 10 {
			lr.failures = append(lr.failures, fmt.Sprintf("%s %s: status %d, error %v", method, path, status, err))
		}
		return nil, lat, false
	}
	return out, lat, true
}

func (d *daemon) do(span int, method, path string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequest(method, d.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if span >= 0 {
		req.Header.Set(requestHeader, strconv.Itoa(span))
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return out, resp.StatusCode, err
}

// round is one closed-loop client round: register a tenant per set, feed
// every set one probing period batch by batch (interleaved across the
// client's tenants, each feed waiting for its 202), read each curve with
// wait=1, check it, and delete the tenants. It returns the final curves,
// nil where a read failed.
func (d *daemon) round(tr *tracer, lr *loopResult, sets []*feedSet, tag string, mode tenantMode) [][]float64 {
	ids := make([]string, len(sets))
	starts := make([]time.Time, len(sets))
	polled := make([]bool, len(sets))
	queue := mode.maxQueued
	if queue == 0 {
		queue = tenantQueue
	}
	for k, s := range sets {
		ids[k] = fmt.Sprintf("%s-t%d", tag, k)
		rr := service.RegisterRequest{ID: ids[k], Target: len(s.cap.trace.Lines), MaxQueued: queue}
		if mode.tiered {
			rr.SamplingRate, rr.ApproxThreshold, rr.EpochEntries = tierRate, tierThreshold, tierEpoch
		}
		body, err := json.Marshal(rr)
		if err != nil {
			lr.failures = append(lr.failures, err.Error())
			return make([][]float64, len(sets))
		}
		starts[k] = time.Now()
		d.call(tr, lr, "register", http.MethodPost, "/tenants", body, http.StatusCreated)
	}
	for b := range sets[0].bodies {
		for k, s := range sets {
			_, lat, ok := d.call(tr, lr, "feed", http.MethodPost, "/tenants/"+ids[k]+"/feed", s.bodies[b], http.StatusAccepted)
			lr.callMs = append(lr.callMs, lat)
			if ok {
				lr.refs += float64(s.batchLens[b])
			}
			if !mode.tiered || (b+1)%tierPollEvery != 0 || b+1 < s.pollFrom {
				continue
			}
			// The first poll flushes, so the tenant is past warmup
			// before any live (wait=0) poll can reach it.
			wait := "0"
			if !polled[k] {
				wait, polled[k] = "1", true
			}
			d.call(tr, lr, "poll", http.MethodGet, "/tenants/"+ids[k]+"/curve?wait="+wait, nil, http.StatusOK)
		}
	}
	curves := make([][]float64, len(sets))
	for k, s := range sets {
		q := "?wait=1"
		if !mode.tiered {
			q += "&transpose_at=16&measured=" + s.measured
		}
		body, _, ok := d.call(tr, lr, "curve", http.MethodGet, "/tenants/"+ids[k]+"/curve"+q, nil, http.StatusOK)
		if !ok {
			continue
		}
		lr.curveMs = append(lr.curveMs, ms(time.Since(starts[k])))
		var cr service.CurveResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			lr.failures = append(lr.failures, fmt.Sprintf("%s: decoding curve: %v", ids[k], err))
			continue
		}
		curves[k] = cr.MPKI
		if msg := checkCurve(s, cr.MPKI, mode); msg != "" {
			lr.failures = append(lr.failures, fmt.Sprintf("%s (%s): %s", ids[k], s.cap.app, msg))
		}
	}
	for k := range sets {
		d.call(tr, lr, "delete", http.MethodDelete, "/tenants/"+ids[k], nil, http.StatusNoContent)
	}
	return curves
}

// checkCurve compares a served curve with its oracle: bit for bit for an
// exact tenant; a tiered tenant's curve must be 16 finite, non-negative
// points (its error is checked over a whole round, by tierError).
func checkCurve(s *feedSet, got []float64, mode tenantMode) string {
	if !mode.tiered {
		if !sameBits(got, s.want) {
			return fmt.Sprintf("curve %v differs from the core.Compute oracle %v", got, s.want)
		}
		return ""
	}
	if len(got) != len(s.oracle) {
		return fmt.Sprintf("%d points, want %d", len(got), len(s.oracle))
	}
	for i, v := range got {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Sprintf("point %d is %v", i+1, v)
		}
	}
	return ""
}

// tierError checks tiered curves against the exact oracles: their mean
// miss-ratio error over the applications must stay within ext-sampling's
// budget, which is a mean over applications too. A single application
// may exceed it: jbb's final curve reached 0.024 in some rounds.
func tierError(sets []*feedSet, curves [][]float64) string {
	sum, n := 0.0, 0
	for k, c := range curves {
		if len(c) == len(sets[k].oracle) {
			sum += core.Distance(core.NewMRC(c), core.NewMRC(sets[k].oracle)) * sets[k].mrScale
			n++
		}
	}
	if n > 0 && sum/float64(n) > tierBudget {
		return fmt.Sprintf("mean miss-ratio error %.4f of %d tiered curves exceeds the %.2f budget", sum/float64(n), n, tierBudget)
	}
	return ""
}

// mrcdBench is mrcd_exact and mrcd_tiers: the daemon's feed path on a
// loopback server. Set-up captures one probing period per application
// and pre-encodes it, so the platform does no work in the timed loop.
// Each client owns every clients-th tenant and feeds it in a closed loop.
type mrcdBench struct {
	cfg   config
	sz    sizes
	mode  tenantMode
	sets  []*feedSet
	d     *daemon
	first [][]float64 // final curves of each set's first round
}

func newMrcd(cfg config, sz sizes, mode tenantMode) *mrcdBench {
	return &mrcdBench{cfg: cfg, sz: sz, mode: mode}
}

func (b *mrcdBench) setup(tr *tracer) error {
	for k, app := range feedApps[:b.sz.FeedApps] {
		c, err := captureApp(tr, -1, uint64(k), app, deriveSeed(b.cfg.seed, "mrcd", k), b.sz.CaptureWarm, b.sz.Entries)
		if err != nil {
			return err
		}
		fs, err := prepareFeed(c, b.sz.BatchLines, b.mode, b.cfg.perturbOracle)
		if err != nil {
			return err
		}
		b.sets = append(b.sets, fs)
	}
	b.d = startDaemon(b.sz.Clients)
	// One untimed round warms the server, the connections and the pool.
	b.d.round(nil, &loopResult{}, b.sets, "warm", b.mode)
	return nil
}

// clientSets is the sets client c owns.
func (b *mrcdBench) clientSets(c int) []*feedSet {
	var out []*feedSet
	for k := c; k < len(b.sets); k += b.sz.Clients {
		out = append(out, b.sets[k])
	}
	return out
}

// loop runs rounds in lock step: every client runs its round, and the
// next round starts when all have finished theirs. The clients' rounds
// carry the same work, so little time is lost waiting, and between
// rounds nothing of the workload runs while the reference task is timed.
func (b *mrcdBench) loop(tr *tracer, deadline time.Time, replay int) *loopResult {
	b.d.tracer.Store(tr)
	defer b.d.tracer.Store(nil)
	lr := &loopResult{}
	per := make([]*loopResult, b.sz.Clients)
	for c := range per {
		per[c] = &loopResult{}
	}
	start := time.Now()
	r := 0
	for ; keepGoing(r, replay, 1, start, deadline); r++ {
		curves := make([][]float64, len(b.sets)) // every tenant's final curve
		var wg sync.WaitGroup
		for c := range per {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				tag := fmt.Sprintf("c%d-r%d", c, r)
				if tr != nil {
					tag = "traced-" + tag
				}
				for i, curve := range b.d.round(tr, per[c], b.clientSets(c), tag, b.mode) {
					curves[c+i*b.sz.Clients] = curve
				}
			}(c)
		}
		wg.Wait()
		if b.mode.tiered {
			if msg := tierError(b.sets, curves); msg != "" {
				lr.failures = append(lr.failures, fmt.Sprintf("round %d: %s", r, msg))
			}
		}
		if r == 0 && tr == nil {
			b.first = curves
		}
		if tr == nil {
			lr.calibrate()
		}
	}
	lr.finish(start, r)
	for _, p := range per {
		lr.merge(p)
	}
	return lr
}

// finish reports the modeled cost of the traces the tenants were fed
// (their captures' log cycles and the exact oracles' calc cycles), the
// tiered curves' first-round error against the exact oracle (the §5.2.1
// distance), and hashes the oracle curves.
func (b *mrcdBench) finish(_ *tracer, _ *loopResult, res *result) ([]*capture, error) {
	d := newDigest()
	var caps []*capture
	errSum, logC, calcC := 0.0, 0.0, 0.0
	for k, s := range b.sets {
		d.add(s.want...)
		logC += float64(s.cap.trace.Cycles)
		calcC += float64(s.calcCycles)
		if len(caps) < b.sz.LayerTraces {
			caps = append(caps, s.cap)
		}
		if b.mode.tiered && b.first[k] != nil {
			errSum += core.Distance(core.NewMRC(b.first[k]), core.NewMRC(s.oracle))
		}
	}
	res.Digest = d.String()
	res.Model["model_log_mcycles"] = logC / 1e6
	res.Model["model_calc_mcycles"] = calcC / 1e6
	if b.mode.tiered {
		res.Model["tier_error_mpki"] = errSum / float64(len(b.sets))
	}
	return caps, nil
}

func (b *mrcdBench) layerMode() tenantMode { return b.mode }

func (b *mrcdBench) close() error {
	if b.d != nil {
		b.d.close()
	}
	b.d, b.sets = nil, nil
	return nil
}
