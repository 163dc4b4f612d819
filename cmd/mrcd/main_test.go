package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"rapidmrc"
	"rapidmrc/internal/service"
)

// startDaemon boots a real daemon on an ephemeral port with a live
// SIGTERM handler, returning its base URL, the serve error channel, and
// a stop function that delivers a real SIGTERM and waits for the drain.
func startDaemon(t *testing.T, cfg config) (string, func() error) {
	t.Helper()
	cfg.addr = "127.0.0.1:0"
	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- d.serve(sigc, 30*time.Second) }()
	stopped := false
	stop := func() error {
		if stopped {
			return nil
		}
		stopped = true
		defer signal.Stop(sigc)
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			return err
		}
		select {
		case err := <-errc:
			return err
		case <-time.After(60 * time.Second):
			return fmt.Errorf("daemon did not drain after SIGTERM")
		}
	}
	t.Cleanup(func() { stop() })
	return "http://" + d.addr(), stop
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

func getJSON(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestDaemonSmoke is the end-to-end contract: three tenants fed over
// HTTP from captured probing periods produce curves byte-identical to
// the in-process System.Stream workflow, /metrics reports them, and a
// real SIGTERM drains cleanly.
func TestDaemonSmoke(t *testing.T) {
	base, stop := startDaemon(t, config{})
	client := &http.Client{}
	defer client.CloseIdleConnections()

	apps := rapidmrc.Apps()[:3]
	const entries = 6000
	type ref struct {
		curve *rapidmrc.Curve
		shift float64
		meas  float64
	}
	refs := make(map[string]ref, len(apps))
	for i, app := range apps {
		seed := int64(100 + i)
		mk := func() *rapidmrc.System {
			sys, err := rapidmrc.NewSystem(app,
				rapidmrc.WithSeed(seed), rapidmrc.WithTraceEntries(entries))
			if err != nil {
				t.Fatal(err)
			}
			sys.Run(200_000)
			return sys
		}
		// Reference: the fused in-process workflow (pooled exact engine,
		// transposed at the configured 16-color point).
		refSys := mk()
		curve, stats, err := refSys.Stream(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		// HTTP: an identically-seeded capture fed through the daemon.
		capSys := mk()
		trace := capSys.Capture()
		measured := capSys.MeasureMPKI(200_000)
		refs[app] = ref{curve: curve, shift: stats.Shift, meas: measured}

		if code, body := postJSON(t, client, base+"/tenants",
			service.RegisterRequest{ID: app, Target: entries}); code != http.StatusCreated {
			t.Fatalf("register %s: %d %s", app, code, body)
		}
		// Feed in a few batches, splitting the instruction progress.
		const parts = 4
		fedInstr := uint64(0)
		for p := 0; p < parts; p++ {
			lo, hi := p*len(trace.Lines)/parts, (p+1)*len(trace.Lines)/parts
			instr := trace.Instructions * uint64(hi-lo) / uint64(len(trace.Lines))
			if p == parts-1 {
				instr = trace.Instructions - fedInstr
			}
			fedInstr += instr
			code, body := postJSON(t, client, base+"/tenants/"+app+"/feed",
				service.FeedRequest{Lines: trace.Lines[lo:hi], Instructions: instr})
			if code != http.StatusAccepted {
				t.Fatalf("feed %s: %d %s", app, code, body)
			}
		}
	}

	for _, app := range apps {
		r := refs[app]
		q := url.Values{}
		q.Set("wait", "1")
		q.Set("transpose_at", "16")
		q.Set("measured", strconv.FormatFloat(r.meas, 'g', -1, 64))
		var cr service.CurveResponse
		if code := getJSON(t, client, base+"/tenants/"+app+"/curve?"+q.Encode(), &cr); code != http.StatusOK {
			t.Fatalf("curve %s: %d", app, code)
		}
		if !reflect.DeepEqual(r.curve.MPKI, cr.MPKI) {
			t.Errorf("%s: HTTP curve diverges from System.Stream:\nwant %v\ngot  %v",
				app, r.curve.MPKI, cr.MPKI)
		}
		if cr.Shift != r.shift {
			t.Errorf("%s: shift %v, want %v", app, cr.Shift, r.shift)
		}
	}

	// Metrics report every tenant's fed entries and an empty queue.
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if !strings.Contains(text, "rapidmrc_tenants 3") {
		t.Errorf("metrics missing tenant count:\n%s", text)
	}
	for _, app := range apps {
		if !strings.Contains(text, fmt.Sprintf("rapidmrc_tenant_fed_entries{tenant=%q} %d", app, entries)) {
			t.Errorf("metrics missing fed entries for %s", app)
		}
	}

	if err := stop(); err != nil && err != http.ErrServerClosed {
		t.Fatalf("drain: %v", err)
	}
	// After the drain the listener is closed.
	if _, err := client.Get(base + "/healthz"); err == nil {
		t.Error("daemon still serving after SIGTERM drain")
	}
}

// TestDaemonLoadSheds drives 64 concurrent tenants against a small
// admission budget: queues stay bounded (observed via /metrics), the
// overload path sheds with typed 429s, and after a SIGTERM drain the
// goroutine count returns to its pre-daemon baseline.
func TestDaemonLoadSheds(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const (
		tenants   = 64
		maxQueued = 512
		budget    = 4096
		batchLen  = 256
	)
	base, stop := startDaemon(t, config{globalBudget: budget, maxQueued: maxQueued})
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}

	for i := 0; i < tenants; i++ {
		code, body := postJSON(t, client, base+"/tenants",
			service.RegisterRequest{ID: fmt.Sprintf("w%02d", i), Target: 100_000})
		if code != http.StatusCreated {
			t.Fatalf("register %d: %d %s", i, code, body)
		}
	}

	// A batch larger than the per-tenant queue bound must shed with the
	// typed detail, deterministically.
	var er struct {
		Error string `json:"error"`
		Shed  *struct {
			Tenant string `json:"tenant"`
			Global bool   `json:"global"`
			Limit  int    `json:"limit"`
		} `json:"shed"`
	}
	big := make([]uint64, maxQueued+1)
	code, body := postJSON(t, client, base+"/tenants/w00/feed",
		service.FeedRequest{Lines: big, Instructions: 1})
	if code != http.StatusTooManyRequests {
		t.Fatalf("oversized batch: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &er); err != nil || er.Shed == nil || er.Shed.Tenant != "w00" {
		t.Fatalf("untyped shed response: %s", body)
	}

	// Concurrent producers hammer every tenant well past the global
	// budget; every response must be either accepted or a typed 429.
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted, shed := 0, 0
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := make([]uint64, batchLen)
			for i := range batch {
				batch[i] = uint64(1_000_000*w + i)
			}
			for round := 0; round < 16; round++ {
				for i := w; i < tenants; i += 8 {
					code, body := postJSON(t, client,
						fmt.Sprintf("%s/tenants/w%02d/feed", base, i),
						service.FeedRequest{Lines: batch, Instructions: 100})
					mu.Lock()
					switch code {
					case http.StatusAccepted:
						accepted++
					case http.StatusTooManyRequests:
						shed++
					default:
						t.Errorf("unexpected status %d: %s", code, body)
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if accepted == 0 {
		t.Error("no batches accepted under load")
	}
	t.Logf("load: %d accepted, %d shed", accepted, shed)

	// Queues stay bounded: every tenant's queue depth is within its
	// limit and the global budget never goes negative.
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	totalQueued := 0
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "rapidmrc_budget_remaining_entries "); ok {
			if n, _ := strconv.Atoi(v); n < 0 || n > budget {
				t.Errorf("budget remaining out of range: %s", line)
			}
		}
		if !strings.HasPrefix(line, "rapidmrc_tenant_queue_entries{") {
			continue
		}
		_, v, _ := strings.Cut(line, "} ")
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad metrics line %q", line)
		}
		if n > maxQueued {
			t.Errorf("queue past its bound: %s", line)
		}
		totalQueued += n
	}
	if totalQueued > budget {
		t.Errorf("total queued %d exceeds global budget %d", totalQueued, budget)
	}

	if err := stop(); err != nil && err != http.ErrServerClosed {
		t.Fatalf("drain: %v", err)
	}
	client.CloseIdleConnections()

	// Every tenant worker and server goroutine must be gone; allow the
	// runtime a moment to reap network pollers.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines did not return to baseline (%d > %d):\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestDaemonClosesStalledHeaders checks the server timeouts are set and
// enforced: a client that sends half a request header and stalls has
// its connection closed once ReadHeaderTimeout (shortened here) passes,
// instead of holding it open.
func TestDaemonClosesStalledHeaders(t *testing.T) {
	d, err := newDaemon(config{addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if d.srv.ReadHeaderTimeout != readHeaderTimeout || d.srv.ReadTimeout != readTimeout ||
		d.srv.IdleTimeout != idleTimeout {
		t.Errorf("server timeouts header %v read %v idle %v, want %v %v %v",
			d.srv.ReadHeaderTimeout, d.srv.ReadTimeout, d.srv.IdleTimeout,
			readHeaderTimeout, readTimeout, idleTimeout)
	}
	const short = 200 * time.Millisecond
	d.srv.ReadHeaderTimeout = short
	sigc := make(chan os.Signal, 1)
	errc := make(chan error, 1)
	go func() { errc <- d.serve(sigc, 10*time.Second) }()
	defer func() {
		sigc <- syscall.SIGTERM
		if err := <-errc; err != nil {
			t.Errorf("drain: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", d.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: mrcd\r\n"); err != nil {
		t.Fatal(err)
	}
	// The client-side deadline only bounds the test; the server must
	// close the connection well before it.
	const deadline = 20 * time.Second
	if err := conn.SetReadDeadline(time.Now().Add(deadline)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	out, err := io.ReadAll(conn)
	waited := time.Since(start)
	if err != nil {
		t.Fatalf("stalled connection not closed by the server after %v: %v", waited, err)
	}
	if waited < short/2 {
		t.Errorf("connection closed after %v, before the %v header timeout", waited, short)
	}
	if len(out) != 0 && !strings.Contains(string(out), "408") {
		t.Errorf("unexpected response to a stalled header: %q", out)
	}
}
