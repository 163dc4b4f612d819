// Command mrcd serves RapidMRC as a long-running multi-tenant daemon: a
// JSON-over-HTTP front end on the tenant service core. Clients register
// tenants, feed captured reference batches, and poll live curves and
// partition advice while the daemon recycles engines through the shared
// pool and sheds load past its admission bounds instead of queueing
// unboundedly.
//
// Usage:
//
//	mrcd -addr :7712
//	mrcd -addr 127.0.0.1:0 -budget 1048576 -max-queued 65536 -epoch 8000
//	mrcd -approx-threshold 0.35   # serve analytical estimates, escalate when uncertain
//	mrcd -sampling-rate 0.1       # SHARDS-sample tenants by default; curves carry confidence bands
//
// API (see service.NewHandler for the full contract):
//
//	POST   /tenants              {"id":"a","target":160000}
//	POST   /tenants/{id}/feed    {"lines":[...],"instructions":12345}
//	GET    /tenants/{id}/curve?wait=1&transpose_at=16&measured=2.5
//	GET    /tenants/{id}/stats
//	GET    /advice?colors=16
//	GET    /metrics
//	DELETE /tenants/{id}
//
// On SIGTERM or SIGINT the daemon drains: registration and feeding stop,
// every queued batch is computed, workers exit and recycle their engines,
// and in-flight HTTP requests finish before the listener closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rapidmrc/internal/sample"
	"rapidmrc/internal/service"
)

// HTTP server timeouts, so a client that stalls cannot pin a connection
// and its goroutine forever. A feed body is at most a few MB (the
// service bounds it by the tenant's queue), so a minute to read one
// request is generous; responses get no write timeout because a curve
// poll with wait=1 legitimately waits for the queue to drain.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
)

// config carries the daemon's flag values.
type config struct {
	addr            string
	globalBudget    int
	maxQueued       int
	poolCap         int
	epochEntries    int
	approxThreshold float64
	samplingRate    float64
	drainTimeout    time.Duration
}

// validate rejects flag values the service would otherwise accept
// silently or choke on at the first registration: sampling rates
// outside (0, 1] (a *sample.RateError, the same typed error tenant
// registration returns) and non-finite thresholds.
func (c config) validate() error {
	if c.samplingRate != 0 {
		if err := (sample.Config{Rate: c.samplingRate}).Validate(); err != nil {
			return fmt.Errorf("mrcd: -sampling-rate: %w", err)
		}
	}
	if math.IsNaN(c.approxThreshold) || math.IsInf(c.approxThreshold, 0) {
		return fmt.Errorf("mrcd: -approx-threshold must be finite, got %v", c.approxThreshold)
	}
	return nil
}

// daemon couples the service core with its HTTP front end. It is built
// separately from main so tests can run a real daemon on an ephemeral
// port and deliver real signals.
type daemon struct {
	svc *service.Service
	srv *http.Server
	ln  net.Listener
}

// newDaemon builds the service and binds the listener (addr may be
// ":0"-style for an ephemeral port).
func newDaemon(cfg config) (*daemon, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	svc := service.New(service.Config{
		GlobalBudget:    cfg.globalBudget,
		MaxQueued:       cfg.maxQueued,
		PoolCapacity:    cfg.poolCap,
		EpochEntries:    cfg.epochEntries,
		ApproxThreshold: cfg.approxThreshold,
		SamplingRate:    cfg.samplingRate,
	})
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return nil, fmt.Errorf("mrcd: listen %s: %w", cfg.addr, err)
	}
	return &daemon{
		svc: svc,
		srv: &http.Server{
			Handler:           service.NewHandler(svc),
			ReadHeaderTimeout: readHeaderTimeout,
			ReadTimeout:       readTimeout,
			IdleTimeout:       idleTimeout,
		},
		ln: ln,
	}, nil
}

// addr returns the bound listen address (useful with ":0").
func (d *daemon) addr() string { return d.ln.Addr().String() }

// serve runs the HTTP server until a signal arrives, then drains: the
// service computes every queued batch and recycles every engine, and the
// server stops accepting and waits (up to timeout) for in-flight
// requests. The returned error is nil on a clean drain.
func (d *daemon) serve(sig <-chan os.Signal, timeout time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- d.srv.Serve(d.ln) }()
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		log.Printf("mrcd: %v: draining %d tenant(s)", s, d.svc.Stats().Tenants)
		d.svc.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		err := d.srv.Shutdown(ctx)
		<-errc // Serve has returned http.ErrServerClosed
		log.Printf("mrcd: drained")
		return err
	}
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.addr, "addr", ":7712", "listen address")
	flag.IntVar(&cfg.globalBudget, "budget", 0,
		"global admission budget in entries across all tenants (0 = default, negative = unbounded)")
	flag.IntVar(&cfg.maxQueued, "max-queued", 0,
		"default per-tenant ingest-queue bound in entries (0 = default)")
	flag.IntVar(&cfg.poolCap, "pool", 0, "idle engine pool capacity (0 = default)")
	flag.IntVar(&cfg.epochEntries, "epoch", 0,
		"default auto-snapshot cadence in entries (0 = snapshot on demand only)")
	flag.Float64Var(&cfg.approxThreshold, "approx-threshold", 0,
		"default analytical-tier uncertainty threshold for tenants that do not set their own (0 = analytical tier off)")
	flag.Float64Var(&cfg.samplingRate, "sampling-rate", 0,
		"default SHARDS sampling rate in (0, 1] for tenants that do not set their own (0 = sampling off; tenants opt out with a negative rate)")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second,
		"how long to wait for in-flight requests on shutdown")
	flag.Parse()

	d, err := newDaemon(cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("mrcd: listening on %s", d.addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	if err := d.serve(sigc, cfg.drainTimeout); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
}
