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
//	mrcd -addr 127.0.0.1:0 -budget 1048576 -max-queued 65536
//
// A tenant chooses its tiers when it registers: epoch_entries sets the
// auto-snapshot cadence, approx_threshold serves analytical estimates
// and escalates when uncertain, and sampling_rate SHARDS-samples the
// tenant so its curves carry confidence bands.
//
// API (see service.NewHandler for the full contract):
//
//	POST   /tenants              {"id":"a","target":160000}
//	POST   /tenants              {"id":"b","epoch_entries":8000,"approx_threshold":0.35,"sampling_rate":0.1}
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
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

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
	addr         string
	globalBudget int
	maxQueued    int
	poolCap      int
	drainTimeout time.Duration
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
	svc := service.New(service.Config{
		GlobalBudget: cfg.globalBudget,
		MaxQueued:    cfg.maxQueued,
		PoolCapacity: cfg.poolCap,
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
