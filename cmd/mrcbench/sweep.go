package main

import (
	"fmt"
	"math"
	"time"

	"rapidmrc"
	"rapidmrc/internal/core"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/platform"
	"rapidmrc/internal/workload"
)

// sweepBench is realmrc_sweep: the offline ground truth, one 16-size
// shared-stream real-MRC sweep per operation over the feed applications
// with a fresh seed per sweep. It exercises platform, cache and prefetch
// only — no reuse-distance engine, no service — so it is the workload on
// which a core or service change should change nothing.
type sweepBench struct {
	cfg     config
	sz      sizes
	apps    []string
	workers int
	outs    []sweepOut
}

type sweepOut struct {
	app  string
	seed int64
	mpki []float64
}

func newSweep(cfg config, sz sizes) *sweepBench {
	return &sweepBench{cfg: cfg, sz: sz, apps: feedApps[:sz.FeedApps], workers: sz.Clients}
}

func (b *sweepBench) op(i int) (string, int64) {
	return b.apps[i%len(b.apps)], deriveSeed(b.cfg.seed, "sweep", i)
}

func (b *sweepBench) realCfg(seed int64) platform.RealMRCConfig {
	rc := platform.DefaultRealMRCConfig()
	rc.Seed = seed
	rc.Workers = b.workers
	rc.SkipInstructions = b.sz.SweepSkip
	rc.SliceInstructions = b.sz.SweepSlice
	return rc
}

// setup is one untimed sweep of the first application.
func (b *sweepBench) setup(*tracer) error {
	platform.RealMRC(workload.MustByName(b.apps[0]), b.realCfg(deriveSeed(b.cfg.seed, "sweep-warm", 0)))
	return nil
}

func (b *sweepBench) loop(tr *tracer, deadline time.Time, replay int) *loopResult {
	lr := &loopResult{}
	start := time.Now()
	n := 0
	for ; keepGoing(n, replay, len(b.apps), start, deadline); n++ {
		app, seed := b.op(n)
		if tr == nil {
			lr.calibrate()
		}
		t0 := time.Now()
		id := tr.begin("platform.sweep", -1, uint64(n))
		mpki := platform.RealMRC(workload.MustByName(app), b.realCfg(seed))
		tr.end(id)
		d := ms(time.Since(t0))
		lr.attempted++
		lr.curveMs = append(lr.curveMs, d)
		lr.callMs = append(lr.callMs, d)
		if msg := validCurve(mpki); msg != "" {
			lr.failed++
			lr.failures = append(lr.failures, fmt.Sprintf("sweep %d (%s): %s", n, app, msg))
		}
		if tr == nil {
			b.outs = append(b.outs, sweepOut{app: app, seed: seed, mpki: mpki})
		} else if !sameBits(mpki, b.outs[n].mpki) {
			lr.failures = append(lr.failures, fmt.Sprintf("sweep %d (%s): traced sweep differs from untraced", n, app))
		}
	}
	lr.finish(start, n)
	return lr
}

// validCurve reports a sweep result that is not 16 finite, non-negative
// points.
func validCurve(c []float64) string {
	if len(c) != rapidmrc.Colors {
		return fmt.Sprintf("%d points, want %d", len(c), rapidmrc.Colors)
	}
	for i, v := range c {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Sprintf("point %d is %v", i+1, v)
		}
	}
	return ""
}

// finish counts the references the timed sweeps replayed, checks the
// shared sweep against the per-machine reference on the first operation,
// and measures RapidMRC's accuracy against the first pass's real curves,
// and its modeled cost: System.Capture → Engine.Compute at the slice's
// execution point, anchored at the real curve's 8-color point as
// experiments.EvalApp does.
func (b *sweepBench) finish(tr *tracer, lr *loopResult, res *result) ([]*capture, error) {
	if tr == nil {
		for _, o := range b.outs {
			lr.refs += float64(sweepRefs(workload.MustByName(o.app), o.seed, b.sz.SweepSkip, b.sz.SweepSlice))
		}
		first := b.outs[0]
		per := platform.RealMRCPerMachine(workload.MustByName(first.app), b.realCfg(first.seed))
		if b.cfg.perturbOracle {
			bumpULP(per)
		}
		if !sameBits(per, first.mpki) {
			res.Checks = append(res.Checks, fmt.Sprintf("sweep 0 (%s): shared-stream sweep %v differs from per-machine %v", first.app, first.mpki, per))
		}
	}
	var caps []*capture
	d := newDigest()
	errSum, logC, calcC := 0.0, 0.0, 0.0
	for i, o := range b.outs[:len(b.apps)] {
		c, err := captureApp(tr, -1, uint64(i), o.app, o.seed, b.sz.SweepSkip, b.sz.Entries)
		if err != nil {
			return nil, err
		}
		curve, st, err := rapidmrc.NewEngine().Compute(c.trace)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.app, err)
		}
		curve.Transpose(8, o.mpki[7])
		errSum += core.Distance(core.NewMRC(curve.MPKI), core.NewMRC(o.mpki))
		logC += float64(c.trace.Cycles)
		calcC += float64(st.ComputeCycles)
		d.add(o.mpki...)
		if len(caps) < b.sz.LayerTraces {
			caps = append(caps, c)
		}
	}
	res.Model["real_error_mpki"] = errSum / float64(len(b.apps))
	res.Model["model_log_mcycles"] = logC / 1e6
	res.Model["model_calc_mcycles"] = calcC / 1e6
	res.Digest = d.String()
	return caps, nil
}

// sweepRefs counts the references a sweep replays: the same stopping rule
// as the sweep's own, stepping until the instruction count reaches the
// skip point and then the end of the slice.
func sweepRefs(app workload.Config, seed int64, skip, slice uint64) int {
	gen := workload.New(app, seed)
	buf := make([]mem.Ref, 4096)
	pos, n, refs := 0, 0, 0
	var instr uint64
	runUntil := func(target uint64) {
		for instr < target {
			if pos == n {
				n, pos = mem.ReadBatch(gen, buf), 0
			}
			instr += uint64(buf[pos].Gap) + 1
			pos++
			refs++
		}
	}
	runUntil(skip)
	runUntil(instr + slice)
	return refs
}

func (b *sweepBench) layerMode() tenantMode { return tenantMode{} }

func (b *sweepBench) close() error { return nil }
