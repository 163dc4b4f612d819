package main

import (
	"fmt"
	"math"
	"time"

	"rapidmrc"
	"rapidmrc/internal/service"
)

// onlineBench is online_zoo: rapidmrc.Online in a closed loop with one
// caller, cycling through the whole application zoo with a fresh seed
// per probe. It is the paper's own path (capture → correct → stack →
// curve → transpose); the service layer is bypassed.
type onlineBench struct {
	cfg  config
	sz   sizes
	apps []string
	pool *service.EnginePool
	// outs holds every untimed-loop probe's result, so the traced loop
	// and the final check can compare the decomposition against it.
	outs []probeOut
	// caps keeps the traced loop's first traces for the layer replay.
	caps []*capture
}

// probeOut is what one probe produced.
type probeOut struct {
	mpki       []float64
	shift      float64
	logCycles  uint64
	calcCycles uint64
}

func newOnline(cfg config, sz sizes) *onlineBench {
	return &onlineBench{cfg: cfg, sz: sz, apps: rapidmrc.Apps()[:sz.ZooApps], pool: service.NewEnginePool(0)}
}

func (b *onlineBench) op(i int) (string, int64) {
	return b.apps[i%len(b.apps)], deriveSeed(b.cfg.seed, "online", i)
}

// setup is one untimed warm probe.
func (b *onlineBench) setup(*tracer) error {
	_, _, _, err := rapidmrc.Online(b.apps[0], rapidmrc.WithSeed(deriveSeed(b.cfg.seed, "online-warm", 0)),
		rapidmrc.WithTraceEntries(b.sz.Entries))
	return err
}

func (b *onlineBench) loop(tr *tracer, deadline time.Time, replay int) *loopResult {
	lr := &loopResult{}
	start := time.Now()
	n := 0
	for ; keepGoing(n, replay, len(b.apps), start, deadline); n++ {
		app, seed := b.op(n)
		if tr == nil {
			lr.calibrate()
		}
		t0 := time.Now()
		var out probeOut
		var entries int
		var err error
		if tr == nil {
			var curve *rapidmrc.Curve
			var st *rapidmrc.Stats
			var t *rapidmrc.Trace
			curve, st, t, err = rapidmrc.Online(app, rapidmrc.WithSeed(seed), rapidmrc.WithTraceEntries(b.sz.Entries))
			if err == nil {
				out = probeOut{mpki: curve.MPKI, shift: st.Shift, logCycles: t.Cycles, calcCycles: st.ComputeCycles}
				entries = len(t.Lines)
			}
		} else {
			var c *capture
			out, c, err = b.decompose(tr, n, app, seed)
			if err == nil {
				entries = len(c.trace.Lines)
				if len(b.caps) < b.sz.LayerTraces {
					b.caps = append(b.caps, c)
				}
			}
		}
		d := ms(time.Since(t0))
		lr.attempted++
		if tr == nil {
			b.outs = append(b.outs, out) // a failed probe keeps its slot empty
		}
		if err != nil {
			lr.failed++
			lr.failures = append(lr.failures, fmt.Sprintf("probe %d (%s): %v", n, app, err))
			continue
		}
		lr.curveMs = append(lr.curveMs, d)
		lr.callMs = append(lr.callMs, d)
		lr.refs += float64(entries)
		if tr != nil {
			if msg := sameProbe(b.outs[n], out); msg != "" {
				lr.failures = append(lr.failures, fmt.Sprintf("probe %d (%s): traced decomposition differs from Online: %s", n, app, msg))
			}
		}
	}
	lr.finish(start, n)
	return lr
}

// decompose replays Online as its public calls, one span per layer
// under an "online" root span.
func (b *onlineBench) decompose(tr *tracer, i int, app string, seed int64) (probeOut, *capture, error) {
	req := uint64(i)
	root := tr.begin("online", -1, req)
	defer tr.end(root)
	c, err := captureApp(tr, root, req, app, seed, onlineWarm, b.sz.Entries)
	if err != nil {
		return probeOut{}, nil, err
	}
	res, err := computeCore(tr, root, req, b.pool, c.trace)
	if err != nil {
		return probeOut{}, nil, err
	}
	id := tr.begin("facade.transpose", root, req)
	curve := &rapidmrc.Curve{MPKI: res.MRC.MPKI}
	shift := curve.Transpose(rapidmrc.Colors, c.measured)
	tr.end(id)
	return probeOut{mpki: curve.MPKI, shift: shift, logCycles: c.trace.Cycles, calcCycles: res.ModelCycles}, c, nil
}

// sameProbe compares two probes bit for bit; "" means identical.
func sameProbe(want, got probeOut) string {
	switch {
	case !sameBits(want.mpki, got.mpki):
		return "curve"
	case math.Float64bits(want.shift) != math.Float64bits(got.shift):
		return "shift"
	case want.logCycles != got.logCycles:
		return "log cycles"
	case want.calcCycles != got.calcCycles:
		return "calc cycles"
	}
	return ""
}

// finish checks the decomposition against Online on the first probe and
// reports the first pass's modeled cycles (Table 2 columns a and b).
func (b *onlineBench) finish(tr *tracer, lr *loopResult, res *result) ([]*capture, error) {
	if tr == nil {
		app, seed := b.op(0)
		out, _, err := b.decompose(nil, 0, app, seed)
		if err != nil {
			return nil, err
		}
		if msg := sameProbe(b.outs[0], out); msg != "" {
			res.Checks = append(res.Checks, fmt.Sprintf("probe 0 (%s): decomposition differs from Online: %s", app, msg))
		}
	}
	var logC, calcC float64
	d := newDigest()
	for _, o := range b.outs[:len(b.apps)] {
		logC += float64(o.logCycles)
		calcC += float64(o.calcCycles)
		d.add(o.mpki...)
		d.add(o.shift)
	}
	res.Model["model_log_mcycles"] = logC / 1e6
	res.Model["model_calc_mcycles"] = calcC / 1e6
	res.Digest = d.String()
	return b.caps, nil
}

func (b *onlineBench) layerMode() tenantMode { return tenantMode{} }

func (b *onlineBench) close() error { return nil }
