package main

import (
	"encoding/json"
	"fmt"

	"rapidmrc"
	"rapidmrc/internal/approx"
	"rapidmrc/internal/core"
	"rapidmrc/internal/cpu"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/platform"
	"rapidmrc/internal/sample"
	"rapidmrc/internal/service"
	"rapidmrc/internal/workload"
)

// layerTolerance is how closely the timed layers must add up to the
// operation they make up.
const layerTolerance = 0.10

// layerReplay pushes each of the workload's traces through every layer
// alone, with a span around each call: the reuse-distance engine, the
// facade's compute, the sampled engine, the analytical tier, reference
// generation and machine stepping, the service in process (decode →
// Tenant.Feed → Flush → Serve → encode) and the daemon over loopback
// HTTP. Every traced run does this, so each workload reports every
// per-layer metric over its own inputs. It returns check failures.
func layerReplay(tr *tracer, caps []*capture, mode tenantMode, sz sizes) ([]string, error) {
	var fails []string
	pool := service.NewEnginePool(0)
	svc := service.New(service.Config{GlobalBudget: -1})
	defer svc.Drain()
	var sets []*feedSet
	var served [][]float64
	for k, c := range caps {
		req := uint64(k)
		root := tr.begin("layers.core", -1, req)
		res, err := computeCore(tr, root, req, pool, c.trace)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		id := tr.begin("facade.compute", -1, req)
		curve, _, err := rapidmrc.NewEngine().Compute(c.trace)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if !sameBits(curve.MPKI, res.MRC.MPKI) {
			fails = append(fails, fmt.Sprintf("%s: facade Engine.Compute differs from the pooled core engine", c.app))
		}
		corrected := lineSlice(c.trace)
		core.CorrectPrefetchRepetitions(corrected)
		if err := replaySample(tr, req, corrected, c.trace.Instructions); err != nil {
			return nil, err
		}
		if err := replayApprox(tr, req, corrected, sz.BatchLines); err != nil {
			return nil, err
		}
		replayPlatform(tr, req, c, sz.StepRefs)

		fs, err := prepareFeed(c, sz.BatchLines, mode, false)
		if err != nil {
			return nil, err
		}
		sets = append(sets, fs)
		got, err := replayService(tr, req, svc, fs, mode)
		if err != nil {
			return nil, err
		}
		served = append(served, got)
		msg := "" // the service serves the raw curve; the handler's transposition is not in this path
		if mode.tiered {
			msg = checkCurve(fs, got, mode)
		} else if !sameBits(got, fs.oracle) {
			msg = "curve differs from the core.Compute oracle"
		}
		if msg != "" {
			fails = append(fails, fmt.Sprintf("%s: in-process service: %s", c.app, msg))
		}
	}
	countPool(tr, pool.Stats())
	countPool(tr, svc.Pool().Stats())

	d := startDaemon(1)
	d.tracer.Store(tr)
	lr := &loopResult{}
	curves := d.round(tr, lr, sets, "layers", mode)
	if mode.tiered {
		for _, c := range [][][]float64{served, curves} {
			if msg := tierError(sets, c); msg != "" {
				fails = append(fails, "layer replay: "+msg)
			}
		}
	}
	countPool(tr, d.svc.Pool().Stats())
	d.close()
	fails = append(fails, lr.failures...)
	if lr.failed > 0 {
		fails = append(fails, fmt.Sprintf("layer replay: %d of %d requests failed", lr.failed, lr.attempted))
	}
	return fails, nil
}

func countPool(tr *tracer, st service.PoolStats) {
	tr.add("pool.hits", float64(st.Hits))
	tr.add("pool.misses", float64(st.Misses))
}

// replaySample feeds a corrected trace through the SHARDS-sampled engine
// at the tiered tenants' rate.
func replaySample(tr *tracer, req uint64, lines []mem.Line, instr uint64) error {
	eng, err := sample.NewEngine(core.DefaultConfig(), sample.Config{Rate: tierRate}, len(lines))
	if err != nil {
		return err
	}
	id := tr.begin("sample.feed", -1, req)
	for _, l := range lines {
		eng.Feed(l)
	}
	tr.end(id)
	if _, err := eng.Snapshot(instr); err != nil {
		return err
	}
	tr.add("sample.refs", float64(len(lines)))
	tr.add("sample.kept", float64(eng.Sampled()))
	tr.add("sample.eff", eng.Bands().EffSamples)
	tr.add("sample.snapshots", 1)
	return nil
}

// replayApprox feeds a corrected trace through the analytical tier's
// reuse-time sampler batch by batch and, at every poll point past warmup,
// estimates the curve both ways and asks the serving policy to decide.
func replayApprox(tr *tracer, req uint64, lines []mem.Line, batch int) error {
	smp, err := approx.NewSampler(core.DefaultConfig(), len(lines))
	if err != nil {
		return err
	}
	pol := approx.NewPolicy(approx.PolicyConfig{Threshold: tierThreshold})
	instr := uint64(0)
	for b, lo := 0, 0; lo < len(lines); b, lo = b+1, lo+batch {
		hi := min(lo+batch, len(lines))
		id := tr.begin("approx.feed", -1, req)
		for _, l := range lines[lo:hi] {
			smp.Feed(l)
		}
		tr.end(id)
		instr += uint64(hi - lo) // the decision is scale-free; any instruction basis serves
		if (b+1)%tierPollEvery != 0 || smp.Warming() {
			continue
		}
		id = tr.begin("approx.estimate", -1, req)
		p := smp.Profile()
		primary, err := approx.CheFagin{}.Estimate(p, instr)
		var secondary *approx.Estimate
		if err == nil {
			secondary, err = approx.FullyAssociative{}.Estimate(p, instr)
		}
		if err != nil {
			tr.end(id)
			return err
		}
		pol.Decide(primary, secondary, false)
		tr.end(id)
	}
	st := pol.Stats()
	tr.add("approx.refs", float64(len(lines)))
	tr.add("approx.analytical", float64(st.Analytical))
	tr.add("approx.decisions", float64(st.Analytical+st.Simulated))
	tr.add("approx.escalations", float64(st.Escalations))
	return nil
}

// replayPlatform generates a stretch of the capture's reference stream,
// then steps a fresh machine through it, timing the two apart.
func replayPlatform(tr *tracer, req uint64, c *capture, n int) {
	app := workload.MustByName(c.app)
	refs := make([]mem.Ref, n)
	gen := workload.New(app, c.seed)
	id := tr.begin("workload.gen", -1, req)
	for got := 0; got < n; {
		got += mem.ReadBatch(gen, refs[got:])
	}
	tr.end(id)
	m := platform.NewMachine(workload.New(app, c.seed), platform.Options{Mode: cpu.Complex, L3Enabled: true, Seed: c.seed})
	id = tr.begin("platform.step", -1, req)
	m.StepRefs(refs)
	tr.end(id)
	tr.add("gen.refs", float64(n))
	tr.add("step.refs", float64(n))
}

// replayService runs one probing period through the service in process,
// as the daemon's handler would: decode each body, enqueue it, wait for
// the queue to drain, serve the curve and encode the response. It
// returns the served curve, raw as core.Compute computes it.
func replayService(tr *tracer, req uint64, svc *service.Service, fs *feedSet, mode tenantMode) ([]float64, error) {
	cfg := service.TenantConfig{Target: len(fs.cap.trace.Lines), MaxQueued: tenantQueue}
	if mode.tiered {
		cfg.EpochEntries = tierEpoch
		cfg.Approx = approx.PolicyConfig{Threshold: tierThreshold}
		cfg.Sampling = sample.Config{Rate: tierRate}
	}
	id := fmt.Sprintf("layers-%d", req)
	t, err := svc.Register(id, cfg)
	if err != nil {
		return nil, err
	}
	root := tr.begin("service.replay", -1, req)
	for _, body := range fs.bodies {
		var fr service.FeedRequest
		s := tr.begin("service.decode", root, req)
		err := json.Unmarshal(body, &fr)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("service.enqueue", root, req)
		err = t.Feed(fr.Lines, fr.Instructions)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		tr.add("service.refs", float64(len(fr.Lines)))
	}
	s := tr.begin("service.drain", root, req)
	t.Flush()
	tr.end(s)
	s = tr.begin("service.serve", root, req)
	ep, err := t.Serve(true)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("service.encode", root, req)
	_, err = json.Marshal(service.CurveResponse{MPKI: ep.Result.MRC.MPKI, Entries: ep.Entries, Tier: ep.Tier.String()})
	tr.end(s)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	tr.add("service.epochs", float64(t.Stats().Epochs))
	tr.add("service.periods", 1)
	if err := svc.Evict(id); err != nil {
		return nil, err
	}
	return ep.Result.MRC.MPKI, nil
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerMetrics fills the traced run's metrics from its spans and
// counters and returns the layer-sum check failures.
func perLayerMetrics(res *result, lr, traced *loopResult) []string {
	a := res.spans
	c := a.counters
	byName := make(map[string]metricDef, len(perLayer))
	for _, d := range perLayer {
		byName[d.name] = d
	}
	set := func(name string, v float64, samples int) { res.set(byName[name], v, samples) }
	meanOf := func(span string, scale float64) (float64, int) {
		_, n := a.total(span)
		return a.mean(span) / scale, n
	}
	perRef := func(span, counter string) (float64, int) {
		ns, n := a.total(span)
		return ratio(ns, c[counter]), n
	}
	for _, m := range []struct{ metric, span string }{
		{"platform.boot_ms", "platform.boot"},
		{"platform.warm_ms", "platform.warm"},
		{"platform.capture_ms", "platform.capture"},
		{"platform.measure_ms", "platform.measure"},
		{"service.drain_wait_ms", "service.drain"},
		{"facade.compute_ms", "facade.compute"},
	} {
		v, n := meanOf(m.span, 1e6)
		set(m.metric, v, n)
	}
	for _, m := range []struct{ metric, span string }{
		{"core.snapshot_us", "core.snapshot"},
		{"approx.estimate_us", "approx.estimate"},
		{"service.http_handler_us", "service.http.feed"},
		{"service.enqueue_us", "service.enqueue"},
		{"service.serve_us", "service.serve"},
		{"service.json_encode_us", "service.encode"},
	} {
		v, n := meanOf(m.span, 1e3)
		set(m.metric, v, n)
	}
	for _, m := range []struct{ metric, span, counter string }{
		{"platform.step_ns_per_ref", "platform.step", "step.refs"},
		{"workload.gen_ns_per_ref", "workload.gen", "gen.refs"},
		{"core.correct_ns_per_ref", "core.correct", "core.refs"},
		{"core.feed_ns_per_ref", "core.feed", "core.refs"},
		{"sample.feed_ns_per_ref", "sample.feed", "sample.refs"},
		{"approx.feed_ns_per_ref", "approx.feed", "approx.refs"},
		{"service.json_decode_ns_per_ref", "service.decode", "service.refs"},
	} {
		v, n := perRef(m.span, m.counter)
		set(m.metric, v, n)
	}
	captures := int(c["core.snapshots"])
	set("pmu.dropped_frac", ratio(c["pmu.dropped"], c["pmu.entries"]+c["pmu.dropped"]), int(c["pmu.entries"]))
	set("pmu.stale_frac", ratio(c["pmu.stale"], c["pmu.entries"]), int(c["pmu.entries"]))
	set("pmu.instr_per_entry", ratio(c["pmu.instr"], c["pmu.entries"]), int(c["pmu.entries"]))
	set("core.converted_frac", ratio(c["core.converted"], c["core.refs"]), int(c["core.refs"]))
	set("core.stack_hit_rate", ratio(c["core.stack_hit_rate"], c["core.snapshots"]), captures)
	set("core.warmup_frac", ratio(c["core.warmup_frac"], c["core.snapshots"]), captures)
	set("sample.kept_frac", ratio(c["sample.kept"], c["sample.refs"]), int(c["sample.refs"]))
	set("sample.eff_samples", ratio(c["sample.eff"], c["sample.snapshots"]), int(c["sample.snapshots"]))
	set("approx.served_frac", ratio(c["approx.analytical"], c["approx.decisions"]), int(c["approx.decisions"]))
	set("approx.escalations", c["approx.escalations"], int(c["approx.decisions"]))
	set("service.pool_hit_frac", ratio(c["pool.hits"], c["pool.hits"]+c["pool.misses"]), int(c["pool.hits"]+c["pool.misses"]))
	set("service.epochs_per_period", ratio(c["service.epochs"], c["service.periods"]), int(c["service.periods"]))

	// Transport is each feed's client time less its handler time.
	var transport float64
	feeds := 0
	for i, s := range a.spans {
		if s.Name != "client.feed" {
			continue
		}
		t := float64(s.dur())
		for _, ch := range a.children[i] {
			t -= float64(a.spans[ch].dur())
		}
		transport += t
		feeds++
	}
	set("service.transport_us", ratio(transport, float64(feeds))/1e3, feeds)
	set("trace_overhead_frac", ratio(float64(traced.wall-lr.wall), float64(lr.wall)), traced.attempted)

	var fails []string
	for _, root := range []string{"online", "service.replay"} {
		fails = append(fails, a.layerSum(root, layerTolerance)...)
	}
	return fails
}
