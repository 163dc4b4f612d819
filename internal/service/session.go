package service

import (
	"time"

	"rapidmrc/internal/approx"
	"rapidmrc/internal/core"
	"rapidmrc/internal/mem"
	"rapidmrc/internal/sample"
)

// ProfileError is Open's rejection of a profiling field: an invalid
// sampling configuration (Err is the *sample.RateError for a rate
// outside (0, 1]). The facade reports its own option errors for the
// same field with this type, so every surface fails the same way.
type ProfileError struct {
	// Field names the rejected TenantConfig field: "Sampling".
	Field string
	// Err is the cause; its message is the error's message.
	Err error
}

// Error implements error.
func (e *ProfileError) Error() string { return e.Err.Error() }

// Unwrap exposes the cause to errors.Is and errors.As.
func (e *ProfileError) Unwrap() error { return e.Err }

// Session is one profiling session — the single corrector → engine →
// tier path behind service tenants, the facade's streams and one-shot
// computations, and the dynamic controller's probes. It owns the
// optional streaming prefetch-repetition corrector, an engine drawn from
// the pool, the optional reuse-time sampler tap of the analytical tier,
// and that tier's policy. A Session is not safe for concurrent use.
type Session struct {
	pool    *EnginePool
	eng     *sample.Engine        // nil once closed
	sampled bool                  // sampling was requested: epochs carry bands
	rate    float64               // the engine's effective rate when sampled, else 0
	corr    *core.StreamCorrector // nil when correction is disabled
	sampler *approx.Sampler       // nil when the analytical tier is off
	policy  *approx.Policy        // nil when the analytical tier is off

	// Counters, still readable after Close.
	decision  approx.Decision // the last tiered serve's verdict
	crossVal  float64         // mean abs MPKI distance estimate<->simulated; -1 unmeasured
	epochs    int             // snapshots taken
	lastNanos int64           // the latest snapshot's compute latency
}

// Validate checks cfg's profiling fields the way Open does, without
// drawing an engine: a non-zero Sampling config that fails
// sample.Config.Validate (a rate outside (0, 1], say) fails with a
// *ProfileError. Callers that must reject a configuration before doing
// any work (the facade's constructors) call it; Open calls it first.
func (cfg TenantConfig) Validate() error {
	if cfg.Sampling != (sample.Config{}) {
		if err := cfg.Sampling.Validate(); err != nil {
			return &ProfileError{Field: "Sampling", Err: err}
		}
	}
	return nil
}

// Open starts a session for cfg's profiling fields — Engine, Target,
// NoCorrection, Sampling and Approx; the others are ignored. The engine
// is reset from the pool when a matching one is retained: exact for a
// zero Sampling config, SHARDS-sampled otherwise, and only a sampled
// session's epochs carry a sampling rate and bands. It fails with
// Validate's *ProfileError, or with the engine constructor's error for
// an invalid Engine config or Target.
func (p *EnginePool) Open(cfg TenantConfig) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng, err := p.get(cfg.Engine, cfg.Sampling, cfg.Target)
	if err != nil {
		return nil, err
	}
	s := &Session{pool: p, eng: eng, sampled: cfg.Sampling != (sample.Config{}), crossVal: -1}
	if s.sampled {
		// The engine quantizes the configured rate; record what it
		// applies, so the rate reads the same once the engine is gone.
		s.rate = eng.Rate()
	}
	if !cfg.NoCorrection {
		s.corr = new(core.StreamCorrector)
	}
	if cfg.Approx.Enabled() {
		// The engine constructor validated the config and target, so the
		// sampler cannot fail here.
		if smp, err := approx.NewSampler(cfg.Engine, cfg.Target); err == nil {
			s.sampler = smp
			s.policy = approx.NewPolicy(cfg.Approx)
		}
	}
	return s, nil
}

// Feed pushes one batch of raw logged cache-line addresses through the
// corrector into the engine — the feed path every profiled reference
// crosses. The analytical sampler taps the same corrected stream, so
// both tiers describe identical references. The session must be open.
//
//rapidmrc:hotpath
func (s *Session) Feed(lines []uint64) {
	eng, smp := s.eng, s.sampler
	if s.corr != nil {
		for _, l := range lines {
			c := s.corr.Feed(mem.Line(l))
			eng.Feed(c)
			if smp != nil {
				smp.Feed(c)
			}
		}
		return
	}
	for _, l := range lines {
		eng.Feed(mem.Line(l))
		if smp != nil {
			smp.Feed(mem.Line(l))
		}
	}
}

// Closed reports whether Close has recycled the engine.
func (s *Session) Closed() bool { return s.eng == nil }

// Consumed returns the number of references fed so far (0 once closed).
func (s *Session) Consumed() int {
	if s.eng == nil {
		return 0
	}
	return s.eng.Consumed()
}

// Warming reports whether the engine is still inside warmup, when
// snapshots fail. A closed session is not warming.
func (s *Session) Warming() bool { return s.eng != nil && s.eng.Warming() }

// converted counts prefetch-repetition rewrites so far.
func (s *Session) converted() int {
	if s.corr == nil {
		return 0
	}
	return s.corr.Converted()
}

// Snapshot computes a simulated epoch from everything fed so far;
// instructions is the application's progress over the fed references. A
// sampled session's epoch carries the confidence band. It fails with
// ErrStreamClosed once closed, or while warmup has consumed everything
// fed.
func (s *Session) Snapshot(instructions uint64) (*Epoch, error) {
	if s.eng == nil {
		return nil, ErrStreamClosed
	}
	//lint:allow determinism epoch-latency metric only; never feeds a curve
	start := time.Now()
	res, err := s.eng.Snapshot(instructions)
	if err != nil {
		return nil, err
	}
	//lint:allow determinism epoch-latency metric only; never feeds a curve
	s.lastNanos = int64(time.Since(start))
	s.epochs++
	ep := &Epoch{
		Entries:      s.eng.Consumed(),
		Instructions: instructions,
		Result:       res,
		Converted:    s.converted(),
	}
	if s.sampled {
		b := s.eng.Bands()
		ep.SamplingRate = b.Rate
		ep.BandLow = b.Low
		ep.BandHigh = b.High
		ep.EffSamples = b.EffSamples
	}
	return ep, nil
}

// Serve is the tiered read. With the analytical tier on it assesses the
// sampler's reuse-time profile (approx.Assess, O(buckets), no engine
// work) and serves the estimate as a TierAnalytical epoch when the
// policy trusts it; otherwise — uncertain, disagreeing, warming, or
// after phaseChange — it serves a fresh simulated snapshot carrying the
// decision, and banks the cross-validation error when an estimate
// existed, since both curves are in hand. With the tier off it is
// Snapshot, reported as a "disabled" decision.
func (s *Session) Serve(instructions uint64, phaseChange bool) (*Epoch, error) {
	if s.eng == nil {
		return nil, ErrStreamClosed
	}
	d := approx.Decision{Tier: approx.TierSimulated, Reason: "disabled"}
	var est *approx.Estimate
	if s.policy != nil {
		est, d = approx.Assess(s.policy, s.sampler, instructions, phaseChange)
		s.decision = d
		if d.Tier == approx.TierAnalytical {
			// The Result is synthesized (Hist nil, no stack statistics) but
			// carries the curve, normalization and warmup description a
			// simulated one would, so transposition and partition advice
			// work unchanged.
			return &Epoch{
				Entries:      s.eng.Consumed(),
				Instructions: instructions,
				Result: &core.Result{
					MRC:           est.MRC.Clone(),
					Recorded:      est.Recorded,
					Instructions:  est.InstrEff,
					WarmupEntries: s.sampler.WarmupEntries(),
					AutoWarmup:    s.sampler.AutoWarmup(),
				},
				Converted:    s.converted(),
				Tier:         approx.TierAnalytical,
				Estimator:    est.Estimator,
				Uncertainty:  d.Uncertainty,
				Disagreement: d.Disagreement,
			}, nil
		}
	}
	ep, err := s.Snapshot(instructions)
	if err != nil {
		return nil, err
	}
	if est != nil {
		s.crossVal = core.Distance(est.MRC, ep.Result.MRC)
	}
	ep.Tier = approx.TierSimulated
	ep.TierReason = d.Reason
	ep.Uncertainty = d.Uncertainty
	ep.Disagreement = d.Disagreement
	return ep, nil
}

// Close recycles the engine into the pool; later Snapshot and Serve
// calls fail with ErrStreamClosed, while the counters stay readable.
// Closing a closed session is a no-op.
func (s *Session) Close() {
	if s.eng == nil {
		return
	}
	s.pool.Put(s.eng)
	s.eng = nil
}
