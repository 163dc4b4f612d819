package approx

import "strconv"

// Tier identifies which path produced a served curve.
type Tier uint8

const (
	// TierSimulated is the Mattson simulation (the streaming engine,
	// exact or spatially sampled).
	TierSimulated Tier = iota
	// TierAnalytical is the O(histogram) estimator fast path.
	TierAnalytical
)

// String implements fmt.Stringer; the values appear verbatim in the
// service's /curve and /metrics output.
func (t Tier) String() string {
	switch t {
	case TierSimulated:
		return "simulated"
	case TierAnalytical:
		return "analytical"
	}
	return "tier(" + strconv.Itoa(int(t)) + ")"
}

// Policy defaults.
const (
	// DefaultThreshold is the uncertainty above which serving escalates
	// to full simulation, calibrated on the workload zoo so flat and
	// gentle curves serve analytically while cliff-dominated ones
	// escalate (see experiments ext-tiers).
	DefaultThreshold = 0.35
	// DefaultDisagreement bounds the mean absolute miss-ratio difference
	// between the primary and secondary estimators, as a fraction of the
	// primary curve's height.
	DefaultDisagreement = 0.15
	// DefaultCooldown is how many escalated serves follow a phase-change
	// escalation before the analytical tier is retried.
	DefaultCooldown = 2
)

// PolicyConfig parameterizes the escalation state machine.
type PolicyConfig struct {
	// Threshold is the uncertainty score above which an estimate may not
	// be served; <= 0 disables the analytical tier entirely (every serve
	// simulates), which is the zero value's meaning.
	Threshold float64
}

// Enabled reports whether the analytical tier can ever serve.
func (c PolicyConfig) Enabled() bool { return c.Threshold > 0 }

// Decision is one serve-time verdict.
type Decision struct {
	// Tier is the path to serve from.
	Tier Tier
	// Reason explains a simulated decision: "disabled", "warming",
	// "uncertain", "disagreement", "phase-change", or "cooldown"; empty
	// for an analytical serve.
	Reason string
	// Uncertainty and Disagreement record the inputs the decision was
	// made on (0 when unavailable).
	Uncertainty  float64
	Disagreement float64
}

// PolicyStats counts a policy's decisions.
type PolicyStats struct {
	// Analytical and Simulated count serves by tier.
	Analytical, Simulated int
	// Escalations counts simulated decisions forced by a fresh signal
	// (uncertainty, disagreement, or phase change) — cooldown and
	// disabled serves are not escalations.
	Escalations int
}

// Policy is the escalation state machine: serve the analytical estimate
// while it is trustworthy, escalate to full simulation when the
// uncertainty score exceeds the threshold, the estimators disagree, or a
// phase change is detected — and after a phase change, keep simulating
// for a cooldown period before trusting the histogram again (the
// histogram spans the phase boundary, so estimates right after a
// transition blend two phases). A Policy is not safe for concurrent use;
// callers serialize serves.
type Policy struct {
	cfg      PolicyConfig
	cooldown int
	stats    PolicyStats
}

// NewPolicy returns a policy for cfg. The zero Threshold disables the
// analytical tier (every decision simulates).
func NewPolicy(cfg PolicyConfig) *Policy {
	return &Policy{cfg: cfg}
}

// Stats returns the decision counters so far.
func (p *Policy) Stats() PolicyStats { return p.stats }

// Decide returns the serving tier for one curve request. primary is the
// estimate that would be served; secondary (optional) provides the
// disagreement signal; phaseChange reports a phase transition since the
// last decision. The invariant the property tests pin: the decision is
// TierAnalytical only when primary exists, its Uncertainty is within the
// threshold, and the disagreement is within bounds.
func (p *Policy) Decide(primary, secondary *Estimate, phaseChange bool) Decision {
	d := Decision{Tier: TierSimulated}
	if primary != nil {
		d.Uncertainty = primary.Uncertainty
	}
	if primary != nil && secondary != nil {
		d.Disagreement = relDisagreement(primary, secondary)
	}
	switch {
	case !p.cfg.Enabled():
		d.Reason = "disabled"
	case primary == nil:
		d.Reason = "warming"
	case phaseChange:
		d.Reason = "phase-change"
		p.cooldown = DefaultCooldown
		p.stats.Escalations++
	case p.cooldown > 0:
		d.Reason = "cooldown"
		p.cooldown--
	case d.Uncertainty > p.cfg.Threshold:
		d.Reason = "uncertain"
		p.stats.Escalations++
	case secondary != nil && d.Disagreement > DefaultDisagreement:
		d.Reason = "disagreement"
		p.stats.Escalations++
	default:
		d.Tier = TierAnalytical
	}
	if d.Tier == TierAnalytical {
		p.stats.Analytical++
	} else {
		p.stats.Simulated++
	}
	return d
}

// Assess is the tier decision every surface shares: it estimates the
// sampler's reuse-time histogram with Che/Fagin — the primary, the curve
// an analytical decision serves — and, when that succeeds, with the
// fully-associative model, the secondary behind the disagreement signal,
// then asks pol for the verdict. A still-warming sampler yields neither
// estimate, and pol decides "warming" (or "disabled"). The estimators
// read the live histogram, not a copy; the sampler's WarmupEntries and
// AutoWarmup give the warmup description an analytical result reports.
func Assess(pol *Policy, s *Sampler, instructions uint64, phaseChange bool) (primary, secondary *Estimate, d Decision) {
	if !s.Warming() {
		prof := s.view()
		if e, err := (CheFagin{}).Estimate(prof, instructions); err == nil {
			primary = e
			if e2, err := (FullyAssociative{}).Estimate(prof, instructions); err == nil {
				secondary = e2
			}
		}
	}
	return primary, secondary, pol.Decide(primary, secondary, phaseChange)
}

// relDisagreement is the mean absolute miss-ratio difference between two
// estimates, relative to the primary curve's height — the scale-free
// cross-model consistency check.
func relDisagreement(a, b *Estimate) float64 {
	n := len(a.MissRatio)
	if n == 0 || len(b.MissRatio) != n {
		return 1
	}
	sum := 0.0
	for i := range a.MissRatio {
		d := a.MissRatio[i] - b.MissRatio[i]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	top := a.MissRatio[0]
	if top <= 0 {
		// A zero-height primary curve disagrees only if the secondary
		// has any mass at all.
		if sum > 0 {
			return 1
		}
		return 0
	}
	return sum / float64(n) / top
}
