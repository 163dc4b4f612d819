// Package phase implements the online phase-transition detector of
// §5.2.2: the L2 miss rate (MPKI) of fixed-length instruction intervals
// is compared against the average of the previous w intervals; a
// transition is declared when they differ by more than a threshold, with
// a fractional hysteresis threshold marking the beginning/end of lengthy
// transitions.
//
// The paper uses the miss rate rather than IPC because it directly
// reflects cache behaviour, can be monitored for free with PMU counters,
// and — as Figure 2c shows — fires at the same execution points whatever
// the currently configured partition size.
package phase

import (
	"fmt"

	"rapidmrc/internal/core"
)

// Config holds the detector parameters; the paper's values are interval
// length 1 G instructions, w = 3, threshold 3 MPKI, start/end fraction
// 50 % (§5.2.2).
type Config struct {
	// Window is w, the number of past intervals averaged.
	Window int
	// ThresholdMPKI is the miss rate difference declaring a transition.
	ThresholdMPKI float64
	// HysteresisFrac scales the threshold for detecting the end of a
	// lengthy transition: the detector returns to stable when the
	// interval-to-interval change falls below HysteresisFrac×Threshold.
	HysteresisFrac float64
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{Window: 3, ThresholdMPKI: 3, HysteresisFrac: 0.5}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Window <= 0 {
		return fmt.Errorf("phase: window %d", c.Window)
	}
	if c.ThresholdMPKI <= 0 {
		return fmt.Errorf("phase: threshold %v", c.ThresholdMPKI)
	}
	if c.HysteresisFrac <= 0 || c.HysteresisFrac > 1 {
		return fmt.Errorf("phase: hysteresis fraction %v", c.HysteresisFrac)
	}
	return nil
}

// Detector consumes one MPKI sample per interval and reports transitions.
// The zero value is not usable; construct with New.
//
// Cold start is guarded: until the very first window has filled with
// mutually stable samples, a sample that jumps by more than the
// threshold restarts the fill instead of entering the baseline. The
// first interval after a probing period starts routinely carries an
// inflated miss rate (cold stack, warmup effects); without the guard
// that outlier sits in the baseline window and the first *stable*
// interval afterwards reads as a spurious phase change — which forced
// one needless escalation per tenant in the approx tier. A detector
// cannot report a transition before its first window fills either way,
// so the guard costs no detection capability.
type Detector struct {
	cfg          Config
	history      []float64
	last         float64
	haveLast     bool
	primed       bool // the first window filled with stable samples
	inTransition bool
	transitions  int
}

// New returns a detector. It panics on invalid configuration (parameters
// are static in this codebase).
func New(cfg Config) *Detector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Detector{cfg: cfg}
}

// Transitions returns the number of transitions detected so far.
func (d *Detector) Transitions() int { return d.transitions }

// InTransition reports whether the detector is inside a lengthy
// transition.
func (d *Detector) InTransition() bool { return d.inTransition }

// Observe consumes the MPKI of the next interval and reports whether a
// phase transition begins at this interval.
func (d *Detector) Observe(mpki float64) bool {
	defer func() {
		d.last = mpki
		d.haveLast = true
	}()

	if d.inTransition {
		// A lengthy transition ends when the miss rate stops moving.
		if d.haveLast && abs(mpki-d.last) < d.cfg.HysteresisFrac*d.cfg.ThresholdMPKI {
			d.inTransition = false
			d.history = append(d.history[:0], mpki)
		}
		return false
	}

	if len(d.history) < d.cfg.Window {
		if !d.primed && len(d.history) > 0 &&
			abs(mpki-d.history[len(d.history)-1]) > d.cfg.ThresholdMPKI {
			// Cold-start guard: a jump while the first window is still
			// filling is a startup transient, not a phase change — drop
			// the outlier prefix and restart the baseline here.
			d.history = append(d.history[:0], mpki)
			return false
		}
		d.history = append(d.history, mpki)
		if len(d.history) == d.cfg.Window {
			d.primed = true
		}
		return false
	}

	avg := 0.0
	for _, v := range d.history {
		avg += v
	}
	avg /= float64(len(d.history))

	if abs(mpki-avg) > d.cfg.ThresholdMPKI {
		d.transitions++
		d.inTransition = true
		d.history = d.history[:0]
		return true
	}

	// Stable: slide the window.
	copy(d.history, d.history[1:])
	d.history[len(d.history)-1] = mpki
	return false
}

// Reset returns the detector to its initial state.
func (d *Detector) Reset() {
	d.history = d.history[:0]
	d.haveLast = false
	d.primed = false
	d.inTransition = false
	d.transitions = 0
}

// Boundaries runs a detector over a whole MPKI timeline and returns the
// interval indices at which transitions begin — the phase boundary
// markers of Figures 2a and 2c.
func Boundaries(timeline []float64, cfg Config) []int {
	d := New(cfg)
	var out []int
	for i, v := range timeline {
		if d.Observe(v) {
			out = append(out, i)
		}
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Convergence watches the epoch snapshots a streaming MRC computation
// emits mid-capture and reports when the curve has stopped moving: the
// §5.2.1 distance between consecutive snapshots stays below a threshold
// for a number of consecutive epochs. The closed-loop controller uses it
// to end a probing period early — the streaming counterpart of the
// trace-log-length study of §5.2.3, which found most applications need
// far fewer entries than the fixed 160k budget.
type Convergence struct {
	epsMPKI float64
	need    int
	streak  int
	prev    *core.MRC
}

// NewConvergence returns a watcher declaring convergence after
// consecutive successive snapshots each within epsMPKI mean absolute
// distance of their predecessor. It panics on non-positive parameters
// (they are static in this codebase, like the Detector's).
func NewConvergence(epsMPKI float64, consecutive int) *Convergence {
	if epsMPKI <= 0 || consecutive <= 0 {
		panic(fmt.Sprintf("phase: convergence eps %v × %d epochs", epsMPKI, consecutive))
	}
	return &Convergence{epsMPKI: epsMPKI, need: consecutive}
}

// Observe consumes the next epoch's curve and reports whether the stream
// has converged. The curve is cloned; the caller may keep mutating it.
func (c *Convergence) Observe(curve *core.MRC) bool {
	if c.prev != nil && len(c.prev.MPKI) == len(curve.MPKI) &&
		core.Distance(c.prev, curve) <= c.epsMPKI {
		c.streak++
	} else {
		c.streak = 0
	}
	c.prev = curve.Clone()
	return c.streak >= c.need
}
