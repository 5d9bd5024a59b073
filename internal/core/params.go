// Package core implements IAT, the paper's contribution: the first I/O-aware
// last-level-cache management mechanism. IAT runs as a daemon that
// periodically polls hardware performance counters (per-tenant IPC, LLC
// references/misses; chip-wide DDIO hits/misses), classifies the system
// state with a Mealy finite state machine (Low Keep / High Keep / I/O Demand
// / Core Demand / Reclaim), and re-allocates LLC ways between DDIO and the
// tenants — including shuffling which best-effort tenant shares ways with
// DDIO — to mitigate the Leaky DMA and Latent Contender problems.
//
// The daemon is hardware-agnostic: everything it observes or programs goes
// through the System interface, implemented over the simulated platform in
// this repository (internal/bridge) and implementable over real MSRs with
// the same code.
package core

import (
	"fmt"
	"math"
)

// Params are the IAT tuning parameters of Table II of the paper, expressed
// as rates so the polling interval is an independent knob.
type Params struct {
	// ThresholdStable is the relative per-event delta below which the
	// system is considered unchanged (3% in the paper).
	ThresholdStable float64
	// ThresholdMissLowPerSec is the DDIO write-allocate rate above which
	// the I/O is considered to be pressing the LLC (1M/s in the paper).
	ThresholdMissLowPerSec float64
	// DDIOWaysMin / DDIOWaysMax bound the DDIO way allocation (1 and 6).
	DDIOWaysMin int
	DDIOWaysMax int
	// IntervalNS is the sleep interval between iterations (1s in the
	// paper; simulations may shorten it — the thresholds are rates, so
	// behaviour is interval-independent).
	IntervalNS float64
	// Growth selects the re-allocation increment policy (Sec. IV-D:
	// "miss-curve-based increment like UCP can also be explored").
	Growth GrowthPolicy
	// SaneRateMax is the per-group/DDIO event rate (per second) above
	// which a sample is rejected as a counter glitch (1e12 by default —
	// beyond any LLC; a compressed platform divides it by its scale).
	SaneRateMax float64
}

// The daemon's fixed robustness and shuffling constants. A production
// daemon polls counters and programs MSRs that can glitch, so every
// sample is sanity-checked and every write verified (see Daemon.Health).
const (
	// saneIPCMax is the per-group IPC above which a sample is rejected as
	// a counter glitch (no real core sustains it).
	saneIPCMax = 16.0
	// writeRetries is how many times a failed or mis-read-back mask write
	// is retried within one iteration before counting as a failure.
	writeRetries = 2
	// degradeAfter is the number of consecutive bad iterations (rejected
	// samples or write failures) after which the daemon falls back to a
	// safe static allocation.
	degradeAfter = 3
	// rearmAfter is the number of consecutive sane samples required
	// before a degraded daemon re-arms its FSM. Repeated degradations
	// double the requirement, capped at 8x; backoffResetFactor x
	// rearmAfter consecutive clean iterations after a re-arm reset the
	// backoff to the base requirement.
	rearmAfter = 2
	// shuffleMargin is the hysteresis on best-effort re-ordering: the
	// DDIO-sharing tenant is replaced only when the challenger's LLC
	// reference rate is below margin times the incumbent's.
	shuffleMargin = 0.9
)

// safeDDIOWays is the static DDIO way count of the degraded fallback:
// two ways, the hardware default, clamped into [DDIOWaysMin, DDIOWaysMax].
func (p Params) safeDDIOWays() int {
	return min(max(2, p.DDIOWaysMin), p.DDIOWaysMax)
}

// GrowthPolicy is the re-allocation increment strategy.
type GrowthPolicy int

// Growth policies.
const (
	// GrowOneWay grants exactly one way per iteration (the paper's
	// default).
	GrowOneWay GrowthPolicy = iota
	// GrowUCP grants 1-3 ways per iteration scaled by how far the DDIO
	// miss rate sits above THRESHOLD_MISS_LOW — a utility-style
	// increment in the spirit of UCP, converging faster under heavy
	// pressure at the cost of occasional overshoot.
	GrowUCP
)

// String implements fmt.Stringer.
func (g GrowthPolicy) String() string {
	switch g {
	case GrowOneWay:
		return "one-way"
	case GrowUCP:
		return "ucp"
	}
	return fmt.Sprintf("GrowthPolicy(%d)", int(g))
}

// DefaultParams returns Table II and the default sanity rate ceiling.
func DefaultParams() Params {
	return Params{
		ThresholdStable:        0.03,
		ThresholdMissLowPerSec: 1e6,
		DDIOWaysMin:            1,
		DDIOWaysMax:            6,
		IntervalNS:             1e9,
		SaneRateMax:            1e12,
	}
}

// Validate checks parameter sanity against an LLC with nWays ways. Every
// float must be finite: a NaN fails every comparison, so a range check
// such as IntervalNS <= 0 alone lets it through.
func (p Params) Validate(nWays int) error {
	if !finite(p.ThresholdStable) || p.ThresholdStable <= 0 || p.ThresholdStable >= 1 {
		return fmt.Errorf("core: ThresholdStable %v out of (0,1)", p.ThresholdStable)
	}
	if !finite(p.ThresholdMissLowPerSec) {
		return fmt.Errorf("core: ThresholdMissLowPerSec %v must be finite", p.ThresholdMissLowPerSec)
	}
	if p.DDIOWaysMin < 1 || p.DDIOWaysMax < p.DDIOWaysMin || p.DDIOWaysMax > nWays {
		return fmt.Errorf("core: DDIO way bounds [%d,%d] invalid for %d ways",
			p.DDIOWaysMin, p.DDIOWaysMax, nWays)
	}
	if !finite(p.IntervalNS) || p.IntervalNS <= 0 {
		return fmt.Errorf("core: IntervalNS %v must be finite and positive", p.IntervalNS)
	}
	if !finite(p.SaneRateMax) || p.SaneRateMax <= 0 {
		return fmt.Errorf("core: SaneRateMax %v must be finite and positive", p.SaneRateMax)
	}
	return nil
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Options are the experiment isolation switches the paper's evaluation
// flips (footnotes 3 and 4, and Sec. VI-C's "temporarily disable ...").
type Options struct {
	// DisableDDIOAdjust stops IAT from changing the DDIO way count (the
	// Latent Contender experiment isolates shuffling this way).
	DisableDDIOAdjust bool
	// DisableShuffle stops best-effort tenants from being re-ordered
	// against DDIO (the Core-only comparison point).
	DisableShuffle bool
	// DisableTenantAdjust stops IAT from growing/shrinking tenant
	// allocations (the application study isolates DDIO sizing +
	// shuffling this way).
	DisableTenantAdjust bool
}
