package policy

// IOCAStyle thresholds: the contention detector considers DDIO contended
// when the DDIO miss *ratio* (misses over hits+misses) sits above
// iocaHighRatio, and quiet below iocaLowRatio; the gap between the two
// plus the iocaPatience streak requirement form the hysteresis band that
// keeps the allocation from oscillating on a noisy boundary.
const (
	iocaHighRatio = 0.25
	iocaLowRatio  = 0.10
	iocaPatience  = 2
)

// IOCAStyle is a miss-rate-threshold contention detector with hysteresis
// in the style of IOCA (arXiv:2007.04552): instead of IAT's differential
// stability analysis it classifies each interval absolutely — DDIO miss
// ratio above a high-water mark for iocaPatience consecutive intervals
// means the I/O ways are contended (grow DDIO by one), below a low-water
// mark for as long means they are over-provisioned (shrink by one) — and
// holds otherwise. It only manages the DDIO/application boundary; tenant
// widths are never touched.
type IOCAStyle struct {
	hot  int       // consecutive contended intervals
	cold int       // consecutive quiet intervals
	snap iocaState // AppendSnapshot's scratch form
}

// NewIOCAStyle returns the IOCA-style contention-threshold policy.
func NewIOCAStyle() *IOCAStyle { return &IOCAStyle{} }

// Name implements Policy.
func (p *IOCAStyle) Name() string { return "ioca" }

// Reset implements Policy: the hysteresis streaks restart.
func (p *IOCAStyle) Reset() {
	p.hot = 0
	p.cold = 0
}

// Decide implements Policy.
func (p *IOCAStyle) Decide(s Sample) Actions {
	L := s.Limits

	total := s.DDIOHitPS + s.DDIOMissPS
	ratio := 0.0
	if total > 0 {
		ratio = s.DDIOMissPS / total
	}
	// The absolute rate gate keeps an idle NIC (tiny denominators make
	// the ratio meaningless) from reading as contended.
	pressing := s.DDIOMissPS > L.ThresholdMissLowPerSec
	switch {
	case pressing && ratio >= iocaHighRatio:
		p.hot++
		p.cold = 0
	case !pressing || ratio <= iocaLowRatio:
		p.cold++
		p.hot = 0
	default:
		// Inside the hysteresis band: both streaks stall, neither resets —
		// a single borderline interval must not erase accumulated evidence.
	}

	switch {
	case p.hot >= iocaPatience && !L.DisableDDIOAdjust && s.DDIOWays < L.DDIOWaysMax:
		target := s.DDIOWays + 1
		st := IODemand
		if target >= L.DDIOWaysMax {
			st = HighKeep
		}
		return Actions{State: st, DDIOWays: target,
			Desc: Desc{kind: descIOCAHot, n: target, ratio: ratio}}
	case p.cold >= iocaPatience && !L.DisableDDIOAdjust && s.DDIOWays > L.DDIOWaysMin:
		target := s.DDIOWays - 1
		st := Reclaim
		if target <= L.DDIOWaysMin {
			st = LowKeep
		}
		return Actions{State: st, DDIOWays: target,
			Desc: Desc{kind: descIOCACold, n: target, ratio: ratio}}
	default:
		return Actions{Stable: true, State: s.State, DDIOWays: s.DDIOWays, Desc: desc(descStable, 0)}
	}
}
