package policy

// Greedy is the deliberately naive comparison point: every interval it
// finds the single largest demander — DDIO by write-allocate miss rate, or
// a tenant group by LLC miss rate — and grants it one way, with no
// stability analysis, no hysteresis, and no reclaim. It demonstrates what
// the IAT FSM's damping actually buys: under shifting load Greedy ratchets
// allocations up until everything saturates and then can only hold.
type Greedy struct{}

// NewGreedy returns the grant-the-largest-demander policy.
func NewGreedy() *Greedy { return &Greedy{} }

// Name implements Policy.
func (p *Greedy) Name() string { return "greedy" }

// Reset implements Policy (memoryless).
func (p *Greedy) Reset() {}

// Decide implements Policy.
func (p *Greedy) Decide(s Sample) Actions {
	L := s.Limits

	// The demand floor reuses detect()'s reference-rate noise floor so an
	// idle system reads as having no demander at all.
	floor := L.ThresholdMissLowPerSec / 10
	const (
		demandNone = iota
		demandDDIO
		demandGroup
	)
	kind := demandNone
	bestRate := floor
	var bestG *GroupView
	// DDIO is considered first, so it wins exact ties; groups tie-break
	// in registration order (strict > keeps the earlier winner).
	if s.DDIOMissPS > bestRate {
		kind = demandDDIO
		bestRate = s.DDIOMissPS
	}
	for i := range s.Groups {
		g := &s.Groups[i]
		if g.MissPS > bestRate {
			kind = demandGroup
			bestG = g
			bestRate = g.MissPS
		}
	}

	switch kind {
	case demandDDIO:
		if !L.DisableDDIOAdjust && s.DDIOWays < L.DDIOWaysMax {
			target := s.DDIOWays + 1
			st := IODemand
			if target >= L.DDIOWaysMax {
				st = HighKeep
			}
			return Actions{State: st, DDIOWays: target, Desc: desc(descGreedyDDIO, target)}
		}
		return Actions{State: HighKeep, DDIOWays: s.DDIOWays, Desc: desc(descGreedyDDIOFull, 0)}
	case demandGroup:
		if !L.DisableTenantAdjust && s.totalWidth()+1 <= s.NumWays {
			return Actions{State: CoreDemand, DDIOWays: s.DDIOWays,
				Grow: Ref(bestG.CLOS), Desc: desc(descGreedyGrow, bestG.CLOS)}
		}
		return Actions{State: HighKeep, DDIOWays: s.DDIOWays, Desc: desc(descGreedyTenantFull, 0)}
	default:
		return Actions{Stable: true, State: LowKeep, DDIOWays: s.DDIOWays, Desc: desc(descStable, 0)}
	}
}
