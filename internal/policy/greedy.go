package policy

// Greedy is the deliberately naive comparison point: every interval it
// finds the single largest demander — DDIO by write-allocate miss rate, or
// a tenant group by LLC miss rate — and grants it one way, with no
// stability analysis, no hysteresis, and no reclaim. It demonstrates what
// the IAT FSM's damping actually buys: under shifting load Greedy ratchets
// allocations up until everything saturates and then can only hold.
type Greedy struct {
	cur  Sample
	h    Health
	snap greedyState // AppendSnapshot's scratch form
}

// NewGreedy returns the grant-the-largest-demander policy.
func NewGreedy() *Greedy { return &Greedy{} }

// Name implements Policy.
func (p *Greedy) Name() string { return "greedy" }

// Kind implements Policy.
func (p *Greedy) Kind() Kind { return KindGreedy }

// Health implements Policy.
func (p *Greedy) Health() Health { return p.h }

// Reset implements Policy (memoryless).
func (p *Greedy) Reset() {}

// Observe implements Policy.
func (p *Greedy) Observe(s Sample) { keep(&p.cur, s) }

// Decide implements Policy.
func (p *Greedy) Decide() Actions {
	s := p.cur
	L := s.Limits
	p.h.Ticks++

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

	var a Actions
	switch kind {
	case demandDDIO:
		if !L.DisableDDIOAdjust && s.DDIOWays < L.DDIOWaysMax {
			target := s.DDIOWays + 1
			st := IODemand
			if target >= L.DDIOWaysMax {
				st = HighKeep
			}
			a = Actions{State: st, DDIOWays: target, Desc: desc(descGreedyDDIO, target)}
		} else {
			a = Actions{State: HighKeep, DDIOWays: s.DDIOWays, Desc: desc(descGreedyDDIOFull, 0)}
		}
	case demandGroup:
		if !L.DisableTenantAdjust && s.totalWidth()+1 <= s.NumWays {
			a = Actions{State: CoreDemand, DDIOWays: s.DDIOWays,
				Grow: Ref(bestG.CLOS), Desc: desc(descGreedyGrow, bestG.CLOS)}
		} else {
			a = Actions{State: HighKeep, DDIOWays: s.DDIOWays, Desc: desc(descGreedyTenantFull, 0)}
		}
	default:
		a = Actions{Stable: true, State: LowKeep, DDIOWays: s.DDIOWays, Desc: desc(descStable, 0)}
	}
	p.h.note(a, s.DDIOWays)
	return a
}
