package policy

import "slices"

// IAT is the paper's decision logic — Sec. IV-B's special cases routing
// into the Mealy FSM of Fig. 6 — extracted verbatim from the daemon. Given
// the same sample sequence it produces byte-identical action strings and
// the same re-allocation operations as the pre-extraction daemon (pinned
// by the regression tests in internal/core); the daemon retains the
// mechanism (packing, programming, shuffle resolution, self-healing).
type IAT struct {
	prev Sample
	have bool

	// changed is detect's reused CLOS list, fallback backs a case-3
	// shuffle's Fallback, and snap is AppendSnapshot's scratch form.
	changed  []int
	fallback Actions
	snap     iatState
}

// The two secondary thresholds of the paper's FSM: a relative DDIO-miss
// decrease beyond missDropFactor is a "significant degradation" that
// sends I/O Demand / High Keep to Reclaim, and a tenant whose LLC miss
// rate is at most tenantMissRateFloor is a reclaim candidate.
const (
	missDropFactor      = 0.5
	tenantMissRateFloor = 0.05
)

// NewIAT returns the paper's IAT policy.
func NewIAT() *IAT { return &IAT{} }

// Name implements Policy.
func (p *IAT) Name() string { return "iat" }

// Reset implements Policy: the comparison baseline is dropped, so the next
// Decide warms up again (tenant change or degradation recovery).
func (p *IAT) Reset() { p.have = false }

// Decide implements Policy.
func (p *IAT) Decide(s Sample) Actions {
	if !p.have {
		// First sample becomes the comparison baseline — the daemon's
		// silent warmup tick.
		keep(&p.prev, s)
		p.have = true
		return Actions{Warmup: true, State: s.State, DDIOWays: s.DDIOWays}
	}
	ch := detect(s, p.prev, p.changed[:0])
	p.changed = ch.coreChanged

	var a Actions
	if !ch.any {
		// Stability gates TRANSITIONS, not progression: the paper's
		// I/O Demand and Reclaim states keep moving one way per
		// iteration until they reach DDIO_WAYS_MAX / DDIO_WAYS_MIN
		// (Sec. IV-C), even when the counters have settled.
		switch {
		case s.State == Reclaim:
			a = actFor(Reclaim, s)
			a.Continue = true
			a.Desc.cont = true
		case s.State == IODemand && s.DDIOMissPS > s.Limits.ThresholdMissLowPerSec:
			a = actFor(IODemand, s)
			a.Continue = true
			a.Desc.cont = true
		default:
			a = Actions{Stable: true, State: s.State, DDIOWays: s.DDIOWays, Desc: desc(descStable, 0)}
		}
	} else {
		a = p.decide(s, p.prev, ch)
	}
	keep(&p.prev, s)
	return a
}

// changes summarises what moved between two interval samples.
type changes struct {
	any         bool
	ddio        bool
	hitDown     bool
	missUp      bool
	missDown    bool
	bigMissDrop bool
	refsUp      bool
	// groups whose IPC changed along with LLC refs/misses
	coreChanged []int // CLOS ids
	// groups with only-IPC changes are ignored per Sec. IV-B case (1)
}

// relDelta is the relative change of cur vs prev with a noise floor on the
// denominator.
func relDelta(cur, prev, floor float64) float64 {
	denom := prev
	if denom < floor {
		denom = floor
	}
	if denom == 0 {
		if cur == 0 {
			return 0
		}
		return 1
	}
	return (cur - prev) / denom
}

// detect compares two samples under cur's thresholds, collecting the
// changed CLOS ids into buf.
func detect(cur, prev Sample, buf []int) changes {
	T := cur.Limits.ThresholdStable
	const ipcFloor = 0.05
	refsFloor := cur.Limits.ThresholdMissLowPerSec / 10
	ddioFloor := cur.Limits.ThresholdMissLowPerSec / 20

	ch := changes{coreChanged: buf}
	relHit := relDelta(cur.DDIOHitPS, prev.DDIOHitPS, ddioFloor)
	relMiss := relDelta(cur.DDIOMissPS, prev.DDIOMissPS, ddioFloor)
	ch.ddio = relHit > T || relHit < -T || relMiss > T || relMiss < -T
	ch.hitDown = relHit < -T
	ch.missUp = relMiss > T
	ch.missDown = relMiss < -T
	ch.bigMissDrop = relMiss < -missDropFactor
	ch.refsUp = relDelta(cur.TotalRefsPS, prev.TotalRefsPS, refsFloor) > T
	ch.any = ch.ddio

	for i := range cur.Groups {
		g := &cur.Groups[i]
		var pg GroupView
		if pv := prev.group(g.CLOS); pv != nil {
			pg = *pv
		}
		ipcCh := relDelta(g.IPC, pg.IPC, ipcFloor)
		refsCh := relDelta(g.RefsPS, pg.RefsPS, refsFloor)
		missCh := relDelta(g.MissPS, pg.MissPS, refsFloor)
		ipcMoved := ipcCh > T || ipcCh < -T
		llcMoved := refsCh > T || refsCh < -T || missCh > T || missCh < -T
		if ipcMoved || llcMoved {
			ch.any = true
		}
		if ipcMoved && llcMoved {
			ch.coreChanged = append(ch.coreChanged, g.CLOS)
		}
	}
	slices.Sort(ch.coreChanged)
	return ch
}

// decide routes an unstable iteration through the special cases of
// Sec. IV-B and the FSM of Sec. IV-C.
func (p *IAT) decide(s, prev Sample, ch changes) Actions {
	L := s.Limits
	// Case (1): IPC-only change with no LLC and no DDIO movement is
	// neither cache/memory nor I/O; detect() already excludes such
	// groups from coreChanged, so if nothing else moved we are done.
	if !ch.ddio && len(ch.coreChanged) == 0 {
		return Actions{State: s.State, DDIOWays: s.DDIOWays, Desc: desc(descIPCOnly, 0)}
	}

	// Case (2): a tenant's IPC and LLC behaviour changed while the I/O is
	// not pressing the LLC (no DDIO-miss movement and a quiet write-
	// allocate rate) — pure core demand for LLC space; serve it with the
	// core-side allocator. The DDIO *hit* rate may still move (it tracks
	// delivered throughput), which is why the gate is on misses.
	ioQuiet := s.DDIOMissPS < L.ThresholdMissLowPerSec && !ch.missUp
	if !ch.ddio || (ioQuiet && len(ch.coreChanged) > 0) {
		if L.DisableTenantAdjust {
			return Actions{State: s.State, DDIOWays: s.DDIOWays, Desc: desc(descCoreDemandOff, 0)}
		}
		if g := pickCoreChanged(s, prev, ch.coreChanged); g != nil {
			if s.totalWidth()+1 <= s.NumWays {
				return Actions{
					State: s.State, DDIOWays: s.DDIOWays,
					Grow: Ref(g.CLOS),
					Desc: desc(descCase2Grow, g.CLOS),
				}
			}
		}
		return Actions{State: s.State, DDIOWays: s.DDIOWays, Desc: desc(descCase2None, 0)}
	}

	fsm := p.fsm(s, ch)
	// Case (3): a non-I/O tenant overlapping DDIO changed together with
	// the DDIO counters — try shuffling first; if the shuffle writes no
	// register the daemon falls through to the FSM decision.
	if !L.DisableShuffle && overlappedNonIOChanged(s, ch.coreChanged) {
		p.fallback = fsm
		return Actions{
			State: s.State, DDIOWays: s.DDIOWays,
			Desc: desc(descShuffled, 0), TryShuffle: true, Fallback: &p.fallback,
		}
	}
	return fsm
}

// fsm runs one Mealy transition + entry action and renders the daemon's
// "From->To action" description (To is the state act() settles in, which
// may differ from the transition target on the HighKeep/LowKeep entries).
func (p *IAT) fsm(s Sample, ch changes) Actions {
	from := s.State
	next := transition(s, ch)
	a := actFor(next, s)
	a.Desc.fsm, a.Desc.from, a.Desc.to = true, from, a.State
	return a
}

// pickCoreChanged chooses the group whose LLC miss rate rose the most.
func pickCoreChanged(cur, prev Sample, closes []int) *GroupView {
	var best *GroupView
	bestDelta := 0.0
	for _, clos := range closes {
		g := cur.group(clos)
		if g == nil {
			continue
		}
		var prevMR float64
		if pg := prev.group(clos); pg != nil {
			prevMR = pg.MissRate
		}
		delta := g.MissRate - prevMR
		if delta > bestDelta {
			best, bestDelta = g, delta
		}
	}
	return best
}

// overlappedNonIOChanged reports whether any changed group is non-I/O and
// currently overlaps the DDIO ways.
func overlappedNonIOChanged(s Sample, closes []int) bool {
	for _, clos := range closes {
		g := s.group(clos)
		if g == nil || g.IO {
			continue
		}
		if g.Mask.Overlaps(s.DDIOMask) {
			return true
		}
	}
	return false
}

// transition implements the Mealy FSM of Fig. 6.
func transition(s Sample, ch changes) State {
	missHigh := s.DDIOMissPS > s.Limits.ThresholdMissLowPerSec
	switch s.State {
	case LowKeep:
		if missHigh {
			if ch.hitDown && ch.refsUp {
				return CoreDemand // (3) in Fig. 6
			}
			return IODemand // (1)
		}
		return LowKeep
	case IODemand:
		if ch.hitDown && !ch.missDown {
			return CoreDemand // (7)
		}
		if ch.bigMissDrop || !missHigh {
			return Reclaim // (6)
		}
		return IODemand // (5), HighKeep entry handled by actFor()
	case HighKeep:
		if ch.hitDown && !ch.missDown {
			return CoreDemand // (12)
		}
		if ch.bigMissDrop || !missHigh {
			return Reclaim // (11)
		}
		return HighKeep
	case CoreDemand:
		if ch.missDown {
			return Reclaim // (8)
		}
		if ch.missUp && !ch.hitDown {
			return IODemand // (4)
		}
		return CoreDemand
	case Reclaim:
		if ch.missUp && missHigh {
			if ch.hitDown {
				return CoreDemand // (9)
			}
			return IODemand // (13)
		}
		return Reclaim // (2) to LowKeep handled by actFor()
	}
	return s.State
}

// actFor computes the LLC Re-alloc for the (new) state and its
// description — the policy-side port of the daemon's act().
func actFor(state State, s Sample) Actions {
	L := s.Limits
	a := Actions{State: state, DDIOWays: s.DDIOWays}
	switch state {
	case IODemand:
		if L.DisableDDIOAdjust {
			a.Desc = desc(descDDIOOff, 0)
			return a
		}
		w := s.DDIOWays
		if w < L.DDIOWaysMax {
			w += growthSteps(s.DDIOMissPS, L)
			if w > L.DDIOWaysMax {
				w = L.DDIOWaysMax
			}
			a.DDIOWays = w
		}
		if w >= L.DDIOWaysMax {
			a.State = HighKeep // (10)
			a.Desc = desc(descDDIOMax, w)
			return a
		}
		a.Desc = desc(descDDIO, w)
		return a
	case CoreDemand:
		if L.DisableTenantAdjust {
			a.Desc = desc(descTenantOff, 0)
			return a
		}
		g := selectCoreDemand(s)
		if g != nil && s.totalWidth()+1 <= s.NumWays {
			a.Grow = Ref(g.CLOS)
			a.Desc = desc(descGrowCLOS, g.CLOS)
			return a
		}
		a.Desc = desc(descNoGrow, 0)
		return a
	case Reclaim:
		a = reclaimOne(s)
		if a.DDIOWays <= L.DDIOWaysMin {
			a.State = LowKeep // (2)
			a.Desc.lowKeep = true
		}
		return a
	case LowKeep, HighKeep:
		a.Desc = desc(descHold, 0)
		return a
	}
	a.Desc = desc(descNone, 0)
	return a
}

// selectCoreDemand picks the group to grow in the Core Demand state:
// the software stack under the aggregation model, otherwise the I/O tenant
// with the largest LLC miss-rate increase (Sec. IV-D).
func selectCoreDemand(s Sample) *GroupView {
	for i := range s.Groups {
		if s.Groups[i].Stack {
			return &s.Groups[i]
		}
	}
	var best *GroupView
	bestDelta := -1.0
	for i := range s.Groups {
		g := &s.Groups[i]
		if !g.IO {
			continue
		}
		// Faithful port of a daemon quirk: the "previous" miss rate it
		// compared against had already been overwritten with the current
		// sample's at poll time, so the delta is identically zero (NaN
		// when the rate is NaN, which loses against bestDelta) and the
		// first I/O group in registration order wins.
		delta := g.MissRate - g.MissRate
		if delta > bestDelta {
			best, bestDelta = g, delta
		}
	}
	return best
}

// growthSteps returns how many ways one iteration grants under the
// configured growth policy.
func growthSteps(missPS float64, L Limits) int {
	if !L.UCPGrowth {
		return 1
	}
	steps := 1
	for x := missPS; x > 4*L.ThresholdMissLowPerSec && steps < 3; x /= 4 {
		steps++
	}
	return steps
}

// reclaimOne takes one way back from DDIO or from an over-provisioned
// tenant, preferring DDIO while the I/O is quiet.
func reclaimOne(s Sample) Actions {
	L := s.Limits
	a := Actions{State: Reclaim, DDIOWays: s.DDIOWays}
	quietIO := s.DDIOMissPS < L.ThresholdMissLowPerSec
	if !L.DisableDDIOAdjust && quietIO && s.DDIOWays > L.DDIOWaysMin {
		a.DDIOWays = s.DDIOWays - 1
		a.Desc = desc(descDDIO, a.DDIOWays)
		return a
	}
	if !L.DisableTenantAdjust {
		var victim *GroupView
		for i := range s.Groups {
			g := &s.Groups[i]
			if g.Width <= 1 || g.MissRate > tenantMissRateFloor {
				continue
			}
			if victim == nil || g.RefsPS < victim.RefsPS {
				victim = g
			}
		}
		if victim != nil {
			a.Shrink = Ref(victim.CLOS)
			a.Desc = desc(descShrinkCLOS, victim.CLOS)
			return a
		}
	}
	if !L.DisableDDIOAdjust && s.DDIOWays > L.DDIOWaysMin {
		a.DDIOWays = s.DDIOWays - 1
		a.Desc = desc(descDDIO, a.DDIOWays)
		return a
	}
	a.Desc = desc(descNothing, 0)
	return a
}
