package policy

import "iatsim/internal/cache"

// The paper's dynamic comparison points grow a group whose LLC miss rate
// (misses per second) rose by more than baselineGrowth over the last
// interval, and only while it misses on more than baselineMissFloor of
// its references. A previous rate of zero counts as baselineQuietMissPS,
// so a group waking from silence still has to clear the growth bar.
const (
	baselineGrowth      = 0.10
	baselineMissFloor   = 0.05
	baselineQuietMissPS = 1e4
)

// Baseline is one of the paper's two dynamic comparison points (Sec.
// VI-B):
//
//   - Core-only grows a tenant group that demands cache into "idle" ways,
//     without knowing DDIO lives there, and never shuffles tenants
//     against DDIO. Footnote 4 obtains it from IAT by disabling the I/O
//     Demand state and shuffling; it keeps the operator's packing order
//     instead of IAT's priority order. It stops once the ways are full.
//   - I/O-iso is Core-only with the DDIO ways excluded from every tenant
//     mask, as proposed by the prior work the paper argues against. When
//     the ways below DDIO run out it takes a way from the best-effort
//     group missing least, and it repacks every group below DDIO when the
//     DDIO mask moves. Groups that no longer fit overlap.
//
// The grower moves to the top of the packing order, so its new way comes
// from the idle region. Groups are packed bottom-up in that order and
// every decision that moves a group carries the whole layout in
// Actions.Masks.
type Baseline struct {
	ioIso bool

	prev Sample // the previous interval, the growth comparison point
	have bool   // warm: prev and order hold
	// order lists CLOS ids in bottom-up packing order.
	order []int
	// ddio is the DDIO mask the layout was last packed against (I/O-iso).
	ddio cache.WayMask

	// Decide's scratch: the next widths and the layout it returns.
	widths []int
	masks  []cache.WayMask

	snap baselineState // AppendSnapshot's scratch form
}

// NewCoreOnly returns the paper's Core-only comparison point.
func NewCoreOnly() *Baseline { return &Baseline{} }

// NewIOIso returns the paper's I/O-iso comparison point.
func NewIOIso() *Baseline { return &Baseline{ioIso: true} }

// Name implements Policy.
func (p *Baseline) Name() string {
	if p.ioIso {
		return "io-iso"
	}
	return "core-only"
}

// Reset implements Policy: the next Decide re-adopts the registration
// order and the comparison sample, and I/O-iso repacks on the decision
// after it.
func (p *Baseline) Reset() {
	p.have = false
	p.order = p.order[:0]
	p.ddio = 0
}

// Decide implements Policy.
func (p *Baseline) Decide(cur Sample) Actions {
	s := &cur
	a := Actions{State: LowKeep, DDIOWays: s.DDIOWays}
	if !p.have {
		p.order = p.order[:0]
		for i := range s.Groups {
			p.order = append(p.order, s.Groups[i].CLOS)
		}
		keep(&p.prev, *s)
		p.have = true
		a.Warmup = true
		return a
	}

	repack := false
	if p.ioIso && s.DDIOMask != p.ddio {
		p.ddio = s.DDIOMask
		repack = true
	}
	grow := -1
	best := baselineGrowth
	for i := range s.Groups {
		g := &s.Groups[i]
		prev := 0.0
		if pg := p.prev.group(g.CLOS); pg != nil {
			prev = pg.MissPS
		}
		if prev <= 0 {
			prev = baselineQuietMissPS
		}
		if rel := (g.MissPS - prev) / prev; rel > best && g.MissRate > baselineMissFloor {
			grow, best = i, rel
		}
	}
	keep(&p.prev, *s)

	p.widths = p.widths[:0]
	total := 0
	for i := range s.Groups {
		p.widths = append(p.widths, s.Groups[i].Width)
		total += s.Groups[i].Width
	}
	limit := p.limit(s)
	if grow >= 0 {
		switch {
		case total < limit:
			p.widths[grow]++
			a.Grow = Ref(s.Groups[grow].CLOS)
		case p.ioIso:
			victim := -1
			for i := range s.Groups {
				if i == grow || p.widths[i] <= 1 || !s.Groups[i].BestEffort {
					continue
				}
				if victim < 0 || s.Groups[i].MissRate < s.Groups[victim].MissRate {
					victim = i
				}
			}
			if victim >= 0 {
				p.widths[victim]--
				p.widths[grow]++
				a.Grow, a.Shrink = Ref(s.Groups[grow].CLOS), Ref(s.Groups[victim].CLOS)
			}
		}
	}

	switch {
	case a.Grow.Set:
		p.toTop(a.Grow.CLOS)
		a.State, a.Desc = CoreDemand, desc(descGrowCLOS, a.Grow.CLOS)
	case repack:
		a.Desc = desc(descRepack, 0)
	case grow >= 0:
		a.Desc = desc(descNoIdleWay, 0)
	default:
		a.Stable, a.Desc = true, desc(descStable, 0)
	}
	if a.Grow.Set || repack {
		a.Masks = p.pack(s, limit)
	}
	return a
}

// limit is one past the highest way tenants may use: the whole LLC for
// Core-only, which does not know DDIO sits on top, and everything below
// the current DDIO mask for I/O-iso.
func (p *Baseline) limit(s *Sample) int {
	if p.ioIso {
		return s.NumWays - s.DDIOMask.Count()
	}
	return s.NumWays
}

// toTop moves clos to the top of the packing order.
func (p *Baseline) toTop(clos int) {
	for i, c := range p.order {
		if c == clos {
			copy(p.order[i:], p.order[i+1:])
			p.order[len(p.order)-1] = clos
			return
		}
	}
}

// pack lays the groups out bottom-up in packing order at p.widths. A
// group that would cross limit is clamped down into overlap with the
// groups below it. A group missing from the order keeps its mask.
func (p *Baseline) pack(s *Sample, limit int) []cache.WayMask {
	p.masks = p.masks[:0]
	for i := range s.Groups {
		p.masks = append(p.masks, s.Groups[i].Mask)
	}
	pos := 0
	for _, clos := range p.order {
		i := groupIndex(s, clos)
		if i < 0 {
			continue
		}
		w := p.widths[i]
		start := pos
		if start+w > limit {
			start = max(limit-w, 0)
		}
		p.masks[i] = cache.ContiguousMask(start, min(w, s.NumWays))
		pos = start + w
	}
	return p.masks
}

// groupIndex returns the index of clos in s.Groups, or -1.
func groupIndex(s *Sample, clos int) int {
	for i := range s.Groups {
		if s.Groups[i].CLOS == clos {
			return i
		}
	}
	return -1
}
