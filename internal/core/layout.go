package core

import (
	"cmp"
	"fmt"
	"slices"

	"iatsim/internal/cache"
)

// Group is an allocation unit: the tenants sharing one class of service
// (tenants may be grouped, e.g. the two PC forwarding containers of the
// paper's Fig. 10 share three ways). Widths are in ways; RefsPerSec is the
// group's most recent LLC reference rate, the sort key of the shuffling
// step (Sec. IV-D: the BE tenant with the smallest LLC reference count is
// chosen to share ways with DDIO).
type Group struct {
	CLOS     int
	Names    []string
	Priority Priority
	IO       bool
	Width    int
	// RefsPerSec is updated every poll.
	RefsPerSec float64
	// MissRatePerSec is the group's LLC miss rate (misses/s), used by
	// the Reclaim state's tenant selection.
	MissPerSec float64
	// MissRate is misses/references of the last interval.
	MissRate float64
}

// PackBottomUp assigns each group a contiguous mask, packing from way 0
// upward in slice order, and appends the masks to dst in that order. The
// total width must not exceed nWays. Groups whose span crosses
// nWays-ddioWays end up overlapping the DDIO ways — which is exactly how
// the layout expresses core/I-O sharing.
func PackBottomUp(dst []cache.WayMask, nWays int, groups []*Group) ([]cache.WayMask, error) {
	pos := 0
	for _, g := range groups {
		if g.Width < 1 {
			return dst, fmt.Errorf("core: group clos=%d has width %d", g.CLOS, g.Width)
		}
		if pos+g.Width > nWays {
			return dst, fmt.Errorf("core: layout overflows %d ways (at clos=%d)", nWays, g.CLOS)
		}
		dst = append(dst, cache.ContiguousMask(pos, g.Width))
		pos += g.Width
	}
	return dst, nil
}

// OrderGroups appends groups to dst in the bottom-up packing order
// implementing the paper's shuffling policy: the software stack lowest,
// then performance-critical groups, then best-effort groups sorted by
// descending LLC reference rate — so the least memory-intensive BE group
// lands on top, adjacent to (and, under pressure, overlapping) the DDIO
// ways. groups itself is left as it is.
//
// prevTopCLOS is the group currently sharing with DDIO (-1 if none);
// shuffleMargin applies hysteresis: the incumbent keeps the top slot unless
// the challenger's reference rate is below margin times the incumbent's.
// Within a priority class the original slice order breaks ties, so the
// result is deterministic.
func OrderGroups(dst, groups []*Group, prevTopCLOS int, shuffleMargin float64) []*Group {
	base := len(dst)
	dst = append(dst, groups...)
	ordered := dst[base:]
	rank := func(p Priority) int {
		switch p {
		case Stack:
			return 0
		case PC:
			return 1
		default:
			return 2
		}
	}
	slices.SortStableFunc(ordered, func(a, b *Group) int {
		ra, rb := rank(a.Priority), rank(b.Priority)
		if ra != rb {
			return cmp.Compare(ra, rb)
		}
		if ra == 2 && a.RefsPerSec > b.RefsPerSec { // BE: descending refs, least-referencing last (topmost)
			return -1
		}
		return 0 // keep stable order for stack/PC and equal refs
	})
	// Hysteresis on the DDIO-sharing (topmost) slot.
	n := len(ordered)
	if n >= 2 && prevTopCLOS >= 0 {
		top := ordered[n-1]
		if top.Priority == BE && top.CLOS != prevTopCLOS {
			for i := n - 2; i >= 0; i-- {
				g := ordered[i]
				if g.CLOS != prevTopCLOS || g.Priority != BE {
					continue
				}
				// Challenger must beat the incumbent by the margin.
				if top.RefsPerSec >= shuffleMargin*g.RefsPerSec {
					ordered[i], ordered[n-1] = ordered[n-1], ordered[i]
				}
				break
			}
		}
	}
	return dst
}

// TotalWidth sums group widths.
func TotalWidth(groups []*Group) int {
	t := 0
	for _, g := range groups {
		t += g.Width
	}
	return t
}
