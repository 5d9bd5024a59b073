package core

import (
	"math"
	"testing"
	"testing/quick"

	"iatsim/internal/cache"
	"iatsim/internal/policy"
)

func g(clos, width int, prio Priority, refs float64) *Group {
	return &Group{CLOS: clos, Width: width, Priority: prio, RefsPerSec: refs}
}

func TestPackBottomUpContiguousDisjoint(t *testing.T) {
	groups := []*Group{g(1, 3, Stack, 0), g(2, 2, PC, 0), g(3, 2, BE, 0)}
	masks, err := PackBottomUp(nil, 11, groups)
	if err != nil {
		t.Fatal(err)
	}
	if len(masks) != 3 ||
		masks[0] != cache.ContiguousMask(0, 3) ||
		masks[1] != cache.ContiguousMask(3, 2) ||
		masks[2] != cache.ContiguousMask(5, 2) {
		t.Fatalf("masks = %v", masks)
	}
	for i, m := range masks {
		if !m.Contiguous() {
			t.Errorf("group %d mask %v not contiguous", i, m)
		}
		for j, m2 := range masks {
			if i != j && m.Overlaps(m2) {
				t.Errorf("groups %d and %d overlap", i, j)
			}
		}
	}
}

func TestPackBottomUpOverflowRejected(t *testing.T) {
	if _, err := PackBottomUp(nil, 4, []*Group{g(1, 3, PC, 0), g(2, 2, BE, 0)}); err == nil {
		t.Fatal("overflow accepted")
	}
	if _, err := PackBottomUp(nil, 4, []*Group{g(1, 0, PC, 0)}); err == nil {
		t.Fatal("zero width accepted")
	}
}

// Property: packing any widths that fit produces disjoint contiguous masks
// covering exactly the total width.
func TestPackBottomUpProperty(t *testing.T) {
	f := func(ws []uint8) bool {
		var groups []*Group
		total := 0
		for i, w := range ws {
			width := int(w%3) + 1
			if total+width > 20 {
				break
			}
			total += width
			groups = append(groups, g(i, width, BE, 0))
		}
		if len(groups) == 0 {
			return true
		}
		masks, err := PackBottomUp(nil, 20, groups)
		if err != nil {
			return false
		}
		var union cache.WayMask
		covered := 0
		for _, m := range masks {
			if !m.Contiguous() || m.Overlaps(union) {
				return false
			}
			union |= m
			covered += m.Count()
		}
		return covered == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOrderGroupsPriorityOrder(t *testing.T) {
	groups := []*Group{
		g(1, 2, BE, 100),
		g(2, 2, PC, 0),
		g(3, 2, Stack, 0),
		g(4, 2, BE, 50),
	}
	ordered := OrderGroups(nil, groups, -1, 0.9)
	if ordered[0].CLOS != 3 {
		t.Fatalf("stack not first: %d", ordered[0].CLOS)
	}
	if ordered[1].CLOS != 2 {
		t.Fatalf("PC not second: %d", ordered[1].CLOS)
	}
	// BE with the SMALLEST reference rate must be last (topmost,
	// adjacent to DDIO).
	if ordered[3].CLOS != 4 {
		t.Fatalf("least-referencing BE not topmost: %d", ordered[3].CLOS)
	}
}

func TestOrderGroupsHysteresis(t *testing.T) {
	a := g(1, 2, BE, 100) // incumbent sharer
	b := g(2, 2, BE, 95)  // challenger, within the 0.9 margin
	ordered := OrderGroups(nil, []*Group{a, b}, 1, 0.9)
	if ordered[1].CLOS != 1 {
		t.Fatalf("incumbent displaced by a challenger inside the margin: top=%d", ordered[1].CLOS)
	}
	// Outside the margin the challenger wins.
	b.RefsPerSec = 50
	ordered = OrderGroups(nil, []*Group{a, b}, 1, 0.9)
	if ordered[1].CLOS != 2 {
		t.Fatalf("clearly quieter challenger not promoted: top=%d", ordered[1].CLOS)
	}
}

func TestOrderGroupsStableWithinPriority(t *testing.T) {
	groups := []*Group{g(1, 2, PC, 0), g(2, 2, PC, 0), g(3, 2, PC, 0)}
	ordered := OrderGroups(nil, groups, -1, 0.9)
	for i, gr := range ordered {
		if gr.CLOS != i+1 {
			t.Fatalf("PC order not stable: %v", []int{ordered[0].CLOS, ordered[1].CLOS, ordered[2].CLOS})
		}
	}
}

func TestOrderGroupsDoesNotMutateInput(t *testing.T) {
	groups := []*Group{g(1, 2, BE, 10), g(2, 2, Stack, 0)}
	OrderGroups(nil, groups, -1, 0.9)
	if groups[0].CLOS != 1 || groups[1].CLOS != 2 {
		t.Fatal("input slice mutated")
	}
}

func TestTotalWidth(t *testing.T) {
	if TotalWidth([]*Group{g(1, 2, BE, 0), g(2, 3, BE, 0)}) != 5 {
		t.Fatal("TotalWidth wrong")
	}
	if TotalWidth(nil) != 0 {
		t.Fatal("TotalWidth(nil) != 0")
	}
}

func TestParamsValidate(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(11); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Params){
		func(p *Params) { p.ThresholdStable = 0 },
		func(p *Params) { p.ThresholdStable = 1.5 },
		func(p *Params) { p.DDIOWaysMin = 0 },
		func(p *Params) { p.DDIOWaysMax = 12 },
		func(p *Params) { p.DDIOWaysMin = 5; p.DDIOWaysMax = 3 },
		func(p *Params) { p.IntervalNS = 0 },
		func(p *Params) { p.ThresholdStable = math.NaN() },
		func(p *Params) { p.ThresholdStable = math.Inf(1) },
		func(p *Params) { p.ThresholdMissLowPerSec = math.NaN() },
		func(p *Params) { p.ThresholdMissLowPerSec = math.Inf(1) },
		func(p *Params) { p.ThresholdMissLowPerSec = math.Inf(-1) },
		func(p *Params) { p.IntervalNS = math.NaN() },
		func(p *Params) { p.IntervalNS = math.Inf(1) },
	}
	for i, mod := range bad {
		q := DefaultParams()
		mod(&q)
		if err := q.Validate(11); err == nil {
			t.Errorf("case %d accepted: %+v", i, q)
		}
	}
}

func TestTableIIDefaults(t *testing.T) {
	p := DefaultParams()
	if p.ThresholdStable != 0.03 {
		t.Errorf("THRESHOLD_STABLE = %v", p.ThresholdStable)
	}
	if p.ThresholdMissLowPerSec != 1e6 {
		t.Errorf("THRESHOLD_MISS_LOW = %v", p.ThresholdMissLowPerSec)
	}
	if p.DDIOWaysMin != 1 || p.DDIOWaysMax != 6 {
		t.Errorf("DDIO_WAYS = %d/%d", p.DDIOWaysMin, p.DDIOWaysMax)
	}
	if p.IntervalNS != 1e9 {
		t.Errorf("interval = %v", p.IntervalNS)
	}
}

func TestStateString(t *testing.T) {
	names := map[policy.State]string{
		policy.LowKeep: "LowKeep", policy.IODemand: "IODemand", policy.CoreDemand: "CoreDemand",
		policy.HighKeep: "HighKeep", policy.Reclaim: "Reclaim",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%v", s)
		}
	}
	// The out-of-range default branch must render the raw value, so a
	// corrupted state is visible in emitted lines instead of crashing or
	// masquerading as a real state.
	if got := policy.State(99).String(); got != "State(99)" {
		t.Errorf("State(99).String() = %q, want State(99)", got)
	}
}

func TestPriorityString(t *testing.T) {
	if BE.String() != "BE" || PC.String() != "PC" || Stack.String() != "stack" {
		t.Error("priority strings wrong")
	}
}
