package policy

import (
	"fmt"
	"math"
	"testing"

	"iatsim/internal/cache"
)

// TestDescRendersFormattedText: every description renders exactly what
// fmt produces for its format and arguments.
func TestDescRendersFormattedText(t *testing.T) {
	fsm := func(d Desc, from, to State) Desc {
		d.fsm, d.from, d.to = true, from, to
		return d
	}
	cont := func(d Desc) Desc { d.cont = true; return d }
	low := func(d Desc) Desc { d.lowKeep = true; return d }
	for _, c := range []struct {
		d    Desc
		want string
	}{
		{desc(descNone, 0), ""},
		{desc(descStable, 0), "stable"},
		{desc(descHold, 0), "hold"},
		{desc(descIPCOnly, 0), "ipc-only: ignored"},
		{desc(descCoreDemandOff, 0), "core-demand (tenant adjust disabled)"},
		{desc(descCase2Grow, 10), fmt.Sprintf("case2: +1 way for clos %d", 10)},
		{desc(descCase2None, 0), "case2: no action"},
		{desc(descShuffled, 0), "case3: shuffled"},
		{desc(descDDIOOff, 0), "(ddio adjust disabled)"},
		{desc(descDDIOMax, 6), fmt.Sprintf("ddio=%d (max, ->HighKeep)", 6)},
		{desc(descDDIO, 3), fmt.Sprintf("ddio=%d", 3)},
		{desc(descTenantOff, 0), "(tenant adjust disabled)"},
		{desc(descGrowCLOS, 2), fmt.Sprintf("+1 way clos %d", 2)},
		{desc(descNoGrow, 0), "no grow candidate"},
		{desc(descShrinkCLOS, -1), fmt.Sprintf("-1 way clos %d", -1)},
		{desc(descNothing, 0), "nothing to reclaim"},
		{desc(descStatic, 4), fmt.Sprintf("static: ddio=%d", 4)},
		{desc(descGreedyDDIO, 5), fmt.Sprintf("greedy: ddio=%d", 5)},
		{desc(descGreedyDDIOFull, 0), "greedy: ddio saturated"},
		{desc(descGreedyGrow, 7), fmt.Sprintf("greedy: +1 way clos %d", 7)},
		{desc(descGreedyTenantFull, 0), "greedy: tenants saturated"},
		{desc(descRepack, 0), "repacked below ddio"},
		{desc(descNoIdleWay, 0), "no idle way"},
		{cont(desc(descDDIO, 2)), "continue: " + fmt.Sprintf("ddio=%d", 2)},
		{cont(low(desc(descDDIO, 1))), "continue: " + fmt.Sprintf("ddio=%d", 1) + " ->LowKeep"},
		{fsm(low(desc(descShrinkCLOS, 3)), Reclaim, LowKeep), fmt.Sprintf("%s->%s %s", Reclaim, LowKeep, fmt.Sprintf("-1 way clos %d", 3)+" ->LowKeep")},
		{fsm(desc(descNone, 0), State(9), HighKeep), fmt.Sprintf("%s->%s %s", State(9), HighKeep, "")},
	} {
		if got := c.d.String(); got != c.want {
			t.Errorf("%+v renders %q, want %q", c.d, got, c.want)
		}
	}
	for _, ratio := range []float64{0, 0.125, 0.005, 1, -0.0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e30} {
		for _, k := range []descKind{descIOCAHot, descIOCACold} {
			want := fmt.Sprintf("ioca: contended (miss ratio %.2f) ddio=%d", ratio, 3)
			if k == descIOCACold {
				want = fmt.Sprintf("ioca: quiet (miss ratio %.2f) ddio=%d", ratio, 3)
			}
			if got := (Desc{kind: k, n: 3, ratio: ratio}).String(); got != want {
				t.Errorf("ratio %v renders %q, want %q", ratio, got, want)
			}
		}
	}
}

// TestDecideAllocatesNothing: Decide allocates nothing for any
// engine once warm — including IAT's case-2 grow and case-3 shuffle
// paths, which the measured samples are built to reach.
func TestDecideAllocatesNothing(t *testing.T) {
	mk := func(missPS, ipc, refs float64) Sample {
		s := sample(LowKeep, 2, missPS)
		s.DDIOHitPS = 1e8
		for clos := 1; clos <= 6; clos++ {
			s.Groups = append(s.Groups, GroupView{
				CLOS: clos, IO: clos == 1, BestEffort: clos > 1, Width: 1,
				Mask: cache.ContiguousMask(clos-1, 1),
				IPC:  0.5, RefsPS: 1e7, MissPS: 1e5, MissRate: 0.01,
			})
		}
		// A best-effort group on the DDIO ways whose core-side behaviour
		// moves with the I/O.
		s.Groups = append(s.Groups, GroupView{
			CLOS: 10, BestEffort: true, Width: 1, Mask: cache.ContiguousMask(9, 1),
			IPC: ipc, RefsPS: refs, MissPS: refs / 10, MissRate: refs / 1e9,
		})
		return s
	}
	loud, quiet := mk(5e6, 0.5, 1e7), mk(1e3, 1.0, 4e7)
	for _, sp := range allSpecs(t) {
		p := sp.New()
		i, shuffles, grows := 0, 0, 0
		step := func() {
			s := quiet
			if i%2 == 0 {
				s = loud
			}
			s.NowNS = float64(i) * 1e8
			i++
			switch Classify(p.Decide(s), s.DDIOWays) {
			case "shuffle":
				shuffles++
			case "grow-tenant":
				grows++
			}
		}
		for i < 4 {
			step()
		}
		shuffles, grows = 0, 0
		if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
			t.Errorf("%s: Decide allocates %.1f times, want 0", sp, allocs)
		}
		if sp.Kind == KindIAT && (shuffles == 0 || grows == 0) {
			t.Errorf("iat: measured decisions reached shuffle %d and grow %d times; want both", shuffles, grows)
		}
	}
}
