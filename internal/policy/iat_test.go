package policy

import (
	"maps"
	"strings"
	"testing"

	"iatsim/internal/cache"
)

// limits returns the paper's Table II limits at a 100ms interval.
func limits() Limits {
	return Limits{
		ThresholdStable:        0.03,
		ThresholdMissLowPerSec: 1e6,
		DDIOWaysMin:            1,
		DDIOWaysMax:            6,
	}
}

// sample builds a minimal sample in state st with ddio ways and a DDIO
// miss rate.
func sample(st State, ddio int, missPS float64) Sample {
	return Sample{
		State:      st,
		NumWays:    11,
		DDIOWays:   ddio,
		DDIOMask:   cache.ContiguousMask(11-ddio, ddio),
		Limits:     limits(),
		DDIOMissPS: missPS,
	}
}

// TestFSMTransitionTable pins the Mealy FSM against the paper's Fig. 6,
// edge by edge (ported from internal/core when the FSM moved here). Each
// case fabricates the counter condition the paper describes and asserts
// the resulting state.
func TestFSMTransitionTable(t *testing.T) {
	const missHigh, missLow = 5e6, 1e3
	cases := []struct {
		name   string
		from   State
		ch     changes
		missPS float64
		want   State
	}{
		// ① Low Keep -> I/O Demand: miss count crosses THRESHOLD_MISS_LOW.
		{"1:lowkeep->iodemand", LowKeep, changes{missUp: true}, missHigh, IODemand},
		// ③ Low Keep -> Core Demand: misses high, hits falling, refs rising.
		{"3:lowkeep->coredemand", LowKeep, changes{hitDown: true, refsUp: true}, missHigh, CoreDemand},
		// Low Keep self-loop while I/O is quiet.
		{"lowkeep-hold", LowKeep, changes{missUp: true}, missLow, LowKeep},
		// ⑤ I/O Demand self-loop while misses persist.
		{"5:iodemand-hold", IODemand, changes{missUp: true}, missHigh, IODemand},
		// ⑥ I/O Demand -> Reclaim on a significant miss drop.
		{"6:iodemand->reclaim", IODemand, changes{bigMissDrop: true, missDown: true}, missHigh, Reclaim},
		// I/O Demand -> Reclaim when misses fall below the threshold.
		{"iodemand->reclaim-low", IODemand, changes{missDown: true}, missLow, Reclaim},
		// ⑦ I/O Demand -> Core Demand: hits fall without a miss decrease.
		{"7:iodemand->coredemand", IODemand, changes{hitDown: true, missUp: true}, missHigh, CoreDemand},
		// ⑪ High Keep -> Reclaim on a significant miss drop.
		{"11:highkeep->reclaim", HighKeep, changes{bigMissDrop: true, missDown: true}, missHigh, Reclaim},
		// ⑫ High Keep -> Core Demand: hits fall, misses hold.
		{"12:highkeep->coredemand", HighKeep, changes{hitDown: true}, missHigh, CoreDemand},
		// High Keep holds while misses persist.
		{"highkeep-hold", HighKeep, changes{missUp: true}, missHigh, HighKeep},
		// ⑧ Core Demand -> Reclaim when the miss count decreases.
		{"8:coredemand->reclaim", CoreDemand, changes{missDown: true}, missHigh, Reclaim},
		// ④ Core Demand -> I/O Demand: more misses, hits not falling.
		{"4:coredemand->iodemand", CoreDemand, changes{missUp: true}, missHigh, IODemand},
		// Core Demand self-loop otherwise.
		{"coredemand-hold", CoreDemand, changes{refsUp: true}, missHigh, CoreDemand},
		// ⑬ Reclaim -> I/O Demand on a meaningful miss increase.
		{"13:reclaim->iodemand", Reclaim, changes{missUp: true}, missHigh, IODemand},
		// ⑨ Reclaim -> Core Demand: miss increase with falling hits.
		{"9:reclaim->coredemand", Reclaim, changes{missUp: true, hitDown: true}, missHigh, CoreDemand},
		// ② Reclaim self-loop while quiet (reaches Low Keep via actFor()).
		{"2:reclaim-hold", Reclaim, changes{missDown: true}, missLow, Reclaim},
	}
	for _, c := range cases {
		s := sample(c.from, 2, c.missPS)
		if got := transition(s, c.ch); got != c.want {
			t.Errorf("%s: %v -> %v, want %v", c.name, c.from, got, c.want)
		}
	}
}

// TestFSMEntryActionsOnBoundaries pins the actFor() boundary behaviour: ⑩
// (I/O Demand reaching DDIO_WAYS_MAX enters High Keep) and ② (Reclaim
// reaching DDIO_WAYS_MIN enters Low Keep).
func TestFSMEntryActionsOnBoundaries(t *testing.T) {
	L := limits()

	// ⑩: at max-1 ways, one more grow lands in High Keep.
	s := sample(IODemand, L.DDIOWaysMax-1, 5e6)
	a := actFor(IODemand, s)
	if a.State != HighKeep || a.DDIOWays != L.DDIOWaysMax {
		t.Fatalf("after max grow: state=%v ways=%d", a.State, a.DDIOWays)
	}
	if !strings.Contains(a.Desc.String(), "->HighKeep") {
		t.Fatalf("desc %q lacks HighKeep entry", a.Desc.String())
	}

	// ②: at min+1 ways, one reclaim lands in Low Keep.
	s = sample(Reclaim, L.DDIOWaysMin+1, 0)
	a = actFor(Reclaim, s)
	if a.State != LowKeep || a.DDIOWays != L.DDIOWaysMin {
		t.Fatalf("after min reclaim: state=%v ways=%d", a.State, a.DDIOWays)
	}
	if !strings.Contains(a.Desc.String(), "->LowKeep") {
		t.Fatalf("desc %q lacks LowKeep entry", a.Desc.String())
	}
}

func TestRelDelta(t *testing.T) {
	if relDelta(110, 100, 1) != 0.1 {
		t.Error("basic delta wrong")
	}
	if relDelta(0, 0, 0) != 0 {
		t.Error("zero/zero should be 0")
	}
	if relDelta(5, 0, 0) != 1 {
		t.Error("growth from zero should saturate at 1")
	}
	if d := relDelta(10, 1, 100); d != 0.09 {
		t.Errorf("floored delta = %v", d)
	}
}

func TestUCPGrowthSteps(t *testing.T) {
	L := limits()
	L.UCPGrowth = true
	// At 1x the threshold: single step; at 100x: capped at 3.
	if s := growthSteps(L.ThresholdMissLowPerSec, L); s != 1 {
		t.Fatalf("steps at threshold = %d", s)
	}
	if s := growthSteps(100*L.ThresholdMissLowPerSec, L); s != 3 {
		t.Fatalf("steps at 100x = %d", s)
	}
	L.UCPGrowth = false
	if s := growthSteps(100*L.ThresholdMissLowPerSec, L); s != 1 {
		t.Fatalf("one-way policy granted %d", s)
	}
}

// TestIATWarmupAdoptsBaseline: the first decided sample is a silent
// warmup, and Reset() forces the next one to warm up again.
func TestIATWarmupAdoptsBaseline(t *testing.T) {
	p, mix := NewIAT(), tally{}
	s := sample(LowKeep, 2, 0)
	if a := mix.decide(p, s); !a.Warmup {
		t.Fatalf("first decision = %+v, want warmup", a)
	}
	if a := mix.decide(p, s); a.Warmup || !a.Stable || a.Desc.String() != "stable" {
		t.Fatalf("identical second sample = %+v, want stable", a)
	}
	p.Reset()
	if a := mix.decide(p, s); !a.Warmup {
		t.Fatal("post-Reset decision should warm up")
	}
	if want := (tally{"warmup": 2, "stable": 1}); !maps.Equal(mix, want) {
		t.Fatalf("decision mix = %v, want %v", mix, want)
	}
}

// TestIATContinueProgression: Reclaim keeps shrinking DDIO on stable
// samples and announces the Low Keep entry, exactly like the daemon did.
func TestIATContinueProgression(t *testing.T) {
	p := NewIAT()
	s := sample(Reclaim, 3, 0)
	p.Decide(s) // warmup
	a := p.Decide(s)
	if !a.Continue || a.DDIOWays != 2 || a.Desc.String() != "continue: ddio=2" {
		t.Fatalf("first continue = %+v", a)
	}
	s = sample(Reclaim, 2, 0)
	a = p.Decide(s)
	if !a.Continue || a.DDIOWays != 1 || a.Desc.String() != "continue: ddio=1 ->LowKeep" || a.State != LowKeep {
		t.Fatalf("boundary continue = %+v", a)
	}
}

// TestIATSelectCoreDemandQuirk pins the faithful port of the daemon's
// zero-delta selection: without a stack group, the FIRST I/O group in
// registration order wins regardless of miss rates.
func TestIATSelectCoreDemandQuirk(t *testing.T) {
	s := sample(CoreDemand, 2, 5e6)
	s.Groups = []GroupView{
		{CLOS: 3, IO: true, Width: 2, MissRate: 0.1},
		{CLOS: 1, IO: true, Width: 2, MissRate: 0.9},
		{CLOS: 2, Width: 2, MissRate: 0.5},
	}
	if g := selectCoreDemand(s); g == nil || g.CLOS != 3 {
		t.Fatalf("selected %+v, want first registered I/O group (clos 3)", g)
	}
	// A stack group always wins.
	s.Groups = append(s.Groups, GroupView{CLOS: 7, Stack: true, Width: 2})
	// Still clos 3: the stack group was registered later but stack scan
	// runs first over registration order.
	if g := selectCoreDemand(s); g == nil || g.CLOS != 7 {
		t.Fatalf("selected %+v, want stack group (clos 7)", g)
	}
}

// TestReclaimVictimSelection: the tenant reclaim path picks the
// lowest-reference-rate group among quiet, multi-way groups.
func TestReclaimVictimSelection(t *testing.T) {
	s := sample(Reclaim, 1, 5e6) // DDIO at min and loud: tenant path
	s.Groups = []GroupView{
		{CLOS: 1, Width: 2, MissRate: 0.01, RefsPS: 500},
		{CLOS: 2, Width: 2, MissRate: 0.01, RefsPS: 100}, // victim
		{CLOS: 3, Width: 1, MissRate: 0.01, RefsPS: 1},   // single-way: exempt
		{CLOS: 4, Width: 4, MissRate: 0.9, RefsPS: 1},    // busy: exempt
	}
	a := reclaimOne(s)
	if a.Shrink != Ref(2) || a.Desc.String() != "-1 way clos 2" {
		t.Fatalf("reclaim = %+v", a)
	}
	// Nothing eligible: "nothing to reclaim".
	s.Groups = s.Groups[2:]
	if a := reclaimOne(s); a.Desc.String() != "nothing to reclaim" || a.Shrink.Set {
		t.Fatalf("reclaim with no victim = %+v", a)
	}
}
