package policy

import (
	"bytes"
	"slices"
	"testing"

	"iatsim/internal/cache"
)

// baselineSample is an 11-way sample with DDIO on ways 9-10 and one group
// per rate pair {MissPS, MissRate}: CLOS 1 performance-critical, the rest
// best effort, each two ways wide and packed from way 0.
func baselineSample(rates ...[2]float64) Sample {
	s := sample(LowKeep, 2, 0)
	for i, r := range rates {
		s.Groups = append(s.Groups, GroupView{
			CLOS: i + 1, BestEffort: i > 0, Width: 2, Mask: cache.ContiguousMask(2*i, 2),
			MissPS: r[0], MissRate: r[1],
		})
	}
	return s
}

// decideAfter warms p on prev and returns its decision on cur.
func decideAfter(p Policy, prev, cur Sample) Actions {
	if a := p.Decide(prev); !a.Warmup {
		panic("first decision after Reset is not a warmup")
	}
	return p.Decide(cur)
}

// TestBaselineGrowthBoundaries pins the growth rule of both comparison
// points: a relative miss growth strictly above 0.10, on a miss rate
// strictly above 0.05, with a previous rate of 0 read as 1e4/s.
func TestBaselineGrowthBoundaries(t *testing.T) {
	cases := []struct {
		name              string
		prevPS, curPS, mr float64
		grow              bool
	}{
		{"growth at threshold", 1e6, 1.1e6, 0.5, false},
		{"growth just above", 1e6, 1.1e6 + 1, 0.5, true},
		{"growth 0.20", 1e6, 1.2e6, 0.5, true},
		{"miss rate at floor", 1e6, 2e6, 0.05, false},
		{"miss rate just above", 1e6, 2e6, 0.0501, true},
		{"quiet prev at threshold", 0, 1.1e4, 0.5, false},
		{"quiet prev above", 0, 1.2e4, 0.5, true},
		{"shrinking", 2e6, 1e6, 0.5, false},
	}
	for _, c := range cases {
		for _, p := range []Policy{NewCoreOnly(), NewIOIso()} {
			prev := baselineSample([2]float64{c.prevPS, c.mr}, [2]float64{1e3, 0.01})
			cur := baselineSample([2]float64{c.curPS, c.mr}, [2]float64{1e3, 0.01})
			a := decideAfter(p, prev, cur)
			if a.Grow.Set != c.grow || (c.grow && a.Grow != Ref(1)) {
				t.Errorf("%s %s: decision %+v, want grow=%v", p.Name(), c.name, a, c.grow)
			}
		}
	}
}

// TestBaselineLayouts pins the packing: the grower moves to the top of
// the order, Core-only packs up to the full LLC, I/O-iso below DDIO and
// takes a way from the best-effort group missing least once the ways
// below DDIO are full.
func TestBaselineLayouts(t *testing.T) {
	quiet := [2]float64{1e3, 0.02}
	prev := baselineSample(quiet, [2]float64{1e6, 0.5}, quiet)
	cur := baselineSample(quiet, [2]float64{2e6, 0.5}, quiet)

	a := decideAfter(NewCoreOnly(), prev, cur)
	want := []cache.WayMask{cache.ContiguousMask(0, 2), cache.ContiguousMask(4, 3), cache.ContiguousMask(2, 2)}
	if a.State != CoreDemand || a.Grow != Ref(2) || a.Shrink.Set || !slices.Equal(a.Masks, want) {
		t.Fatalf("core-only grow = %+v, masks %v, want %v", a, a.Masks, want)
	}
	if got := a.Desc.String(); got != "+1 way clos 2" {
		t.Fatalf("desc = %q", got)
	}

	// Ways below DDIO full (3+2+2+2): I/O-iso takes a way from CLOS 4, the
	// best-effort group missing least. CLOS 1 misses less but is
	// performance-critical.
	full := func(growerPS float64) Sample {
		s := baselineSample([2]float64{1e3, 0.001}, [2]float64{growerPS, 0.5}, [2]float64{1e3, 0.03}, [2]float64{1e3, 0.01})
		s.Groups[0].BestEffort = false
		s.Groups[0].Width, s.Groups[0].Mask = 3, cache.ContiguousMask(0, 3)
		for i := 1; i < 4; i++ {
			s.Groups[i].Mask = cache.ContiguousMask(1+2*i, 2)
		}
		return s
	}
	a = decideAfter(NewIOIso(), full(1e6), full(2e6))
	want = []cache.WayMask{cache.ContiguousMask(0, 3), cache.ContiguousMask(6, 3), cache.ContiguousMask(3, 2), cache.ContiguousMask(5, 1)}
	if a.Grow != Ref(2) || a.Shrink != Ref(4) || !slices.Equal(a.Masks, want) {
		t.Fatalf("io-iso steal = %+v, masks %v, want %v", a, a.Masks, want)
	}
	// The grower never gives up its own way, even when it misses least.
	quieter := full(2e6)
	quieter.Groups[1].MissRate, quieter.Groups[2].MissRate, quieter.Groups[3].MissRate = 0.06, 0.2, 0.1
	if a := decideAfter(NewIOIso(), full(1e6), quieter); a.Grow != Ref(2) || a.Shrink != Ref(4) {
		t.Fatalf("io-iso steal from a quieter grower = %+v", a)
	}
	// Core-only at the same widths still has two idle ways (the DDIO
	// ways it does not know about).
	if a := decideAfter(NewCoreOnly(), full(1e6), full(2e6)); a.Shrink.Set || a.Masks[1] != cache.ContiguousMask(7, 3) {
		t.Fatalf("core-only at 9 ways = %+v, masks %v", a, a.Masks)
	}
}

// TestBaselineHoldsAndRepacks: Core-only with no idle way holds without
// a layout; I/O-iso repacks once on its first decision and whenever the
// DDIO mask moves, and holds otherwise.
func TestBaselineHoldsAndRepacks(t *testing.T) {
	quiet := [2]float64{1e3, 0.02}
	wide := func(s Sample) Sample {
		s.Groups = append([]GroupView(nil), s.Groups...)
		s.Groups[0].Width, s.Groups[0].Mask = 7, cache.ContiguousMask(0, 7)
		return s
	}
	prev := wide(baselineSample([2]float64{1e6, 0.5}, quiet, quiet))
	cur := wide(baselineSample([2]float64{2e6, 0.5}, quiet, quiet))
	a := decideAfter(NewCoreOnly(), prev, cur)
	if a.Stable || a.Grow.Set || a.Masks != nil || a.Desc.String() != "no idle way" {
		t.Fatalf("core-only with full ways = %+v", a)
	}
	if h := Classify(a, cur.DDIOWays); h != "hold" {
		t.Fatalf("class = %q, want hold", h)
	}

	p := NewIOIso()
	s := baselineSample(quiet, quiet, quiet)
	if a := decideAfter(p, s, s); a.Stable || a.Masks == nil || a.Desc.String() != "repacked below ddio" {
		t.Fatalf("first io-iso decision = %+v", a)
	}
	if a := p.Decide(s); !a.Stable || a.Masks != nil {
		t.Fatalf("io-iso with DDIO unchanged = %+v", a)
	}
	s.DDIOWays, s.DDIOMask = 6, cache.ContiguousMask(5, 6)
	a = p.Decide(s)
	want := []cache.WayMask{cache.ContiguousMask(0, 2), cache.ContiguousMask(2, 2), cache.ContiguousMask(3, 2)}
	if a.Masks == nil || !slices.Equal(a.Masks, want) || a.DDIOWays != 6 {
		t.Fatalf("io-iso after DDIO grew = %+v, masks %v, want %v", a, a.Masks, want)
	}
}

// TestBaselineSnapshotMidRun: a snapshot taken after the packing order
// moved restores into a fresh instance that decides identically, and
// neither comparison point accepts the other's snapshot.
func TestBaselineSnapshotMidRun(t *testing.T) {
	stream := func(i int) Sample {
		return baselineSample([2]float64{1e3, 0.02}, [2]float64{1e6 * float64(i+1), 0.5}, [2]float64{1e3, 0.02})
	}
	for _, mk := range []func() *Baseline{NewCoreOnly, NewIOIso} {
		orig, restored := mk(), mk()
		for i := 0; i < 3; i++ {
			orig.Decide(stream(i))
		}
		snap, err := orig.AppendSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if resnap, _ := restored.AppendSnapshot(nil); !bytes.Equal(snap, resnap) {
			t.Fatalf("%s: restore+snapshot not byte-identical:\n%s\nvs\n%s", orig.Name(), snap, resnap)
		}
		s := stream(3)
		s.Groups[0].MissPS, s.Groups[0].MissRate = 1e7, 0.5
		a, b := orig.Decide(s), restored.Decide(s)
		if a.Grow != b.Grow || !slices.Equal(a.Masks, b.Masks) {
			t.Fatalf("%s: restored decision %+v %v, want %+v %v", orig.Name(), b, b.Masks, a, a.Masks)
		}
	}
	snap, err := NewCoreOnly().AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewIOIso().Restore(snap); err == nil {
		t.Fatal("io-iso accepted a core-only snapshot")
	}
}

// TestBaselineDecideAllocatesNothing covers the paths the shared
// zero-alloc test's samples do not reach: grant, steal and repack.
func TestBaselineDecideAllocatesNothing(t *testing.T) {
	quiet := [2]float64{1e3, 0.02}
	lo := baselineSample([2]float64{1e6, 0.5}, quiet, quiet)
	hi := baselineSample([2]float64{4e6, 0.5}, quiet, quiet)
	for i := range hi.Groups {
		hi.Groups[i].Width = 3
	}
	for _, p := range []*Baseline{NewCoreOnly(), NewIOIso()} {
		i, grows := 0, 0
		step := func() {
			s := lo
			if i%2 == 1 {
				s = hi
				s.DDIOWays, s.DDIOMask = 2+i%4, cache.ContiguousMask(9-i%4, 2+i%4)
			}
			i++
			if Classify(p.Decide(s), s.DDIOWays) == "grow-tenant" {
				grows++
			}
		}
		for i < 4 {
			step()
		}
		grows = 0
		if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
			t.Errorf("%s: Decide allocates %.1f times, want 0", p.Name(), allocs)
		}
		if grows == 0 {
			t.Errorf("%s: measured decisions never granted a way", p.Name())
		}
	}
}
