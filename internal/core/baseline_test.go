package core

import (
	"testing"

	"iatsim/internal/cache"
	"iatsim/internal/policy"
)

// The paper's Core-only and I/O-iso comparison points, run as policies
// under the daemon against the scripted mock.

// baselineSys is three single-core groups at two ways each, packed from
// way 0 (a: CLOS 1, performance-critical; b and c: CLOS 2 and 3, best
// effort), with DDIO on ways 9-10.
func baselineSys() *mockSys {
	return newMockSys([]TenantInfo{
		{Name: "a", Cores: []int{0}, CLOS: 1, Priority: PC},
		beTenant("b", 2, 1),
		beTenant("c", 3, 2),
	})
}

// baselineRig is a daemon running one of the comparison points over the
// mock, with the rig's clock and the policy's decision mix.
type baselineRig struct {
	d   *Daemon
	m   *mockSys
	now float64
	mix map[string]int
}

// mixWatch wraps a policy and counts its decisions by Classify class,
// each against the DDIO way count of the sample it was made on.
type mixWatch struct {
	policy.Policy
	mix map[string]int
}

func (w *mixWatch) Decide(s policy.Sample) policy.Actions {
	a := w.Policy.Decide(s)
	w.mix[policy.Classify(a, s.DDIOWays)]++
	return a
}

// newBaselineRig runs spec ("core-only" or "io-iso") over m.
func newBaselineRig(t *testing.T, m *mockSys, spec string, opts Options) *baselineRig {
	t.Helper()
	sp, err := policy.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	d := testDaemon(t, m, opts)
	w := &mixWatch{Policy: sp.New(), mix: map[string]int{}}
	if err := d.SetPolicy(w); err != nil {
		t.Fatal(err)
	}
	return &baselineRig{d: d, m: m, mix: w.mix}
}

// drive runs steps intervals. Core i misses missFor[i](step) times per
// interval (10 when unset) on twice that plus 100 references.
func (r *baselineRig) drive(steps int, missFor map[int]func(step int) uint64) {
	for s := 0; s < steps; s++ {
		for core := 0; core < 3; core++ {
			miss := uint64(10)
			if f, ok := missFor[core]; ok {
				miss = f(s)
			}
			r.m.advance(core, 1000, 2000, miss*2+100, miss)
		}
		r.now += r.d.P.IntervalNS
		r.d.Tick(r.now)
	}
}

// growing is a miss stream rising by per every interval.
func growing(per uint64) func(int) uint64 {
	return func(s int) uint64 { return per * uint64(s+1) }
}

func TestCoreOnlyGrowsIntoIdleWays(t *testing.T) {
	m := baselineSys()
	r := newBaselineRig(t, m, "core-only", Options{})
	r.drive(8, map[int]func(int) uint64{0: growing(100_000)})
	if got := m.masks[1].Count(); got <= 2 {
		t.Fatalf("demanding group stayed at %d ways", got)
	}
	// Core-only does not know DDIO sits on top: the grower moved to the
	// top of the packing order and took idle ways up to the DDIO ways.
	if m.masks[1].Highest() < 6 {
		t.Fatalf("growth did not come from the idle top: %v", m.masks[1])
	}
	if m.ddioWrites != 0 {
		t.Fatalf("core-only wrote the DDIO register %d times", m.ddioWrites)
	}
	if r.mix["grow-tenant"] == 0 {
		t.Fatalf("decision mix = %v, want tenant grows", r.mix)
	}
}

func TestCoreOnlyStopsWhenFull(t *testing.T) {
	m := baselineSys()
	r := newBaselineRig(t, m, "core-only", Options{})
	r.drive(20, map[int]func(int) uint64{0: growing(200_000)})
	total := 0
	for _, mask := range m.masks {
		total += mask.Count()
	}
	if total != 11 {
		t.Fatalf("total widths %d, want the whole 11-way LLC", total)
	}
	if r.mix["hold"] == 0 {
		t.Fatalf("decision mix = %v, want holds once the ways were full", r.mix)
	}
}

func TestIOIsoExcludesDDIOWays(t *testing.T) {
	m := baselineSys()
	r := newBaselineRig(t, m, "io-iso", Options{})
	r.drive(10, map[int]func(int) uint64{0: growing(150_000)})
	if m.masks[1].Count() <= 2 {
		t.Fatalf("demanding group did not grow: %v", m.masks[1])
	}
	for clos, mask := range m.masks {
		if mask.Overlaps(m.ddio) {
			t.Fatalf("clos %d mask %v overlaps DDIO %v under I/O-iso", clos, mask, m.ddio)
		}
	}
}

func TestIOIsoStealsFromBestEffort(t *testing.T) {
	m := baselineSys()
	// Fill the ways below DDIO: widths 3+3+3 = 9.
	m.masks[1] = cache.ContiguousMask(0, 3)
	m.masks[2] = cache.ContiguousMask(3, 3)
	m.masks[3] = cache.ContiguousMask(6, 3)
	r := newBaselineRig(t, m, "io-iso", Options{})
	r.drive(8, map[int]func(int) uint64{0: growing(150_000)})
	if m.masks[1].Count() <= 3 {
		t.Fatalf("PC group did not grow: %v", m.masks[1])
	}
	if m.masks[2].Count() >= 3 && m.masks[3].Count() >= 3 {
		t.Fatal("no best-effort group was shrunk")
	}
	if r.mix["grow-tenant"] == 0 {
		t.Fatalf("decision mix = %v, want the steals counted as tenant grows", r.mix)
	}
}

func TestIOIsoTracksExternalDDIOChange(t *testing.T) {
	m := baselineSys()
	m.masks[1] = cache.ContiguousMask(0, 3)
	m.masks[2] = cache.ContiguousMask(3, 3)
	m.masks[3] = cache.ContiguousMask(6, 3)
	r := newBaselineRig(t, m, "io-iso", Options{})
	r.drive(3, nil) // settle
	// The operator grows DDIO onto CLOS 3's top ways.
	m.ddio = cache.ContiguousMask(7, 4)
	r.drive(2, nil)
	for clos, mask := range m.masks {
		if mask.Overlaps(m.ddio) {
			t.Fatalf("clos %d mask %v overlaps the grown DDIO %v", clos, mask, m.ddio)
		}
	}
	// Repacked bottom-up; the group that no longer fits overlaps the
	// one below it.
	if m.masks[3] != cache.ContiguousMask(4, 3) {
		t.Fatalf("clos 3 = %v, want ways 4-6", m.masks[3])
	}
	if m.ddioWrites != 0 {
		t.Fatalf("io-iso wrote the DDIO register %d times", m.ddioWrites)
	}
}

func TestQuietSystemUnchanged(t *testing.T) {
	for _, spec := range []string{"core-only", "io-iso"} {
		m := baselineSys()
		r := newBaselineRig(t, m, spec, Options{})
		r.drive(6, nil)
		if m.maskWrites != 0 || m.ddioWrites != 0 {
			t.Fatalf("%s: quiet system reprogrammed: masks=%d ddio=%d", spec, m.maskWrites, m.ddioWrites)
		}
		if total, _ := r.d.Iterations(); total == 0 {
			t.Fatalf("%s: no iteration ran", spec)
		}
	}
}

// TestBaselineGrowerMovesToTop: groups adopt their programmed widths in
// registration order, and one grant moves the grower to the top of the
// packing order while the others keep theirs.
func TestBaselineGrowerMovesToTop(t *testing.T) {
	m := baselineSys()
	r := newBaselineRig(t, m, "core-only", Options{})
	// Core 1 (CLOS 2) jumps once, then holds its new rate.
	jump := func(s int) uint64 {
		if s < 3 {
			return 10
		}
		return 100_000
	}
	r.drive(8, map[int]func(int) uint64{1: jump})
	want := map[int]cache.WayMask{
		1: cache.ContiguousMask(0, 2),
		3: cache.ContiguousMask(2, 2),
		2: cache.ContiguousMask(4, 3),
	}
	for clos, w := range want {
		if m.masks[clos] != w {
			t.Fatalf("clos %d = %v, want %v (all masks %v)", clos, m.masks[clos], w, m.masks)
		}
	}
	if r.mix["grow-tenant"] != 1 {
		t.Fatalf("decision mix = %v, want exactly one grant", r.mix)
	}
}

// TestMasksIgnoredWhenTenantAdjustDisabled: the isolation switch holds
// for a policy that lays out the groups itself.
func TestMasksIgnoredWhenTenantAdjustDisabled(t *testing.T) {
	m := baselineSys()
	r := newBaselineRig(t, m, "core-only", Options{DisableTenantAdjust: true})
	r.drive(8, map[int]func(int) uint64{0: growing(100_000)})
	if m.maskWrites != 0 {
		t.Fatalf("tenant adjust disabled, yet %d mask writes", m.maskWrites)
	}
}
