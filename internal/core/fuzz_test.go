package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"iatsim/internal/cache"
	"iatsim/internal/policy"
	"iatsim/internal/rdt"
)

// TestDaemonInvariantsUnderRandomCounterStreams drives the daemon with
// arbitrary (but monotone, as hardware counters are) counter streams and
// checks the safety invariants that must hold after EVERY iteration,
// whatever the FSM does:
//
//  1. every tenant mask stays contiguous and non-empty;
//  2. tenant masks never overlap each other (the paper's isolation rule);
//  3. the DDIO mask stays contiguous, top-anchored, and within
//     [DDIO_WAYS_MIN, DDIO_WAYS_MAX];
//  4. performance-critical tenants never share ways with DDIO while any
//     best-effort tenant exists that could take the overlap instead.
func TestDaemonInvariantsUnderRandomCounterStreams(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := newMockSys([]TenantInfo{
			ioTenant("fwd", 1, 0, PC),
			beTenant("be-a", 2, 1),
			beTenant("be-b", 3, 2),
			{Name: "pc-x", Cores: []int{3}, CLOS: 4, Priority: PC},
		})
		p := DefaultParams()
		p.IntervalNS = 100e6
		if rng.Intn(2) == 0 {
			p.Growth = GrowUCP
		}
		d, err := NewDaemon(m, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		now := 0.0
		for iter := 0; iter < 60; iter++ {
			for core := 0; core < 4; core++ {
				m.advance(core,
					uint64(rng.Intn(1_000_000)),
					uint64(rng.Intn(2_000_000)+1),
					uint64(rng.Intn(500_000)),
					uint64(rng.Intn(200_000)))
			}
			m.advanceDDIO(uint64(rng.Intn(2_000_000)), uint64(rng.Intn(600_000)))
			now += 100e6
			d.Tick(now)

			// (1) + (2): tenant masks valid and disjoint.
			masks := []cache.WayMask{m.masks[1], m.masks[2], m.masks[3], m.masks[4]}
			for i, mi := range masks {
				if mi == 0 || !mi.Contiguous() || mi.Highest() >= 11 {
					t.Logf("seed %d iter %d: bad mask %v", seed, iter, mi)
					return false
				}
				for j, mj := range masks {
					if i != j && mi.Overlaps(mj) {
						t.Logf("seed %d iter %d: masks %v and %v overlap", seed, iter, mi, mj)
						return false
					}
				}
			}
			// (3): DDIO mask bounds.
			dm := m.ddio
			if !dm.Contiguous() || dm.Highest() != 10 ||
				dm.Count() < p.DDIOWaysMin || dm.Count() > p.DDIOWaysMax {
				t.Logf("seed %d iter %d: bad DDIO mask %v", seed, iter, dm)
				return false
			}
			// (4): PC isolation whenever a BE overlap would suffice.
			overlapPC := m.masks[1].Overlaps(dm) || m.masks[4].Overlaps(dm)
			overlapBE := m.masks[2].Overlaps(dm) || m.masks[3].Overlaps(dm)
			if overlapPC && !overlapBE {
				t.Logf("seed %d iter %d: PC shares DDIO while BEs do not", seed, iter)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// faultySys wraps mockSys with seeded read glitches and write faults, the
// same failure modes internal/faults injects at the MSR layer. Every
// requested mask is validated at call time: a hardened daemon must never
// ask the hardware for an invalid allocation, no matter how its counter
// view is corrupted.
type faultySys struct {
	*mockSys
	rng        *rand.Rand
	glitchRate float64 // probability a counter read is corrupted
	rejectRate float64 // probability a mask write errors out
	dropRate   float64 // probability a mask write is silently ignored
	badMasks   int     // invalid masks the daemon requested (must stay 0)
}

func (f *faultySys) ReadCore(c int) rdt.CoreCounters {
	cc := f.mockSys.ReadCore(c)
	if f.rng.Float64() < f.glitchRate {
		if f.rng.Intn(2) == 0 {
			return rdt.CoreCounters{} // zeroed
		}
		sat := (uint64(1) << rdt.CounterBits) - 1
		return rdt.CoreCounters{Instructions: sat, Cycles: sat, LLCRefs: sat, LLCMisses: sat}
	}
	return cc
}

func (f *faultySys) ReadDDIO() rdt.DDIOCounters {
	dc := f.mockSys.ReadDDIO()
	if f.rng.Float64() < f.glitchRate {
		return rdt.DDIOCounters{}
	}
	return dc
}

func (f *faultySys) SetCLOSMask(clos int, w cache.WayMask) error {
	if w == 0 || !w.Contiguous() || w.Highest() >= f.ways {
		f.badMasks++
	}
	if f.rng.Float64() < f.rejectRate {
		return errors.New("injected wrmsr failure")
	}
	if f.rng.Float64() < f.dropRate {
		return nil // silently dropped: read-back will disagree
	}
	return f.mockSys.SetCLOSMask(clos, w)
}

func (f *faultySys) SetDDIOMask(w cache.WayMask) error {
	if w.Count() < 1 || !w.Contiguous() || w.Highest() >= f.ways {
		f.badMasks++
	}
	if f.rng.Float64() < f.rejectRate {
		return errors.New("injected wrmsr failure")
	}
	if f.rng.Float64() < f.dropRate {
		return nil
	}
	return f.mockSys.SetDDIOMask(w)
}

// TestDaemonInvariantsUnderFaults drives the daemon through random counter
// streams WITH injected read glitches and write faults, asserting that it
// (a) never requests an invalid mask, (b) never panics or wedges — every
// Tick returns and the FSM stays in a defined state — and (c) recovers once
// the faults stop: any degradation re-arms and iteration resumes.
func TestDaemonInvariantsUnderFaults(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fs := &faultySys{
			mockSys: newMockSys([]TenantInfo{
				ioTenant("fwd", 1, 0, PC),
				beTenant("be-a", 2, 1),
				beTenant("be-b", 3, 2),
			}),
			rng:        rng,
			glitchRate: 0.15,
			rejectRate: 0.2,
			dropRate:   0.1,
		}
		p := DefaultParams()
		p.IntervalNS = 100e6
		d, err := NewDaemon(fs, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		now := 0.0
		step := func() {
			for core := 0; core < 3; core++ {
				fs.advance(core,
					uint64(rng.Intn(1_000_000)),
					uint64(rng.Intn(2_000_000)+1),
					uint64(rng.Intn(500_000)),
					uint64(rng.Intn(200_000)))
			}
			fs.advanceDDIO(uint64(rng.Intn(2_000_000)), uint64(rng.Intn(600_000)))
			now += 100e6
			d.Tick(now)
		}
		for iter := 0; iter < 80; iter++ {
			step()
			if fs.badMasks != 0 {
				t.Logf("seed %d iter %d: daemon requested %d invalid masks", seed, iter, fs.badMasks)
				return false
			}
			if s := d.State(); s < policy.LowKeep || s > policy.Reclaim {
				t.Logf("seed %d iter %d: undefined FSM state %d", seed, iter, int(s))
				return false
			}
		}

		// Faults stop and the stream settles: the daemon must shed any
		// degradation (re-arm backoff caps at 8x rearmAfter = 16 samples)
		// and keep iterating.
		fs.glitchRate, fs.rejectRate, fs.dropRate = 0, 0, 0
		for i := 0; i < 25; i++ {
			steady(fs.mockSys, func() { now += 100e6; d.Tick(now) })
		}
		if d.Health().Degraded {
			t.Logf("seed %d: still degraded after faults stopped: %+v", seed, d.Health())
			return false
		}
		before, _ := d.Iterations()
		steady(fs.mockSys, func() { now += 100e6; d.Tick(now) })
		after, _ := d.Iterations()
		if after <= before {
			t.Logf("seed %d: daemon wedged after recovery", seed)
			return false
		}
		return fs.badMasks == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestDaemonNeverPanicsOnDegenerateTenants exercises odd tenant layouts.
func TestDaemonNeverPanicsOnDegenerateTenants(t *testing.T) {
	layouts := [][]TenantInfo{
		{},                           // no tenants at all
		{ioTenant("only", 1, 0, PC)}, // single tenant
		{beTenant("b1", 1, 0), beTenant("b2", 1, 1)}, // one group, two tenants
		{ // every priority class
			{Name: "s", Cores: []int{0}, CLOS: 1, Priority: Stack, IO: true},
			ioTenant("p", 2, 1, PC),
			beTenant("b", 3, 2),
		},
	}
	for i, tenants := range layouts {
		m := newMockSys(tenants)
		p := DefaultParams()
		p.IntervalNS = 100e6
		d, err := NewDaemon(m, p, Options{})
		if err != nil {
			t.Fatalf("layout %d: %v", i, err)
		}
		now := 0.0
		for iter := 0; iter < 10; iter++ {
			for _, tn := range tenants {
				for _, c := range tn.Cores {
					m.advance(c, 1000, 2000, uint64(100*iter), uint64(10*iter))
				}
			}
			m.advanceDDIO(uint64(1000*iter), uint64(500*iter*iter))
			now += 100e6
			d.Tick(now)
		}
	}
}
