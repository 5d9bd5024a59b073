package rdt

import (
	"testing"

	"iatsim/internal/cache"
	"iatsim/internal/msr"
)

func newTestController(t *testing.T) (*Controller, *msr.File) {
	t.Helper()
	f := msr.NewFile()
	c, err := New(Config{Cores: 4, Ways: 11, NumCLOS: 8, Slices: 18}, f)
	if err != nil {
		t.Fatal(err)
	}
	return c, f
}

func TestResetState(t *testing.T) {
	c, _ := newTestController(t)
	for clos := 0; clos < 8; clos++ {
		if m := c.CLOSMask(clos); m != cache.FullMask(11) {
			t.Fatalf("clos %d reset mask = %v", clos, m)
		}
	}
	for core := 0; core < 4; core++ {
		if c.CoreCLOS(core) != 0 {
			t.Fatalf("core %d not in CLOS 0 at reset", core)
		}
	}
}

func TestSetCLOSMaskValidation(t *testing.T) {
	c, _ := newTestController(t)
	if err := c.SetCLOSMask(1, cache.ContiguousMask(2, 3)); err != nil {
		t.Fatal(err)
	}
	// A rejection for the mask's shape is counted; the valid write above
	// and an out-of-range CLOS are not.
	cases := []struct {
		clos int
		m    cache.WayMask
		bad  bool
	}{
		{1, 0, true},                          // empty
		{1, cache.WayMask(0b101), true},       // non-contiguous
		{1, cache.ContiguousMask(9, 3), true}, // exceeds 11 ways
		{-1, cache.FullMask(2), false},        // clos out of range
		{8, cache.FullMask(2), false},         // clos out of range
		{8, 0, false},                         // clos out of range, empty mask
	}
	var want uint64
	for i, tc := range cases {
		if err := c.SetCLOSMask(tc.clos, tc.m); err == nil {
			t.Errorf("case %d: invalid mask accepted", i)
		}
		if tc.bad {
			want++
		}
		if got := c.BadMaskWrites(); got != want {
			t.Errorf("case %d: %d bad mask writes counted, want %d", i, got, want)
		}
	}
}

func TestAssocAndEffectiveMask(t *testing.T) {
	c, _ := newTestController(t)
	if err := c.SetCLOSMask(2, cache.ContiguousMask(4, 2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Assoc(1, 2); err != nil {
		t.Fatal(err)
	}
	if got := c.MaskForCore(1); got != cache.ContiguousMask(4, 2) {
		t.Fatalf("effective mask = %v", got)
	}
	if err := c.Assoc(9, 1); err == nil {
		t.Error("out-of-range core accepted")
	}
	if err := c.Assoc(0, 99); err == nil {
		t.Error("out-of-range clos accepted")
	}
}

func TestDDIOMaskValidation(t *testing.T) {
	c, _ := newTestController(t)
	if err := c.SetDDIOMask(cache.ContiguousMask(8, 3)); err != nil {
		t.Fatal(err)
	}
	if got := c.DDIOMask(); got != cache.ContiguousMask(8, 3) {
		t.Fatalf("ddio mask = %v", got)
	}
	// Empty, non-contiguous and past the last way: each is rejected and
	// counted (the valid write above is not).
	for i, m := range []cache.WayMask{0, cache.WayMask(0b1001), cache.ContiguousMask(9, 3)} {
		if err := c.SetDDIOMask(m); err == nil {
			t.Errorf("invalid DDIO mask %v accepted", m)
		}
		if got := c.BadMaskWrites(); got != uint64(i+1) {
			t.Errorf("after DDIO mask %v: %d bad mask writes counted, want %d", m, got, i+1)
		}
	}
}

func TestReadCoreCounters(t *testing.T) {
	c, f := newTestController(t)
	f.MapRead(msr.CoreCounterAddr(2, msr.EvInstructions), func() uint64 { return 1000 })
	f.MapRead(msr.CoreCounterAddr(2, msr.EvCycles), func() uint64 { return 2000 })
	f.MapRead(msr.CoreCounterAddr(2, msr.EvLLCRefs), func() uint64 { return 50 })
	f.MapRead(msr.CoreCounterAddr(2, msr.EvLLCMisses), func() uint64 { return 10 })
	cc := c.ReadCore(2)
	if cc.Instructions != 1000 || cc.Cycles != 2000 || cc.LLCRefs != 50 || cc.LLCMisses != 10 {
		t.Fatalf("counters = %+v", cc)
	}
	if ipc := cc.IPC(); ipc != 0.5 {
		t.Fatalf("IPC = %v", ipc)
	}
	if mr := cc.MissRate(); mr != 0.2 {
		t.Fatalf("miss rate = %v", mr)
	}
}

func TestReadDDIOSamplesOneSliceTimesSlices(t *testing.T) {
	c, f := newTestController(t)
	f.MapRead(msr.CHACounterAddr(0, msr.EvDDIOHit), func() uint64 { return 100 })
	f.MapRead(msr.CHACounterAddr(0, msr.EvDDIOMiss), func() uint64 { return 7 })
	d := c.ReadDDIO()
	if d.Hits != 100*18 || d.Misses != 7*18 {
		t.Fatalf("ddio counters = %+v (want x18 extrapolation)", d)
	}
}

func TestCounterArithmetic(t *testing.T) {
	a := CoreCounters{Instructions: 100, Cycles: 200, LLCRefs: 30, LLCMisses: 12}
	b := CoreCounters{Instructions: 40, Cycles: 100, LLCRefs: 10, LLCMisses: 2}
	d := a.Sub(b)
	if d.Instructions != 60 || d.Cycles != 100 || d.LLCRefs != 20 || d.LLCMisses != 10 {
		t.Fatalf("delta = %+v", d)
	}
	var agg CoreCounters
	agg.Add(a)
	agg.Add(b)
	if agg.Instructions != 140 {
		t.Fatalf("agg = %+v", agg)
	}
	var zero CoreCounters
	if zero.IPC() != 0 || zero.MissRate() != 0 {
		t.Fatal("zero counters should yield zero rates")
	}
	dd := DDIOCounters{Hits: 10, Misses: 5}.Sub(DDIOCounters{Hits: 4, Misses: 1})
	if dd.Hits != 6 || dd.Misses != 4 {
		t.Fatalf("ddio delta = %+v", dd)
	}
}

func TestBadConfigRejected(t *testing.T) {
	if _, err := New(Config{Cores: 0, Ways: 11}, msr.NewFile()); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := New(Config{Cores: 4, Ways: 40}, msr.NewFile()); err == nil {
		t.Error("40 ways accepted")
	}
}

func TestMBAThrottleValidation(t *testing.T) {
	c, _ := newTestController(t)
	if err := c.SetMBAThrottle(1, 50); err != nil {
		t.Fatal(err)
	}
	if c.MBAThrottle(1) != 50 {
		t.Fatalf("read back %d", c.MBAThrottle(1))
	}
	for _, bad := range []int{-10, 95, 55, 100} {
		if err := c.SetMBAThrottle(1, bad); err == nil {
			t.Errorf("throttle %d accepted", bad)
		}
	}
	if err := c.SetMBAThrottle(99, 10); err == nil {
		t.Error("out-of-range clos accepted")
	}
}

func TestMBAThrottleForCore(t *testing.T) {
	c, _ := newTestController(t)
	if err := c.SetMBAThrottle(2, 30); err != nil {
		t.Fatal(err)
	}
	if err := c.Assoc(1, 2); err != nil {
		t.Fatal(err)
	}
	if got := c.MBAThrottleForCore(1); got != 30 {
		t.Fatalf("effective throttle = %d", got)
	}
	if got := c.MBAThrottleForCore(0); got != 0 {
		t.Fatalf("unthrottled core reports %d", got)
	}
}
