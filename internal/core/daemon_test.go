package core

import (
	"bytes"
	"testing"

	"iatsim/internal/cache"
	"iatsim/internal/policy"
	"iatsim/internal/rdt"
)

// mockSys is a scriptable System: tests drive the counter streams and
// observe the register writes.
type mockSys struct {
	tenants []TenantInfo
	ways    int
	masks   map[int]cache.WayMask
	ddio    cache.WayMask

	cores map[int]rdt.CoreCounters
	ddioC rdt.DDIOCounters

	maskWrites int
	ddioWrites int
}

func newMockSys(tenants []TenantInfo) *mockSys {
	m := &mockSys{
		tenants: tenants,
		ways:    11,
		masks:   map[int]cache.WayMask{},
		ddio:    cache.ContiguousMask(9, 2),
		cores:   map[int]rdt.CoreCounters{},
	}
	pos := 0
	for _, t := range tenants {
		if _, ok := m.masks[t.CLOS]; !ok {
			m.masks[t.CLOS] = cache.ContiguousMask(pos, 2)
			pos += 2
		}
	}
	return m
}

func (m *mockSys) Tenants() []TenantInfo           { return m.tenants }
func (m *mockSys) NumWays() int                    { return m.ways }
func (m *mockSys) ReadCore(c int) rdt.CoreCounters { return m.cores[c] }
func (m *mockSys) ReadDDIO() rdt.DDIOCounters      { return m.ddioC }
func (m *mockSys) CLOSMask(clos int) cache.WayMask { return m.masks[clos] }
func (m *mockSys) DDIOMask() cache.WayMask         { return m.ddio }
func (m *mockSys) SetCLOSMask(clos int, w cache.WayMask) error {
	m.masks[clos] = w
	m.maskWrites++
	return nil
}
func (m *mockSys) SetDDIOMask(w cache.WayMask) error {
	m.ddio = w
	m.ddioWrites++
	return nil
}

// advance bumps a core's cumulative counters.
func (m *mockSys) advance(core int, instr, cycles, refs, misses uint64) {
	c := m.cores[core]
	c.Instructions += instr
	c.Cycles += cycles
	c.LLCRefs += refs
	c.LLCMisses += misses
	m.cores[core] = c
}

func (m *mockSys) advanceDDIO(hits, misses uint64) {
	m.ddioC.Hits += hits
	m.ddioC.Misses += misses
}

// ioTenant/beTenant helpers.
func ioTenant(name string, clos, core int, prio Priority) TenantInfo {
	return TenantInfo{Name: name, Cores: []int{core}, CLOS: clos, IO: true, Priority: prio}
}

func beTenant(name string, clos, core int) TenantInfo {
	return TenantInfo{Name: name, Cores: []int{core}, CLOS: clos, Priority: BE}
}

// testDaemon builds a daemon with a 100ms interval over sys.
func testDaemon(t *testing.T, sys System, opts Options) *Daemon {
	t.Helper()
	p := DefaultParams()
	p.IntervalNS = 100e6
	d, err := NewDaemon(sys, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// steady feeds one interval of unchanged rates.
func steady(m *mockSys, tick func()) {
	for _, t := range m.tenants {
		for _, c := range t.Cores {
			m.advance(c, 1000, 2000, 100, 10)
		}
	}
	m.advanceDDIO(1000, 10)
	tick()
}

func TestDaemonStableDoesNothing(t *testing.T) {
	m := newMockSys([]TenantInfo{ioTenant("fwd", 1, 0, PC), beTenant("batch", 2, 1)})
	d := testDaemon(t, m, Options{})
	now := 0.0
	tick := func() { now += 100e6; d.Tick(now) }
	for i := 0; i < 8; i++ {
		steady(m, tick)
	}
	if m.maskWrites != 0 || m.ddioWrites != 0 {
		t.Fatalf("stable system reprogrammed: masks=%d ddio=%d", m.maskWrites, m.ddioWrites)
	}
	total, unstable := d.Iterations()
	if total < 5 || unstable != 0 {
		t.Fatalf("iterations=%d unstable=%d", total, unstable)
	}
}

func TestDaemonIODemandGrowsDDIOToHighKeep(t *testing.T) {
	m := newMockSys([]TenantInfo{ioTenant("fwd", 1, 0, PC)})
	d := testDaemon(t, m, Options{})
	now := 0.0
	tick := func() { now += 100e6; d.Tick(now) }
	steady(m, tick) // baseline
	steady(m, tick) // first rates
	// Sustained, growing DDIO misses above THRESHOLD_MISS_LOW.
	for i := 1; i <= 10; i++ {
		m.advance(0, 1000, 2000, 100, 10)
		m.advanceDDIO(100_000, uint64(1_000_000+i*200_000)/10)
		tick()
	}
	if got := m.ddio.Count(); got != d.P.DDIOWaysMax {
		t.Fatalf("DDIO ways = %d, want max %d", got, d.P.DDIOWaysMax)
	}
	if d.State() != policy.HighKeep {
		t.Fatalf("state = %v, want HighKeep", d.State())
	}
	// The mask must stay top-anchored and contiguous.
	if m.ddio != cache.ContiguousMask(11-d.P.DDIOWaysMax, d.P.DDIOWaysMax) {
		t.Fatalf("DDIO mask = %v", m.ddio)
	}
}

func TestDaemonReclaimsToLowKeep(t *testing.T) {
	m := newMockSys([]TenantInfo{ioTenant("fwd", 1, 0, PC)})
	d := testDaemon(t, m, Options{})
	now := 0.0
	tick := func() { now += 100e6; d.Tick(now) }
	steady(m, tick)
	steady(m, tick)
	// Push into I/O demand.
	for i := 1; i <= 8; i++ {
		m.advance(0, 1000, 2000, 100, 10)
		m.advanceDDIO(100_000, uint64(1_000_000+i*300_000)/10)
		tick()
	}
	grown := m.ddio.Count()
	if grown < 2 {
		t.Fatalf("precondition failed: ddio=%d", grown)
	}
	// Traffic drops away: misses collapse.
	for i := 0; i < 12; i++ {
		m.advance(0, 1000, 2000, 100, 10)
		m.advanceDDIO(100_000, 1)
		tick()
	}
	if got := m.ddio.Count(); got != d.P.DDIOWaysMin {
		t.Fatalf("DDIO ways after reclaim = %d, want %d", got, d.P.DDIOWaysMin)
	}
	if d.State() != policy.LowKeep {
		t.Fatalf("state = %v, want LowKeep", d.State())
	}
}

func TestDaemonCoreDemandGrowsStack(t *testing.T) {
	// Aggregation model: the software stack gets the way.
	m := newMockSys([]TenantInfo{
		{Name: "ovs", Cores: []int{0}, CLOS: 1, IO: true, Priority: Stack},
		ioTenant("c0", 2, 1, PC),
	})
	d := testDaemon(t, m, Options{})
	now := 0.0
	tick := func() { now += 100e6; d.Tick(now) }
	steady(m, tick)
	steady(m, tick)
	before := m.masks[1].Count()
	// High DDIO misses, FALLING hits, rising refs: Core Demand.
	hits := uint64(10_000_000)
	for i := 0; i < 4; i++ {
		m.advance(0, 1000, 2000, uint64(100_000*(i+2)), uint64(50_000*(i+2)))
		m.advance(1, 1000, 2000, 100, 10)
		hits = hits * 8 / 10
		m.advanceDDIO(hits/10, 400_000)
		tick()
	}
	if d.State() != policy.CoreDemand {
		t.Fatalf("state = %v, want CoreDemand", d.State())
	}
	if got := m.masks[1].Count(); got <= before {
		t.Fatalf("stack width %d did not grow (was %d)", got, before)
	}
}

func TestDaemonCase2GrowsQuietIOTenant(t *testing.T) {
	// No DDIO movement, but a tenant's IPC + LLC behaviour changed:
	// the core-side allocator grants a way (Sec. IV-B case 2).
	m := newMockSys([]TenantInfo{ioTenant("fwd", 1, 0, PC), beTenant("batch", 2, 1)})
	d := testDaemon(t, m, Options{})
	now := 0.0
	tick := func() { now += 100e6; d.Tick(now) }
	steady(m, tick)
	steady(m, tick)
	before := m.masks[2].Count()
	for i := 2; i < 6; i++ {
		m.advance(0, 1000, 2000, 100, 10)
		// batch's IPC halves while misses explode.
		m.advance(1, 1000, uint64(2000*i), uint64(100_000*i), uint64(80_000*i))
		m.advanceDDIO(1000, 10)
		tick()
	}
	if got := m.masks[2].Count(); got <= before {
		t.Fatalf("demanding tenant width %d did not grow (was %d)", got, before)
	}
}

func TestDaemonOptionsDisableActions(t *testing.T) {
	m := newMockSys([]TenantInfo{ioTenant("fwd", 1, 0, PC)})
	d := testDaemon(t, m, Options{DisableDDIOAdjust: true, DisableTenantAdjust: true})
	now := 0.0
	tick := func() { now += 100e6; d.Tick(now) }
	steady(m, tick)
	steady(m, tick)
	for i := 1; i <= 6; i++ {
		m.advance(0, 1000, 2000, 100, 10)
		m.advanceDDIO(100_000, uint64(1_000_000+i*300_000)/10)
		tick()
	}
	if m.ddioWrites != 0 {
		t.Fatalf("DDIO reprogrammed %d times with adjustment disabled", m.ddioWrites)
	}
	if m.ddio.Count() != 2 {
		t.Fatalf("ddio ways = %d", m.ddio.Count())
	}
}

func TestDaemonAdoptsExternalDDIOChange(t *testing.T) {
	m := newMockSys([]TenantInfo{ioTenant("fwd", 1, 0, PC)})
	d := testDaemon(t, m, Options{DisableDDIOAdjust: true})
	now := 0.0
	tick := func() { now += 100e6; d.Tick(now) }
	steady(m, tick)
	steady(m, tick)
	m.ddio = cache.ContiguousMask(7, 4) // operator flips the register
	steady(m, tick)
	if d.DDIOWays() != 4 {
		t.Fatalf("daemon's DDIO view = %d, want 4", d.DDIOWays())
	}
}

func TestDaemonShufflesLeastReferencingBEOntoDDIO(t *testing.T) {
	// Overcommitted layout: the quiet BE tenant must end up on top
	// (overlapping DDIO), the loud one below, PC lowest.
	m := newMockSys([]TenantInfo{
		ioTenant("pcapp", 1, 0, PC),
		beTenant("loud", 2, 1),
		beTenant("quiet", 3, 2),
	})
	// Widths 4+4+3 = 11: full occupancy, forced DDIO overlap (2 ways).
	m.masks[1] = cache.ContiguousMask(0, 4)
	m.masks[2] = cache.ContiguousMask(4, 4)
	m.masks[3] = cache.ContiguousMask(8, 3)
	d := testDaemon(t, m, Options{})
	now := 0.0
	tick := func() { now += 100e6; d.Tick(now) }
	loud := func() {
		m.advance(0, 1000, 2000, 1000, 100)
		m.advance(1, 1000, 2000, 900_000, 100) // loud BE: many refs
		m.advance(2, 1000, 2000, 1000, 100)    // quiet BE
		m.advanceDDIO(100_000, 500_000/10)
	}
	loud()
	tick()
	loud()
	tick()
	// Make DDIO misses spike so the FSM acts and re-layouts.
	for i := 1; i <= 4; i++ {
		loud()
		m.advanceDDIO(0, uint64(i)*300_000/10)
		tick()
	}
	ddio := m.ddio
	if !m.masks[3].Overlaps(ddio) {
		t.Fatalf("quiet BE (%v) does not share with DDIO (%v)", m.masks[3], ddio)
	}
	if m.masks[1].Overlaps(ddio) {
		t.Fatalf("PC tenant (%v) shares with DDIO (%v)", m.masks[1], ddio)
	}
}

func TestDaemonNotifyTenantsChangedResets(t *testing.T) {
	m := newMockSys([]TenantInfo{ioTenant("fwd", 1, 0, PC)})
	d := testDaemon(t, m, Options{})
	now := 0.0
	tick := func() { now += 100e6; d.Tick(now) }
	steady(m, tick)
	steady(m, tick)
	steady(m, tick)
	m.tenants = append(m.tenants, beTenant("new", 5, 3))
	m.masks[5] = cache.ContiguousMask(4, 2)
	d.NotifyTenantsChanged()
	// Must not panic and must pick up the new tenant on the next pass.
	steady(m, tick)
	steady(m, tick)
	steady(m, tick)
	total, _ := d.Iterations()
	if total == 0 {
		t.Fatal("daemon stopped iterating after tenant change")
	}
}

func TestDaemonInvalidParamsRejected(t *testing.T) {
	m := newMockSys([]TenantInfo{ioTenant("fwd", 1, 0, PC)})
	p := DefaultParams()
	p.DDIOWaysMax = 99
	if _, err := NewDaemon(m, p, Options{}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestDaemonIntervalGating(t *testing.T) {
	m := newMockSys([]TenantInfo{ioTenant("fwd", 1, 0, PC)})
	d := testDaemon(t, m, Options{})
	d.Tick(0)
	d.Tick(10e6) // inside the interval: must be skipped
	d.Tick(20e6)
	d.Tick(150e6) // next interval
	total, _ := d.Iterations()
	if total > 1 {
		t.Fatalf("interval gating failed: %d counted iterations", total)
	}
}

func TestUCPConvergesFasterThanOneWay(t *testing.T) {
	iters := func(g GrowthPolicy) int {
		m := newMockSys([]TenantInfo{ioTenant("fwd", 1, 0, PC)})
		p := DefaultParams()
		p.IntervalNS = 100e6
		p.Growth = g
		d, err := NewDaemon(m, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		now := 0.0
		tick := func() { now += 100e6; d.Tick(now) }
		steady(m, tick)
		steady(m, tick)
		n := 0
		for i := 1; i <= 20 && m.ddio.Count() < p.DDIOWaysMax; i++ {
			m.advance(0, 1000, 2000, 100, 10)
			m.advanceDDIO(100_000, uint64(4_000_000+i*400_000)/10)
			tick()
			n++
		}
		return n
	}
	one, ucp := iters(GrowOneWay), iters(GrowUCP)
	if ucp >= one {
		t.Fatalf("UCP (%d iters) not faster than one-way (%d)", ucp, one)
	}
}

func TestGrowthPolicyString(t *testing.T) {
	if GrowOneWay.String() != "one-way" || GrowUCP.String() != "ucp" {
		t.Error("growth policy strings wrong")
	}
	// Out-of-range values take the default branch and render the raw
	// value rather than an empty or aliased name.
	if got := GrowthPolicy(7).String(); got != "GrowthPolicy(7)" {
		t.Errorf("GrowthPolicy(7).String() = %q, want GrowthPolicy(7)", got)
	}
}

// churn feeds interval i of a load that swings the DDIO miss rate every
// interval, so every iteration after warm-up is unstable.
func churn(m *mockSys, i int) {
	for _, t := range m.tenants {
		for _, c := range t.Cores {
			m.advance(c, 1000, 2000, uint64(100+i%3*50), 10)
		}
	}
	if i%2 == 0 {
		m.advanceDDIO(100_000, 1_000_000)
	} else {
		m.advanceDDIO(100_000, 1)
	}
}

// TestUnstableTickAllocatesNothing: with no sink and no iteration hook,
// a steady-state unstable iteration (poll, screen, decide, re-allocate,
// program) allocates nothing.
func TestUnstableTickAllocatesNothing(t *testing.T) {
	m := newMockSys([]TenantInfo{ioTenant("fwd", 1, 0, PC), beTenant("a", 2, 1), beTenant("b", 3, 2)})
	d := testDaemon(t, m, Options{})
	i := 0
	tick := func() {
		churn(m, i)
		i++
		d.Tick(float64(i) * 100e6)
	}
	for i < 10 {
		tick()
	}
	_, before := d.Iterations()
	writes := m.maskWrites + m.ddioWrites
	const runs = 50
	allocs := testing.AllocsPerRun(runs, tick)
	if _, after := d.Iterations(); after-before != runs+1 {
		t.Fatalf("%d of %d measured iterations were unstable", after-before, runs+1)
	}
	if m.maskWrites+m.ddioWrites == writes {
		t.Fatal("no measured iteration programmed a register")
	}
	if allocs != 0 {
		t.Fatalf("unstable Tick allocates %.1f times per iteration, want 0", allocs)
	}
}

// prevWatch wraps the IAT policy and, on every Decide, checks that the
// policy's state (its retained prev sample) still encodes as it did right
// after the previous Decide. The daemon refills its sample buffer in
// place before each Decide, so this fails if a policy keeps the daemon's
// array instead of its own copy.
type prevWatch struct {
	*policy.IAT
	t      *testing.T
	last   []byte
	checks int
}

func (w *prevWatch) Decide(s policy.Sample) policy.Actions {
	if w.last != nil {
		now, err := w.IAT.AppendSnapshot(nil)
		if err != nil {
			w.t.Fatal(err)
		}
		if !bytes.Equal(now, w.last) {
			w.t.Fatalf("retained samples changed before the next Decide:\n%s\nvs\n%s", w.last, now)
		}
		w.checks++
	}
	a := w.IAT.Decide(s)
	var err error
	if w.last, err = w.IAT.AppendSnapshot(w.last[:0]); err != nil {
		w.t.Fatal(err)
	}
	return a
}

// TestRetainedPrevSampleSurvivesNextPoll: a policy's retained prev
// sample is unchanged by the daemon's next poll.
func TestRetainedPrevSampleSurvivesNextPoll(t *testing.T) {
	m := newMockSys([]TenantInfo{ioTenant("fwd", 1, 0, PC), beTenant("a", 2, 1), beTenant("b", 3, 2)})
	d := testDaemon(t, m, Options{})
	w := &prevWatch{IAT: policy.NewIAT(), t: t}
	if err := d.SetPolicy(w); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		churn(m, i)
		d.Tick(float64(i+1) * 100e6)
	}
	if w.checks < 15 {
		t.Fatalf("only %d polls checked", w.checks)
	}
}
