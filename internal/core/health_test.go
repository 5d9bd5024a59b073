package core

import (
	"errors"
	"math"
	"testing"

	"iatsim/internal/cache"
	"iatsim/internal/policy"
	"iatsim/internal/telemetry"
)

// flakySys is a mockSys whose mask writes can be made to fail.
type flakySys struct {
	*mockSys
	failCLOS int  // reject this many SetCLOSMask calls, then recover
	failDDIO bool // reject every SetDDIOMask call
}

func (f *flakySys) SetCLOSMask(clos int, w cache.WayMask) error {
	if f.failCLOS > 0 {
		f.failCLOS--
		return errors.New("injected wrmsr failure")
	}
	return f.mockSys.SetCLOSMask(clos, w)
}

func (f *flakySys) SetDDIOMask(w cache.WayMask) error {
	if f.failDDIO {
		return errors.New("injected wrmsr failure")
	}
	return f.mockSys.SetDDIOMask(w)
}

func TestProgramCLOSRetriesAndVerifies(t *testing.T) {
	fs := &flakySys{mockSys: newMockSys([]TenantInfo{ioTenant("fwd", 1, 0, PC)})}
	d := testDaemon(t, fs, Options{})

	// Two failures with the default two retries: the third attempt lands.
	fs.failCLOS = 2
	m := cache.ContiguousMask(0, 3)
	if !d.programCLOS(1, m) {
		t.Fatal("write did not succeed within retry budget")
	}
	if fs.masks[1] != m {
		t.Fatalf("register holds %v, want %v", fs.masks[1], m)
	}
	h := d.Health()
	if h.WriteRetries != 2 || h.WriteFailures != 0 {
		t.Fatalf("health after recovered write: %+v", h)
	}

	// More failures than the retry budget: counted as a write failure.
	fs.failCLOS = 5
	if d.programCLOS(1, cache.ContiguousMask(0, 4)) {
		t.Fatal("write claimed success while every attempt failed")
	}
	h = d.Health()
	if h.WriteFailures != 1 || !d.writeFailedIter {
		t.Fatalf("health after exhausted retries: %+v (failedIter=%v)", h, d.writeFailedIter)
	}
}

// glitch feeds one interval whose sample must fail the sanity screen:
// misses vastly exceeding references is physically impossible.
func glitch(m *mockSys, tick func()) {
	m.advance(0, 1000, 2000, 0, 10_000_000)
	m.advanceDDIO(1000, 10)
	tick()
}

func TestSampleRejectPreservesBaseline(t *testing.T) {
	m := newMockSys([]TenantInfo{ioTenant("fwd", 1, 0, PC)})
	d := testDaemon(t, m, Options{})
	reg := telemetry.NewRegistry()
	d.Tel = reg
	now := 0.0
	tick := func() { now += 100e6; d.Tick(now) }
	steady(m, tick)
	steady(m, tick)

	glitch(m, tick)
	h := d.Health()
	if h.SampleRejects != 1 || h.Degraded {
		t.Fatalf("health after one glitch: %+v", h)
	}
	if m.maskWrites != 0 || m.ddioWrites != 0 {
		t.Fatal("rejected sample reprogrammed registers")
	}
	if got := reg.Counter("daemon", "", "sanity_rejects").Value(); got != 1 {
		t.Fatalf("sanity_rejects counter = %d", got)
	}
	evs := reg.Events(telemetry.SevWarn, "daemon")
	if len(evs) != 1 || evs[0].Name != "sample_reject" {
		t.Fatalf("warn events = %+v", evs)
	}

	// The glitched sample must not have become the comparison baseline:
	// the next sane interval compares against the last sane rates and
	// reads as stable.
	steady(m, tick)
	if _, unstable := d.Iterations(); unstable != 0 {
		t.Fatalf("sane interval after a glitch read as unstable (%d)", unstable)
	}
}

func TestDaemonDegradesAndRearms(t *testing.T) {
	m := newMockSys([]TenantInfo{ioTenant("fwd", 1, 0, PC)})
	d := testDaemon(t, m, Options{})
	reg := telemetry.NewRegistry()
	d.Tel = reg
	var degradedIters int
	d.OnIteration = func(info IterationInfo) {
		if info.Degraded {
			degradedIters++
		}
	}
	now := 0.0
	tick := func() { now += 100e6; d.Tick(now) }
	steady(m, tick)
	steady(m, tick)

	// degradeAfter (3) consecutive rejected samples force the fallback.
	glitch(m, tick)
	glitch(m, tick)
	glitch(m, tick)
	h := d.Health()
	if !h.Degraded || h.Degradations != 1 || h.SampleRejects != 3 {
		t.Fatalf("health after degrade: %+v", h)
	}
	if d.State() != policy.LowKeep {
		t.Fatalf("degraded state = %v, want LowKeep", d.State())
	}
	if want := cache.ContiguousMask(11-d.P.safeDDIOWays(), d.P.safeDDIOWays()); m.ddio != want {
		t.Fatalf("fallback DDIO mask = %v, want %v", m.ddio, want)
	}
	if degradedIters == 0 {
		t.Fatal("IterationInfo never reported Degraded")
	}

	// rearmAfter (2) consecutive sane samples re-arm the FSM.
	steady(m, tick) // hold
	if !d.Health().Degraded {
		t.Fatal("re-armed after a single sane sample")
	}
	steady(m, tick) // re-arm
	h = d.Health()
	if h.Degraded || h.Rearms != 1 {
		t.Fatalf("health after re-arm: %+v", h)
	}
	if got := reg.Counter("daemon", "", "rearms").Value(); got != 1 {
		t.Fatalf("rearms counter = %d", got)
	}

	// Normal operation resumes from a fresh baseline.
	before, _ := d.Iterations()
	steady(m, tick)
	steady(m, tick)
	if after, _ := d.Iterations(); after <= before {
		t.Fatal("daemon stopped iterating after re-arm")
	}
}

func TestDaemonDegradesOnPersistentWriteFailures(t *testing.T) {
	fs := &flakySys{
		mockSys:  newMockSys([]TenantInfo{ioTenant("fwd", 1, 0, PC)}),
		failDDIO: true,
	}
	d := testDaemon(t, fs, Options{})
	now := 0.0
	tick := func() { now += 100e6; d.Tick(now) }
	steady(fs.mockSys, tick)
	steady(fs.mockSys, tick)
	// Sustained I/O demand: every iteration tries to grow DDIO and every
	// write fails, so the daemon must fall back after degradeAfter (3).
	for i := 1; i <= 3; i++ {
		fs.advance(0, 1000, 2000, 100, 10)
		fs.advanceDDIO(100_000, uint64(1_000_000+i*300_000)/10)
		tick()
	}
	h := d.Health()
	if !h.Degraded || h.Degradations != 1 {
		t.Fatalf("health after persistent write failures: %+v", h)
	}
	if h.WriteFailures < 3 {
		t.Fatalf("write failures = %d, want >= 3", h.WriteFailures)
	}
	// The CLOS registers were never put in an invalid state.
	for clos, m := range fs.masks {
		if m == 0 || !m.Contiguous() {
			t.Fatalf("clos %d holds invalid mask %v", clos, m)
		}
	}
	// Once writes heal, sane samples re-arm the daemon.
	fs.failDDIO = false
	steady(fs.mockSys, tick)
	steady(fs.mockSys, tick)
	if h := d.Health(); h.Degraded || h.Rearms != 1 {
		t.Fatalf("health after writes healed: %+v", h)
	}
}

// degradeOnce feeds degradeAfter consecutive glitches, forcing one
// degradation.
func degradeOnce(t *testing.T, d *Daemon, m *mockSys, tick func()) {
	t.Helper()
	before := d.Health().Degradations
	for i := 0; i < degradeAfter; i++ {
		glitch(m, tick)
	}
	if h := d.Health(); !h.Degraded || h.Degradations != before+1 {
		t.Fatalf("degradation did not trigger: %+v", h)
	}
}

// rearm feeds sane intervals until the degraded daemon re-arms.
func rearm(t *testing.T, d *Daemon, m *mockSys, tick func()) {
	t.Helper()
	for i := 0; i < d.rearmNeed+1 && d.Health().Degraded; i++ {
		steady(m, tick)
	}
	if d.Health().Degraded {
		t.Fatalf("daemon still degraded after %d sane samples", d.rearmNeed)
	}
}

func TestRearmBackoffDoublesAndCapsAtEightX(t *testing.T) {
	m := newMockSys([]TenantInfo{ioTenant("fwd", 1, 0, PC)})
	d := testDaemon(t, m, Options{})
	now := 0.0
	tick := func() { now += 100e6; d.Tick(now) }
	steady(m, tick)
	steady(m, tick)

	// rearmAfter=2: successive degradations must require 2, 4, 8, 16 sane
	// samples, then stay capped at 8x = 16.
	want := []int{2, 4, 8, 16, 16, 16}
	for i, w := range want {
		degradeOnce(t, d, m, tick)
		if d.rearmNeed != w {
			t.Fatalf("degradation %d: rearmNeed = %d, want %d", i+1, d.rearmNeed, w)
		}
		rearm(t, d, m, tick)
	}
	if h := d.Health(); h.BackoffResets != 0 {
		t.Fatalf("backoff reset without a sustained clean run: %+v", h)
	}
}

func TestRearmBackoffResetsAfterRecovery(t *testing.T) {
	m := newMockSys([]TenantInfo{ioTenant("fwd", 1, 0, PC)})
	d := testDaemon(t, m, Options{})
	reg := telemetry.NewRegistry()
	d.Tel = reg
	now := 0.0
	tick := func() { now += 100e6; d.Tick(now) }
	steady(m, tick)
	steady(m, tick)

	// Two degradations leave the backoff doubled (4 sane samples needed).
	degradeOnce(t, d, m, tick)
	rearm(t, d, m, tick)
	degradeOnce(t, d, m, tick)
	if d.rearmNeed != 2*rearmAfter {
		t.Fatalf("rearmNeed = %d, want %d", d.rearmNeed, 2*rearmAfter)
	}
	rearm(t, d, m, tick)

	// One clean iteration short of the reset threshold: backoff persists.
	for i := 0; i < backoffResetFactor*rearmAfter-1; i++ {
		steady(m, tick)
	}
	if h := d.Health(); h.BackoffResets != 0 || d.rearmNeed == 0 {
		t.Fatalf("backoff reset early: resets=%d rearmNeed=%d", h.BackoffResets, d.rearmNeed)
	}
	// The final clean iteration clears it.
	steady(m, tick)
	h := d.Health()
	if h.BackoffResets != 1 || d.rearmNeed != 0 {
		t.Fatalf("backoff not reset: resets=%d rearmNeed=%d", h.BackoffResets, d.rearmNeed)
	}
	if got := reg.Counter("daemon", "", "backoff_resets").Value(); got != 1 {
		t.Fatalf("backoff_resets counter = %d", got)
	}

	// The next degradation starts from the base requirement again.
	degradeOnce(t, d, m, tick)
	if d.rearmNeed != rearmAfter {
		t.Fatalf("rearmNeed after reset = %d, want %d", d.rearmNeed, rearmAfter)
	}
}

func TestSetParamsClampsAndValidates(t *testing.T) {
	m := newMockSys([]TenantInfo{ioTenant("fwd", 1, 0, PC)})
	d := testDaemon(t, m, Options{})
	now := 0.0
	tick := func() { now += 100e6; d.Tick(now) }
	steady(m, tick)
	steady(m, tick)

	// Sustained I/O demand grows the DDIO allocation past 4 ways.
	for i := 1; i <= 6; i++ {
		m.advance(0, 1000, 2000, 100, 10)
		m.advanceDDIO(100_000, uint64(1_000_000+i*300_000)/10)
		tick()
	}
	if d.DDIOWays() <= 4 {
		t.Fatalf("setup: ddioWays = %d, want > 4", d.DDIOWays())
	}

	// An invalid update must be rejected and leave P untouched.
	bad := d.P
	bad.DDIOWaysMax = 0
	if err := d.SetParams(bad); err == nil {
		t.Fatal("invalid params accepted")
	}
	if d.P.DDIOWaysMax != 6 {
		t.Fatalf("failed update mutated P: %+v", d.P)
	}

	// A tighter way budget clamps the live allocation and reprograms the
	// register.
	p := d.P
	p.DDIOWaysMax = 4
	if err := d.SetParams(p); err != nil {
		t.Fatal(err)
	}
	if d.DDIOWays() != 4 {
		t.Fatalf("ddioWays = %d, want clamped to 4", d.DDIOWays())
	}
	if want := cache.ContiguousMask(11-4, 4); m.ddio != want {
		t.Fatalf("DDIO register = %v, want %v", m.ddio, want)
	}

	// The daemon keeps iterating under the new parameters.
	before, _ := d.Iterations()
	steady(m, tick)
	steady(m, tick)
	if after, _ := d.Iterations(); after <= before {
		t.Fatal("daemon stopped iterating after SetParams")
	}
	if d.DDIOWays() > 4 {
		t.Fatalf("ddioWays %d exceeds new max", d.DDIOWays())
	}
}

func TestRobustnessDefaultsAndValidation(t *testing.T) {
	p := DefaultParams()
	if p.SaneRateMax != 1e12 || p.safeDDIOWays() != 2 || saneIPCMax != 16 || writeRetries != 2 ||
		degradeAfter != 3 || rearmAfter != 2 {
		t.Fatalf("robustness defaults: %+v, safe ddio %d", p, p.safeDDIOWays())
	}
	// The safe fallback is two ways clamped into the DDIO bounds in force.
	for _, c := range []struct{ min, max, want int }{
		{1, 1, 1}, {1, 6, 2}, {3, 6, 3}, {2, 2, 2},
	} {
		q := p
		q.DDIOWaysMin, q.DDIOWaysMax = c.min, c.max
		if got := q.safeDDIOWays(); got != c.want {
			t.Errorf("safe ddio ways under [%d,%d] = %d, want %d", c.min, c.max, got, c.want)
		}
	}
	for _, v := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := p
		bad.SaneRateMax = v
		if err := bad.Validate(11); err == nil {
			t.Errorf("SaneRateMax %v accepted", v)
		}
	}
}
