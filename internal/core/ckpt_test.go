package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"iatsim/internal/policy"
)

// ckptTenants is the fixture every checkpoint test runs over.
func ckptTenants() []TenantInfo {
	return []TenantInfo{ioTenant("fwd", 1, 0, PC), beTenant("batch", 2, 1)}
}

// ckptLoad advances the mock counters for tick i of a deterministic
// schedule that alternates I/O pressure phases with quiet ones, so the
// FSM visits grow, keep and reclaim states.
func ckptLoad(m *mockSys, i int) {
	m.advance(0, 1000, 2000, 100, 10)
	m.advance(1, 1000, 2000, uint64(1000+i%5*400), 100)
	if i%11 < 6 {
		m.advanceDDIO(100_000, uint64(1_000_000+i*200_000)/10)
	} else {
		m.advanceDDIO(100_000, 1)
	}
}

// record wires a trace recorder onto d and returns the trace slice.
func record(d *Daemon) *[]string {
	var trace []string
	d.OnIteration = func(it IterationInfo) {
		trace = append(trace, fmt.Sprintf("%.0f %v stable=%v %q ddio=%d mask=%v masks=%v miss=%.3f deg=%v",
			it.NowNS, it.State, it.Stable, it.Action, it.DDIOWays, it.DDIOMask, it.Masks, it.DDIOMissPS, it.Degraded))
	}
	return &trace
}

// TestDaemonSnapshotRestoreContinuesIdentically: snapshot at tick k, hand
// the platform to a freshly constructed daemon, restore, and the trace
// from k+1 onward is identical to an uninterrupted run's — the tentpole
// guarantee at the core layer.
func TestDaemonSnapshotRestoreContinuesIdentically(t *testing.T) {
	const cut, total = 15, 32

	// Uninterrupted reference run.
	mRef := newMockSys(ckptTenants())
	dRef := testDaemon(t, mRef, Options{})
	refTrace := record(dRef)
	for i := 0; i < total; i++ {
		ckptLoad(mRef, i)
		dRef.Tick(float64(i+1) * 100e6)
	}

	// Interrupted run: same schedule up to the cut...
	m := newMockSys(ckptTenants())
	d1 := testDaemon(t, m, Options{})
	preTrace := record(d1)
	for i := 0; i < cut; i++ {
		ckptLoad(m, i)
		d1.Tick(float64(i+1) * 100e6)
	}
	var snap DaemonState
	if err := d1.SnapshotState(&snap); err != nil {
		t.Fatal(err)
	}
	// Snapshots must serialise deterministically.
	b1, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}

	// ... then the process dies; a new daemon over the same platform
	// restores the checkpoint and carries on.
	d2 := testDaemon(t, m, Options{})
	if err := d2.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	var resnap DaemonState
	if err := d2.SnapshotState(&resnap); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(resnap)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("restore+snapshot not byte-identical:\n%s\nvs\n%s", b1, b2)
	}
	postTrace := record(d2)
	for i := cut; i < total; i++ {
		ckptLoad(m, i)
		d2.Tick(float64(i+1) * 100e6)
	}

	got := append(append([]string{}, *preTrace...), *postTrace...)
	if len(got) != len(*refTrace) {
		t.Fatalf("resumed run emitted %d iterations, reference %d", len(got), len(*refTrace))
	}
	for i := range got {
		if got[i] != (*refTrace)[i] {
			t.Fatalf("iteration %d diverged after resume:\n got %s\nwant %s", i, got[i], (*refTrace)[i])
		}
	}
	if m.ddio != mRef.ddio {
		t.Fatalf("final DDIO mask %v, reference %v", m.ddio, mRef.ddio)
	}
	for clos, want := range mRef.masks {
		if m.masks[clos] != want {
			t.Fatalf("CLOS %d mask %v, reference %v", clos, m.masks[clos], want)
		}
	}
	gotIters, _ := d2.Iterations()
	refIters, _ := dRef.Iterations()
	if gotIters != refIters {
		t.Fatalf("iterations after resume = %d, reference %d", gotIters, refIters)
	}
}

// TestDaemonSnapshotCarriesShadows: an attached shadow evaluator's state
// rides in the daemon snapshot, and a restored daemon reproduces the
// uninterrupted run's shadow summaries.
func TestDaemonSnapshotCarriesShadows(t *testing.T) {
	specs, err := policy.ParseShadowSpecs("static:3,greedy")
	if err != nil {
		t.Fatal(err)
	}
	const cut, total = 12, 24

	mRef := newMockSys(ckptTenants())
	dRef := testDaemon(t, mRef, Options{})
	dRef.AttachShadows(policy.NewEvaluator(specs))
	for i := 0; i < total; i++ {
		ckptLoad(mRef, i)
		dRef.Tick(float64(i+1) * 100e6)
	}

	m := newMockSys(ckptTenants())
	d1 := testDaemon(t, m, Options{})
	d1.AttachShadows(policy.NewEvaluator(specs))
	for i := 0; i < cut; i++ {
		ckptLoad(m, i)
		d1.Tick(float64(i+1) * 100e6)
	}
	var snap DaemonState
	if err := d1.SnapshotState(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.ShadowState) == 0 {
		t.Fatal("snapshot carries no shadow state")
	}

	d2 := testDaemon(t, m, Options{})
	d2.AttachShadows(policy.NewEvaluator(specs))
	if err := d2.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	for i := cut; i < total; i++ {
		ckptLoad(m, i)
		d2.Tick(float64(i+1) * 100e6)
	}
	want, got := dRef.Shadows().Summaries(), d2.Shadows().Summaries()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shadow %d summary after resume = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestDaemonRestoreMismatch: checkpoints from a different configuration
// are rejected with ErrStateMismatch, and corrupt policy state is a
// plain error — never a panic.
func TestDaemonRestoreMismatch(t *testing.T) {
	m := newMockSys(ckptTenants())
	d := testDaemon(t, m, Options{})
	for i := 0; i < 6; i++ {
		ckptLoad(m, i)
		d.Tick(float64(i+1) * 100e6)
	}
	var snap DaemonState
	if err := d.SnapshotState(&snap); err != nil {
		t.Fatal(err)
	}

	fresh := func() *Daemon { return testDaemon(t, newMockSys(ckptTenants()), Options{}) }

	bad := snap
	bad.NWays = snap.NWays + 1
	if err := fresh().RestoreState(bad); !errors.Is(err, ErrStateMismatch) {
		t.Errorf("wrong way count: got %v, want ErrStateMismatch", err)
	}

	bad = snap
	bad.PolicyName = "greedy"
	if err := fresh().RestoreState(bad); !errors.Is(err, ErrStateMismatch) {
		t.Errorf("wrong policy: got %v, want ErrStateMismatch", err)
	}

	bad = snap
	bad.PolicyState = []byte("{corrupt")
	if err := fresh().RestoreState(bad); err == nil {
		t.Error("corrupt policy state accepted")
	}

	// Snapshot without shadows into a daemon that has shadows attached.
	specs, err := policy.ParseShadowSpecs("greedy")
	if err != nil {
		t.Fatal(err)
	}
	withShadows := fresh()
	withShadows.AttachShadows(policy.NewEvaluator(specs))
	if err := withShadows.RestoreState(snap); !errors.Is(err, ErrStateMismatch) {
		t.Errorf("shadow mismatch: got %v, want ErrStateMismatch", err)
	}
}

// TestDaemonRestartColdStarts: Restart drops all accumulated state and
// the daemon re-runs tenant discovery, exactly like a relaunched
// process that found no usable checkpoint.
func TestDaemonRestartColdStarts(t *testing.T) {
	m := newMockSys(ckptTenants())
	d := testDaemon(t, m, Options{})
	for i := 0; i < 10; i++ {
		ckptLoad(m, i)
		d.Tick(float64(i+1) * 100e6)
	}
	if iters, _ := d.Iterations(); iters == 0 {
		t.Fatal("no state accumulated to restart from")
	}

	d.Restart()
	if iters, unstable := d.Iterations(); iters != 0 || unstable != 0 {
		t.Fatalf("restart kept iteration counters: %d/%d", iters, unstable)
	}
	if d.State() != policy.LowKeep {
		t.Fatalf("state after restart = %v, want LowKeep", d.State())
	}
	if h := d.Health(); h != (HealthStats{}) {
		t.Fatalf("restart kept health state: %+v", h)
	}

	// The relaunched daemon adopts whatever the hardware still has
	// programmed and keeps iterating.
	before := m.ddio.Count()
	for i := 0; i < 5; i++ {
		ckptLoad(m, 100+i)
		d.Tick(float64(100+i+1) * 100e6)
	}
	if iters, _ := d.Iterations(); iters == 0 {
		t.Fatal("daemon stopped iterating after restart")
	}
	if d.DDIOWays() == 0 {
		t.Fatalf("daemon did not re-adopt the programmed DDIO mask (%d ways)", before)
	}
}
