package exp

import (
	"testing"
)

// testFleetOpts is a fleet small and time-compressed enough to run under
// -race: 4 hosts, striped mixes, a canary rollout over 6 rounds.
func testFleetOpts() FleetOpts {
	return FleetOpts{
		Hosts:      4,
		Topology:   "striped",
		Rollout:    "canary",
		Scale:      3200,
		Rounds:     6,
		RoundNS:    0.2e9,
		IntervalNS: 0.05e9,
	}
}

// TestFleetCanaryStormRollsBack is the rollout acceptance criterion: a
// correlated fault storm seeded onto the canary cohort degrades it, the
// controller detects the regression against the control cohort and rolls
// the canary back automatically — and the control cohort never sees the
// new policy at all.
func TestFleetCanaryStormRollsBack(t *testing.T) {
	t.Cleanup(func() { SetExec(Exec{}) })
	SetExec(Exec{Jobs: 4})
	o := testFleetOpts()
	o.Hosts = 8
	o.Storm = "heavy"
	rep, hosts, err := RunFleet(nil, o)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RolledBack {
		t.Fatal("canary-cohort fault storm did not trigger an automatic rollback")
	}
	if rep.FinalOnNew != 0 {
		t.Fatalf("FinalOnNew = %d after rollback, want 0", rep.FinalOnNew)
	}
	last := rep.Rows[len(rep.Rows)-1]
	if last.Phase != "rolled-back" || !last.RolledBack {
		t.Fatalf("final round row %+v, want rolled-back", last)
	}
	// The canary (host 0) went old -> new -> old; every control host
	// stayed on the old policy the whole run.
	want := []string{"ddio-max6", "ddio-max4", "ddio-max6"}
	got := hosts[0].PolicyHistory()
	if len(got) != len(want) {
		t.Fatalf("canary policy history = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("canary policy history = %v, want %v", got, want)
		}
	}
	for _, h := range hosts[1:] {
		hist := h.PolicyHistory()
		if len(hist) != 1 || hist[0] != "ddio-max6" {
			t.Errorf("%s policy history = %v, want [ddio-max6] only", h.Name, hist)
		}
	}
	// Per-round fault deltas must stay sane after the storm window ends:
	// disarming retires the storm's cumulative count, and an underflow
	// here would show up as a near-2^64 delta.
	for round, obs := range rep.Obs {
		for _, ob := range obs {
			if ob.Faults > 1<<40 {
				t.Errorf("round %d host %d: fault delta %d underflowed", round, ob.Host, ob.Faults)
			}
		}
	}
}

// TestFleetNoStormPromotes sanity-checks the happy path: with no storm
// the canary bakes clean and the whole fleet ends on the new policy.
func TestFleetNoStormPromotes(t *testing.T) {
	t.Cleanup(func() { SetExec(Exec{}) })
	SetExec(Exec{Jobs: 2})
	o := testFleetOpts()
	rep, hosts, err := RunFleet(nil, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RolledBack {
		t.Fatal("storm-free rollout rolled back")
	}
	if rep.FinalOnNew != o.Hosts {
		t.Fatalf("FinalOnNew = %d, want %d", rep.FinalOnNew, o.Hosts)
	}
	for _, h := range hosts {
		if h.Policy() != "ddio-max4" {
			t.Errorf("%s ended on %q, want ddio-max4", h.Name, h.Policy())
		}
	}
}

// TestFleetPolicyChangeRollsBack stages a decision-engine change (IAT ->
// greedy) instead of the parameter tightening, storms the canary cohort,
// and asserts the existing canary/rollback machinery handles it: the
// canary's engine goes IAT -> greedy -> IAT while every control host
// keeps running the IAT engine untouched.
func TestFleetPolicyChangeRollsBack(t *testing.T) {
	t.Cleanup(func() { SetExec(Exec{}) })
	SetExec(Exec{Jobs: 4})
	o := testFleetOpts()
	o.Hosts = 8
	o.Storm = "heavy"
	o.Policy = "greedy"
	rep, hosts, err := RunFleet(nil, o)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RolledBack {
		t.Fatal("stormed policy-change canary did not roll back")
	}
	want := []string{"iat", "greedy", "iat"}
	got := hosts[0].PolicyHistory()
	if len(got) != len(want) {
		t.Fatalf("canary policy history = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("canary policy history = %v, want %v", got, want)
		}
	}
	// The rollback must revert the canary's engine, not just its label.
	if n := hosts[0].Daemon.Policy().Name(); n != "iat" {
		t.Errorf("canary daemon ended on engine %q, want iat after rollback", n)
	}
	for _, h := range hosts[1:] {
		hist := h.PolicyHistory()
		if len(hist) != 1 || hist[0] != "iat" {
			t.Errorf("%s policy history = %v, want [iat] only", h.Name, hist)
		}
		if n := h.Daemon.Policy().Name(); n != "iat" {
			t.Errorf("%s daemon runs engine %q, want iat", h.Name, n)
		}
	}
}

// TestFleetPolicyChangePromotes is the happy path of an engine rollout:
// with no storm the change bakes clean and every host's daemon ends on
// the new engine.
func TestFleetPolicyChangePromotes(t *testing.T) {
	t.Cleanup(func() { SetExec(Exec{}) })
	SetExec(Exec{Jobs: 2})
	o := testFleetOpts()
	o.Policy = "static:2"
	rep, hosts, err := RunFleet(nil, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RolledBack {
		t.Fatal("storm-free engine rollout rolled back")
	}
	for _, h := range hosts {
		if h.Policy() != "static:2" {
			t.Errorf("%s ended on %q, want static:2", h.Name, h.Policy())
		}
		if n := h.Daemon.Policy().Name(); n != "static:2" {
			t.Errorf("%s daemon runs engine %q, want static:2", h.Name, n)
		}
	}
}

// TestFleetShadowsAttach: with Shadow set, every host daemon carries a
// shadow evaluator that actually ticked, and its divergence counters
// landed in the host's telemetry registry.
func TestFleetShadowsAttach(t *testing.T) {
	t.Cleanup(func() { SetExec(Exec{}) })
	SetExec(Exec{Jobs: 2})
	o := testFleetOpts()
	o.Rounds = 3
	o.Shadow = "static:2,greedy"
	_, hosts, err := RunFleet(nil, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hosts {
		ev := h.Daemon.Shadows()
		if ev == nil || ev.Empty() {
			t.Fatalf("%s has no shadow evaluator", h.Name)
		}
		sums := ev.Summaries()
		if len(sums) != 2 || sums[0].Name != "static:2" || sums[1].Name != "greedy" {
			t.Fatalf("%s shadow summaries = %+v", h.Name, sums)
		}
		for _, s := range sums {
			if s.Ticks == 0 {
				t.Errorf("%s shadow %s never ticked", h.Name, s.Name)
			}
		}
	}
}

func TestFleetTopologies(t *testing.T) {
	for _, topo := range TopologyNames() {
		names := map[string]bool{}
		for id := 0; id < 8; id++ {
			name, _, err := mixFor(topo, id)
			if err != nil {
				t.Fatal(err)
			}
			names[name] = true
		}
		if topo == "uniform" && len(names) != 1 {
			t.Errorf("uniform topology has %d mixes", len(names))
		}
		if topo != "uniform" && len(names) < 2 {
			t.Errorf("%s topology has %d mixes, want >= 2", topo, len(names))
		}
	}
	if _, _, err := mixFor("mesh", 0); err == nil {
		t.Error("unknown topology accepted")
	}
}
