// Crash/restart integration tests. These live in an external test
// package so they can assemble real hosts through internal/exp (which
// imports fleet) without an import cycle.
package fleet_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"iatsim/internal/exp"
	"iatsim/internal/faults"
	"iatsim/internal/fleet"
)

// crashFleetOpts is the shared shape: small and fast, with rounds enough
// for crashes, outages and rejoins to all happen inside the run.
func crashFleetOpts(hosts int) exp.FleetOpts {
	return exp.FleetOpts{
		Hosts:    hosts,
		Topology: "striped",
		Rollout:  "canary",
		Scale:    3200,
		Rounds:   8,
		RoundNS:  0.2e9, IntervalNS: 0.05e9,
	}
}

// heavyStorm arms the heavy profile (the only built-in with crash kinds)
// on the whole fleet for most of the run.
func heavyStorm(t *testing.T, target fleet.Cohort, seed int64) *fleet.Storm {
	t.Helper()
	prof, err := faults.ProfileByName("heavy")
	if err != nil {
		t.Fatal(err)
	}
	return &fleet.Storm{Profile: prof, Seed: seed, Target: target, StartRound: 1, Rounds: 5}
}

// runCrashStorm builds a fresh fleet and runs it under a fleet-wide
// heavy crash storm, returning the report, the hosts, and the rendered
// fleet CSV.
func runCrashStorm(t *testing.T, workers, checkpointEvery int) (*fleet.Report, []*fleet.Host, []byte) {
	t.Helper()
	o := crashFleetOpts(8)
	hosts, err := exp.BuildFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := exp.FleetPlan(o)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fleet.Run(fleet.Config{
		Hosts: hosts, Rounds: o.Rounds, RoundNS: o.RoundNS,
		Workers: workers, Plan: plan,
		Storm:           heavyStorm(t, fleet.CohortAll, 2),
		CheckpointEvery: checkpointEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := exp.WriteRowsCSV(&csv, rep.Rows); err != nil {
		t.Fatal(err)
	}
	return rep, hosts, csv.Bytes()
}

// TestFleetCrashRestartDeterminism: under a fleet-wide crash storm with
// per-round checkpointing, the fleet CSV, per-host observations, policy
// histories and restore counts are byte-identical at 1 worker and 8
// workers — host death and resurrection are part of the determinism
// contract, not an exception to it.
func TestFleetCrashRestartDeterminism(t *testing.T) {
	rep1, hosts1, csv1 := runCrashStorm(t, 1, 1)
	rep8, hosts8, csv8 := runCrashStorm(t, 8, 1)

	if !bytes.Equal(csv1, csv8) {
		t.Fatalf("fleet CSV differs between 1 and 8 workers:\n%s\nvs\n%s", csv1, csv8)
	}
	if fmt.Sprintf("%+v", rep1.Obs) != fmt.Sprintf("%+v", rep8.Obs) {
		t.Fatal("per-host observations differ between 1 and 8 workers")
	}
	for i := range hosts1 {
		if got, want := fmt.Sprint(hosts8[i].PolicyHistory()), fmt.Sprint(hosts1[i].PolicyHistory()); got != want {
			t.Fatalf("host %d policy history %s vs %s", i, got, want)
		}
		r1, f1 := hosts1[i].RestoreStats()
		r8, f8 := hosts8[i].RestoreStats()
		if r1 != r8 || f1 != f8 {
			t.Fatalf("host %d restore stats (%d,%d) vs (%d,%d)", i, r1, f1, r8, f8)
		}
	}

	// The run must actually exercise the machinery, or this test proves
	// nothing: hosts went down, and rejoining hosts restored state.
	down := 0
	for _, r := range rep1.Rows {
		down += r.HostsDown
	}
	if down == 0 {
		t.Fatal("crash storm produced no down hosts — raise the storm window or change its seed")
	}
	var restores uint64
	for _, h := range hosts1 {
		r, _ := h.RestoreStats()
		restores += r
	}
	if restores == 0 {
		t.Fatal("no host restored from a checkpoint during the storm")
	}
}

// TestFleetCheckpointingMatters: the same crash storm without
// checkpointing leaves rejoining hosts nothing to restore — every
// relaunch is a cold start.
func TestFleetCheckpointingMatters(t *testing.T) {
	rep, hosts, _ := runCrashStorm(t, 4, 0)
	down := 0
	for _, r := range rep.Rows {
		down += r.HostsDown
	}
	if down == 0 {
		t.Fatal("crash storm produced no down hosts")
	}
	for _, h := range hosts {
		if r, f := h.RestoreStats(); r != 0 || f != 0 {
			t.Fatalf("%s restored (%d) or failed (%d) without checkpointing enabled", h.Name, r, f)
		}
		if h.CheckpointBytes() != nil {
			t.Fatalf("%s has checkpoint bytes with checkpointing disabled", h.Name)
		}
	}
}

// TestHostRelaunchRestoreAndFallback drives the restore-or-cold path
// directly: a good checkpoint restores the daemon's accumulated state; a
// corrupt or future-version one falls back to a cold start and counts a
// restore failure — never a panic, never an error that stops the fleet.
func TestHostRelaunchRestoreAndFallback(t *testing.T) {
	o := crashFleetOpts(1)
	o.Rounds = 3
	hosts, err := exp.BuildFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := exp.FleetPlan(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.Run(fleet.Config{
		Hosts: hosts, Rounds: o.Rounds, RoundNS: o.RoundNS,
		Workers: 1, Plan: plan, CheckpointEvery: 1,
	}); err != nil {
		t.Fatal(err)
	}
	h := hosts[0]
	itersBefore, _ := h.Daemon.Iterations()
	if itersBefore == 0 {
		t.Fatal("daemon accumulated no iterations to checkpoint")
	}
	good := h.CheckpointBytes()
	if len(good) == 0 {
		t.Fatal("no checkpoint was taken")
	}

	// Good checkpoint: the relaunched daemon carries on where it was.
	h.Relaunch()
	if iters, _ := h.Daemon.Iterations(); iters != itersBefore {
		t.Fatalf("restored daemon has %d iterations, want %d", iters, itersBefore)
	}
	if r, f := h.RestoreStats(); r != 1 || f != 0 {
		t.Fatalf("restore stats = (%d,%d), want (1,0)", r, f)
	}

	// Flipped payload byte: checksum mismatch, cold start.
	bad := append([]byte(nil), good...)
	bad[len(bad)-2] ^= 0x08
	h.SetCheckpointBytes(bad)
	h.Relaunch()
	if iters, _ := h.Daemon.Iterations(); iters != 0 {
		t.Fatalf("corrupt checkpoint restored %d iterations, want cold start", iters)
	}
	if r, f := h.RestoreStats(); r != 1 || f != 1 {
		t.Fatalf("restore stats = (%d,%d), want (1,1)", r, f)
	}

	// Future envelope version: typed rejection, cold start.
	future := append([]byte(nil), good...)
	future[4]++
	h.SetCheckpointBytes(future)
	h.Relaunch()
	if r, f := h.RestoreStats(); r != 1 || f != 2 {
		t.Fatalf("restore stats = (%d,%d), want (1,2)", r, f)
	}

	// No checkpoint at all: plain cold start, no failure counted.
	h.SetCheckpointBytes(nil)
	h.Relaunch()
	if r, f := h.RestoreStats(); r != 1 || f != 2 {
		t.Fatalf("restore stats = (%d,%d), want (1,2)", r, f)
	}

	// And the good bytes still work after all that.
	h.SetCheckpointBytes(good)
	h.Relaunch()
	if iters, _ := h.Daemon.Iterations(); iters != itersBefore {
		t.Fatalf("final restore has %d iterations, want %d", iters, itersBefore)
	}
	if r, f := h.RestoreStats(); r != 2 || f != 2 {
		t.Fatalf("restore stats = (%d,%d), want (2,2)", r, f)
	}
}

// checkpointedFleet runs a small fleet with two shadow policies for
// three rounds, checkpointing every host after every round.
func checkpointedFleet(t *testing.T) []*fleet.Host {
	t.Helper()
	o := crashFleetOpts(4)
	o.Rounds = 3
	o.Shadow = "static:2,ioca"
	hosts, err := exp.BuildFleet(o)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := exp.FleetPlan(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.Run(fleet.Config{
		Hosts: hosts, Rounds: o.Rounds, RoundNS: o.RoundNS,
		Workers: 1, Plan: plan, CheckpointEvery: 1,
	}); err != nil {
		t.Fatal(err)
	}
	return hosts
}

// TestHostCheckpointGolden pins the exact bytes of every host's
// checkpoint after three rounds (counter baselines, policy state, both
// shadows' counterfactual machines) by one SHA-256 over all of them.
func TestHostCheckpointGolden(t *testing.T) {
	h := sha256.New()
	for _, host := range checkpointedFleet(t) {
		data := host.CheckpointBytes()
		for _, want := range []string{`"prev_cum":{`, `"shadow_state":`} {
			if !bytes.Contains(data, []byte(want)) {
				t.Fatalf("%s checkpoint lacks %s", host.Name, want)
			}
		}
		h.Write(data)
	}
	const golden = "1e231bc3386413abbc34a2ac1399861d3bef6dc5c4b0c3e8ecf4be3ff3970412"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != golden {
		t.Fatalf("fleet checkpoints sha256 = %s, want %s", got, golden)
	}
}

// TestHostCheckpointAllocs: a steady-state checkpoint (daemon, policy
// and two shadows encoded into the host's reused buffers) stays within
// a dozen allocations, and re-encodes the same state to the same bytes.
func TestHostCheckpointAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	h := checkpointedFleet(t)[0]
	want := h.CheckpointBytes()
	var err error
	allocs := testing.AllocsPerRun(20, func() { err = h.Checkpoint() })
	if err != nil {
		t.Fatal(err)
	}
	if got := h.CheckpointBytes(); !bytes.Equal(got, want) {
		t.Fatal("re-checkpointing unchanged state changed the bytes")
	}
	if allocs > 12 {
		t.Fatalf("Host.Checkpoint allocates %.1f times, want <= 12", allocs)
	}
	t.Logf("Host.Checkpoint: %.1f allocs", allocs)
}
