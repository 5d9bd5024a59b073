package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"iatsim/internal/cli"
	"iatsim/internal/exp"
	"iatsim/internal/harness"
	"iatsim/internal/telemetry"
)

// smokeArgs is a fleet small and time-compressed enough for a unit test.
func smokeArgs(extra ...string) []string {
	args := []string{
		"-hosts", "4", "-rounds", "4",
		"-round", "0.2", "-interval", "0.05", "-scale", "3200",
	}
	return append(args, extra...)
}

// TestFleetdDeterministicAcrossJobs runs the same fleet at -jobs 1 and
// -jobs 4 and requires byte-identical stdout, aggregate CSV and telemetry
// snapshots — the binary-level form of the fleet determinism contract.
func TestFleetdDeterministicAcrossJobs(t *testing.T) {
	run1 := runFleetd(t, "1")
	run4 := runFleetd(t, "4")
	for name, pair := range map[string][2]string{
		"stdout":     {run1.stdout, run4.stdout},
		"fleet.csv":  {run1.csv, run4.csv},
		"controller": {run1.controller, run4.controller},
		"hosts":      {run1.hosts, run4.hosts},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s differs between -jobs 1 and -jobs 4:\n--- jobs=1\n%s\n--- jobs=4\n%s", name, pair[0], pair[1])
		}
	}
	if !strings.Contains(run1.stdout, "fleetd: done;") {
		t.Fatalf("run did not complete:\n%s", run1.stdout)
	}
}

type fleetdRun struct {
	stdout, csv, controller, hosts string
}

func runFleetd(t *testing.T, jobs string) fleetdRun {
	t.Helper()
	dir := t.TempDir()
	var out bytes.Buffer
	err := run(smokeArgs(
		"-jobs", jobs, "-chaos", "default",
		"-csv", dir, "-telemetry", dir,
	), &out, io.Discard)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	return fleetdRun{
		// The output paths embed the per-test temp dir; normalise them so
		// the rest of stdout can be compared byte-for-byte.
		stdout:     strings.ReplaceAll(out.String(), dir, "DIR"),
		csv:        read("fleet.csv"),
		controller: read("controller.json"),
		hosts:      read("hosts.json"),
	}
}

// TestTelemetrySnapshotsValidate checks the controller and merged-host
// snapshots parse and self-validate.
func TestTelemetrySnapshotsValidate(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(smokeArgs("-telemetry", dir), &out, io.Discard); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, name := range []string{"controller.json", "hosts.json"} {
		snap, err := telemetry.ReadSnapshotFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := snap.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if len(snap.Metrics) == 0 {
			t.Errorf("%s: no metrics", name)
		}
	}
}

// TestManifestRecordsChaos checks the run manifest records the storm
// profile and seed for every run — "off" when no storm is armed.
func TestManifestRecordsChaos(t *testing.T) {
	readManifest := func(extra ...string) *harness.Manifest {
		t.Helper()
		dir := t.TempDir()
		var out bytes.Buffer
		if err := run(smokeArgs(append(extra, "-json", dir)...), &out, io.Discard); err != nil {
			t.Fatalf("run: %v\noutput:\n%s", err, out.String())
		}
		b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		m := new(harness.Manifest)
		if err := json.Unmarshal(b, m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := readManifest()
	if m.Options.Chaos != "off" || m.Options.ChaosSeed != 0 {
		t.Errorf("storm-free manifest records chaos=%q seed=%d, want off/0", m.Options.Chaos, m.Options.ChaosSeed)
	}
	if m.TotalJobs != 16 { // 4 hosts x 4 rounds
		t.Errorf("TotalJobs = %d, want 16", m.TotalJobs)
	}
	m = readManifest("-chaos", "heavy", "-chaos-seed", "7")
	if m.Options.Chaos != "heavy" || m.Options.ChaosSeed != 7 {
		t.Errorf("storm manifest records chaos=%q seed=%d, want heavy/7", m.Options.Chaos, m.Options.ChaosSeed)
	}
	if m.Options.CheckpointEvery != 1 {
		t.Errorf("manifest checkpoint_every = %d, want the default 1", m.Options.CheckpointEvery)
	}
	m = readManifest("-checkpoint-every", "3")
	if m.Options.CheckpointEvery != 3 {
		t.Errorf("manifest checkpoint_every = %d, want 3", m.Options.CheckpointEvery)
	}
}

// TestCheckpointEveryDisabled: -checkpoint-every 0 turns host
// checkpointing off and the run still completes (hosts that die in a
// storm cold start on rejoin).
func TestCheckpointEveryDisabled(t *testing.T) {
	var out bytes.Buffer
	if err := run(smokeArgs("-chaos", "heavy", "-checkpoint-every", "0"), &out, io.Discard); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "fleetd: done;") {
		t.Fatalf("run did not complete:\n%s", out.String())
	}
}

// TestUsageErrors checks every invalid invocation fails with the exit-2
// usage-error class before any simulation work happens.
func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-bogus"},
		{"-hosts", "x"},
		{"-hosts", "0"},
		{"-rounds", "0"},
		{"-round", "-1"},
		{"-interval", "0"},
		{"-scale", "-5"},
		{"-scale", "NaN"},
		{"-scale", "+Inf"},
		{"-round", "NaN"},
		{"-round", "Inf"},
		{"-interval", "NaN"},
		{"-interval", "1e300"},
		{"-jobs", "0"},
		{"-topology", "mesh"},
		{"-rollout", "yolo"},
		{"-chaos", "not-a-profile"},
		{"-policy", "bogus"},
		{"-policy", "static:0"},
		{"-shadow", "iat,iat"},
		{"-shadow", "greedy,bogus"},
		{"-checkpoint-every", "-1"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		err := run(args, &out, io.Discard)
		var ue cli.UsageError
		if !errors.As(err, &ue) {
			t.Errorf("args %v: got %v, want cli.UsageError", args, err)
		}
	}
	// A flag syntax error is printed by the flag package above the usage,
	// a bad value by cli.Exit: either way once, with exit 2.
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-bogus"}, "flag provided but not defined: -bogus"},
		{[]string{"-hosts", "0"}, "-hosts must be >= 1"},
	} {
		var stderr bytes.Buffer
		code := cli.Exit("fleetd", &stderr, run(tc.args, io.Discard, &stderr))
		if code != 2 || strings.Count(stderr.String(), tc.msg) != 1 {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and %q once", tc.args, code, stderr.String(), tc.msg)
		}
	}
}

// TestPolicyRolloutSmoke stages a decision-engine change through the CLI
// with shadows armed: the run completes, names the engine pair in the
// preamble, and reports fleet-wide shadow divergence.
func TestPolicyRolloutSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates several rounds of platform time")
	}
	var out bytes.Buffer
	err := run(smokeArgs("-policy", "static:2", "-shadow", "greedy"), &out, io.Discard)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "rollout canary (iat -> static:2)") {
		t.Errorf("preamble does not name the engine rollout:\n%s", s)
	}
	if !strings.Contains(s, "fleetd: shadow greedy:") {
		t.Errorf("missing fleet-wide shadow summary:\n%s", s)
	}
	if !strings.Contains(s, "fleetd: done;") {
		t.Fatalf("run did not complete:\n%s", s)
	}
}

// FuzzFleetdFlags feeds arbitrary command lines to the flag parser: it
// never panics, fails only with a cli.UsageError or flag.ErrHelp, and any options
// it accepts are finite and within the bounds a fleet run needs.
func FuzzFleetdFlags(f *testing.F) {
	f.Add("-scale NaN")
	f.Add("-round NaN")
	f.Add("-interval NaN -round Inf")
	f.Add("-hosts 4 -rounds 4 -round 0.2 -interval 0.05 -scale 3200 -chaos heavy -checkpoint-every 1")
	f.Add("-policy static:2 -shadow greedy,ioca -topology striped -rollout bigbang")
	f.Fuzz(func(t *testing.T, line string) {
		o, err := parseFlags(strings.Fields(line), io.Discard)
		if err != nil {
			var ue cli.UsageError
			if !errors.As(err, &ue) && !errors.Is(err, flag.ErrHelp) {
				t.Fatalf("%q: error %v is neither a cli.UsageError nor flag.ErrHelp", line, err)
			}
			return
		}
		span := func(v float64) bool { return v > 0 && !math.IsNaN(v) && !math.IsInf(v*1e9, 0) }
		if o.hosts < 1 || o.rounds < 1 || o.jobs < 1 || o.ckptEvery < 0 ||
			!span(o.roundSecs) || !span(o.interval) || !(o.scale > 0) || math.IsInf(o.scale, 0) ||
			!slices.Contains(exp.TopologyNames(), o.topology) {
			t.Fatalf("%q accepted out of bounds: %+v", line, o)
		}
	})
}
