package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iatsim/internal/ckpt"
	"iatsim/internal/cli"
	"iatsim/internal/harness"
	"iatsim/internal/telemetry"
)

// smokeTenants is a two-tenant scenario: a line-rate forwarder (I/O) and
// a cache-hungry batch job, with one scripted working-set event.
const smokeTenants = `
# name   cores  ways  priority  io   workload
fwd0     0      2     pc        io   testpmd:1500
batch    1      2     be        -    xmem:4
@0.6s    batch  xmem-ws 8
`

// runSmoke executes one short daemon run and returns its full output.
func runSmoke(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.conf")
	if err := os.WriteFile(path, []byte(smokeTenants), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-tenants", path, "-duration", "1", "-interval", "0.2"}, &out, io.Discard)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	return out.String()
}

// TestSmokeDeterministicRun is the iatd tier-1 smoke test: one short run
// completes, reports its iterations, and two identical invocations print
// byte-identical output (the repository's determinism guarantee applies
// to the daemon CLI too).
func TestSmokeDeterministicRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 1s of platform time")
	}
	first := runSmoke(t)
	if !strings.Contains(first, "iatd: 2 tenants, 1 events") {
		t.Fatalf("missing preamble in output:\n%s", first)
	}
	if !strings.Contains(first, "event: batch working set -> 8MB") {
		t.Fatalf("scripted event did not fire:\n%s", first)
	}
	if !strings.Contains(first, "iatd: done;") {
		t.Fatalf("run did not complete:\n%s", first)
	}
	second := runSmoke(t)
	if first != second {
		t.Fatalf("two identical runs diverged:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestTelemetryFlag runs the daemon with -telemetry and checks the
// snapshot triple exists, validates, and covers the platform layers the
// smoke scenario exercises (cache, DDIO, NIC, memory, daemon events).
func TestTelemetryFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 1s of platform time")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.conf")
	if err := os.WriteFile(path, []byte(smokeTenants), 0o644); err != nil {
		t.Fatal(err)
	}
	telDir := filepath.Join(dir, "tel")
	var out bytes.Buffer
	err := run([]string{"-tenants", path, "-duration", "1", "-interval", "0.2", "-telemetry", telDir}, &out, io.Discard)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	snap, err := telemetry.ReadSnapshotFile(filepath.Join(telDir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	subsystems := map[string]bool{}
	for _, m := range snap.Metrics {
		subsystems[m.Subsystem] = true
	}
	for _, want := range []string{"cache", "ddio", "mem", "nic"} {
		if !subsystems[want] {
			t.Errorf("snapshot missing %q metrics (got %v)", want, subsystems)
		}
	}
	daemonEvents := 0
	for _, ev := range snap.Events {
		if ev.Subsystem == "daemon" {
			daemonEvents++
		}
	}
	if daemonEvents == 0 {
		t.Error("snapshot has no daemon events")
	}
	data, err := os.ReadFile(filepath.Join(telDir, "snapshot.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateChromeTrace(data); err != nil {
		t.Fatal(err)
	}
}

// TestUsageErrors covers the CLI contract: a missing -tenants flag and a
// flag syntax error are usage errors (exit 2), and a missing tenant file
// is an error, not a crash.
func TestUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out, io.Discard); err != flag.ErrHelp {
		t.Fatalf("missing -tenants: err = %v, want flag.ErrHelp", err)
	}
	var ue cli.UsageError
	if err := run([]string{"-tenants", "t.conf", "-duration", "abc"}, &out, io.Discard); !errors.As(err, &ue) {
		t.Fatalf("-duration abc: err = %v, want cli.UsageError", err)
	}
	if err := run([]string{"-tenants", "/nonexistent/tenants.conf"}, &out, io.Discard); err == nil {
		t.Fatal("nonexistent tenant file should error")
	}
	// A flag syntax error is printed by the flag package above the usage,
	// a bad value by cli.Exit: either way once, with exit 2.
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-tenants", "t.conf", "-bogus"}, "flag provided but not defined: -bogus"},
		{[]string{"-tenants", "t.conf", "-duration", "0"}, "-duration must be positive"},
	} {
		var stderr bytes.Buffer
		code := cli.Exit("iatd", &stderr, run(tc.args, io.Discard, &stderr))
		if code != 2 || strings.Count(stderr.String(), tc.msg) != 1 {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and %q once", tc.args, code, stderr.String(), tc.msg)
		}
	}
}

// TestFlagValidation: bad flag values are rejected up front as usage
// errors (exit 2), with a message naming the flag, before any simulation
// work happens.
func TestFlagValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.conf")
	if err := os.WriteFile(path, []byte(smokeTenants), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero interval", []string{"-tenants", path, "-interval", "0"}, "-interval"},
		{"negative duration", []string{"-tenants", path, "-duration", "-1"}, "-duration"},
		{"zero scale", []string{"-tenants", path, "-scale", "0"}, "-scale"},
		{"NaN interval", []string{"-tenants", path, "-interval", "NaN"}, "-interval"},
		{"infinite interval", []string{"-tenants", path, "-interval", "+Inf"}, "-interval"},
		{"interval past float range in ns", []string{"-tenants", path, "-interval", "1e300"}, "-interval"},
		{"NaN duration", []string{"-tenants", path, "-duration", "NaN"}, "-duration"},
		{"infinite duration", []string{"-tenants", path, "-duration", "Inf"}, "-duration"},
		{"NaN scale", []string{"-tenants", path, "-scale", "NaN"}, "-scale"},
		{"infinite scale", []string{"-tenants", path, "-scale", "Inf"}, "-scale"},
		{"bad chaos profile", []string{"-tenants", path, "-chaos", "nosuch"}, "-chaos"},
		{"bad chaos spec", []string{"-tenants", path, "-chaos", "msr-reject=2.5"}, "-chaos"},
		{"unknown policy", []string{"-tenants", path, "-policy", "bogus"}, "-policy"},
		{"static ways out of range", []string{"-tenants", path, "-policy", "static:0"}, "-policy"},
		{"duplicate shadow", []string{"-tenants", path, "-shadow", "ioca,ioca"}, "-shadow"},
		{"unknown shadow", []string{"-tenants", path, "-shadow", "greedy,bogus"}, "-shadow"},
		{"shadow csv without shadows", []string{"-tenants", path, "-shadow-csv", "/tmp/x.csv"}, "-shadow-csv"},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		err := run(tc.args, &out, io.Discard)
		var ue cli.UsageError
		if !errors.As(err, &ue) {
			t.Errorf("%s: err = %v, want cli.UsageError", tc.name, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: message %q does not name %s", tc.name, err, tc.want)
		}
	}
}

// TestPolicyAndShadowFlags drives the daemon CLI on a non-IAT engine
// with shadow policies armed: the run completes, prints one divergence
// summary per shadow, and writes the per-tick divergence CSV.
func TestPolicyAndShadowFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 1s of platform time")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.conf")
	if err := os.WriteFile(path, []byte(smokeTenants), 0o644); err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(dir, "shadow.csv")
	var out bytes.Buffer
	err := run([]string{"-tenants", path, "-duration", "1", "-interval", "0.2",
		"-policy", "static:4", "-shadow", "iat,greedy", "-shadow-csv", csvPath}, &out, io.Discard)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{"iatd: shadow iat:", "iatd: shadow greedy:", "iatd: done;"} {
		if !strings.Contains(s, want) {
			t.Errorf("output lacks %q:\n%s", want, s)
		}
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "time_ns,policy,active_class,shadow_class,agree,active_ddio,shadow_ddio,hamming,shadow_desc" {
		t.Errorf("divergence CSV header = %q", lines[0])
	}
	if len(lines) < 3 {
		t.Errorf("divergence CSV has %d lines, want rows for both shadows", len(lines))
	}
}

// TestTelemetryDirValidation: an unwritable -telemetry target fails fast
// as a usage error instead of after the whole run.
func TestTelemetryDirValidation(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("root ignores directory permissions")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.conf")
	if err := os.WriteFile(path, []byte(smokeTenants), 0o644); err != nil {
		t.Fatal(err)
	}
	ro := filepath.Join(dir, "ro")
	if err := os.Mkdir(ro, 0o555); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-tenants", path, "-telemetry", filepath.Join(ro, "tel")}, &out, io.Discard)
	var ue cli.UsageError
	if !errors.As(err, &ue) {
		t.Fatalf("unwritable -telemetry: err = %v, want cli.UsageError", err)
	}
	if !strings.Contains(err.Error(), "-telemetry") {
		t.Fatalf("message %q does not name -telemetry", err)
	}
}

// TestChaosRunDeterministic: a chaos-mode run completes, reports injected
// faults and daemon health, and is byte-identical across invocations —
// the fault schedule derives only from -chaos-seed.
func TestChaosRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 1s of platform time")
	}
	path := filepath.Join(t.TempDir(), "tenants.conf")
	if err := os.WriteFile(path, []byte(smokeTenants), 0o644); err != nil {
		t.Fatal(err)
	}
	chaosRun := func(seed string) string {
		var out bytes.Buffer
		err := run([]string{"-tenants", path, "-duration", "1", "-interval", "0.2",
			"-chaos", "default", "-chaos-seed", seed}, &out, io.Discard)
		if err != nil {
			t.Fatalf("run: %v\noutput:\n%s", err, out.String())
		}
		return out.String()
	}
	first := chaosRun("7")
	if !strings.Contains(first, `chaos profile "default" armed`) {
		t.Fatalf("missing chaos preamble:\n%s", first)
	}
	if !strings.Contains(first, "iatd: chaos:") || !strings.Contains(first, "health:") {
		t.Fatalf("missing chaos/health summary:\n%s", first)
	}
	if !strings.Contains(first, "iatd: done;") {
		t.Fatalf("run did not complete:\n%s", first)
	}
	if second := chaosRun("7"); first != second {
		t.Fatalf("same chaos seed diverged:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if other := chaosRun("8"); first == other {
		t.Fatal("different chaos seeds produced identical output: seed is not reaching the schedule")
	}
}

// iterLines returns the per-iteration decision lines of a run's output
// (scripted-event lines are not iterations and are skipped).
func iterLines(s string) []string {
	var lines []string
	for _, l := range strings.Split(s, "\n") {
		if strings.HasPrefix(l, "[") && !strings.Contains(l, "] event:") {
			lines = append(lines, l)
		}
	}
	return lines
}

// findLine returns the first output line with the given prefix.
func findLine(s, prefix string) string {
	for _, l := range strings.Split(s, "\n") {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	return ""
}

func mustEqualFiles(t *testing.T, a, b string) {
	t.Helper()
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Errorf("%s and %s differ", a, b)
	}
}

// TestCheckpointResumeDeterministic is the kill-and-resume golden test:
// a run that crashes at iteration 10 under chaos, resumed from its last
// checkpoint (iteration 9), reproduces the uninterrupted run byte for
// byte — decision lines from iteration 7 onward, the full trace CSV, the
// telemetry snapshot, and the final checkpoint itself.
func TestCheckpointResumeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 4s of platform time three times")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.conf")
	if err := os.WriteFile(path, []byte(smokeTenants), 0o644); err != nil {
		t.Fatal(err)
	}
	base := []string{"-tenants", path, "-duration", "4", "-interval", "0.2", "-chaos", "default", "-chaos-seed", "7"}
	sub := func(parts ...string) []string { return append(append([]string(nil), base...), parts...) }
	ckFull, ckCrash, ckRes := filepath.Join(dir, "ck-full"), filepath.Join(dir, "ck-crash"), filepath.Join(dir, "ck-res")

	var full bytes.Buffer
	if err := run(sub("-trace", filepath.Join(dir, "full.csv"), "-telemetry", filepath.Join(dir, "tel-full"),
		"-checkpoint", ckFull, "-checkpoint-every", "3"), &full, io.Discard); err != nil {
		t.Fatalf("uninterrupted run: %v\noutput:\n%s", err, full.String())
	}

	var crashed bytes.Buffer
	err := run(sub("-checkpoint", ckCrash, "-checkpoint-every", "3", "-crash-after", "10"), &crashed, io.Discard)
	var ce crashError
	if !errors.As(err, &ce) || ce.iter != 10 {
		t.Fatalf("crashed run: err = %v, want crashError at iteration 10", err)
	}
	if strings.Contains(crashed.String(), "iatd: done;") {
		t.Fatal("crashed run printed a done line")
	}
	ckFile := filepath.Join(ckCrash, ckptFileName)
	c, err := ckpt.ReadFile(ckFile)
	if err != nil {
		t.Fatal(err)
	}
	if c.Iteration != 9 {
		t.Fatalf("last checkpoint at iteration %d, want 9", c.Iteration)
	}

	jsonDir := filepath.Join(dir, "json")
	var resumed bytes.Buffer
	if err := run(sub("-resume", ckFile, "-trace", filepath.Join(dir, "resumed.csv"), "-telemetry", filepath.Join(dir, "tel-res"),
		"-checkpoint", ckRes, "-checkpoint-every", "3", "-json", jsonDir), &resumed, io.Discard); err != nil {
		t.Fatalf("resumed run: %v\noutput:\n%s", err, resumed.String())
	}
	if !strings.Contains(resumed.String(), "iatd: resuming from") {
		t.Fatalf("missing resume banner:\n%s", resumed.String())
	}

	// Decision lines: the resumed run prints exactly the uninterrupted
	// run's tail from iteration 10 onward, and together with the crashed
	// run's output (minus its dying iteration) reassembles the whole
	// uninterrupted decision stream.
	fullIters := iterLines(full.String())
	resIters := iterLines(resumed.String())
	crashIters := iterLines(crashed.String())
	if len(fullIters) < 12 {
		t.Fatalf("uninterrupted run printed only %d iteration lines", len(fullIters))
	}
	if want, got := strings.Join(fullIters[9:], "\n"), strings.Join(resIters, "\n"); got != want {
		t.Fatalf("resumed tail differs:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if len(crashIters) != 10 {
		t.Fatalf("crashed run printed %d iteration lines, want 10", len(crashIters))
	}
	recombined := append(append([]string(nil), crashIters[:9]...), resIters...)
	if strings.Join(recombined, "\n") != strings.Join(fullIters, "\n") {
		t.Fatal("crashed+resumed decision lines do not reassemble the uninterrupted run")
	}
	for _, prefix := range []string{"iatd: done;", "iatd: chaos:"} {
		if fl, rl := findLine(full.String(), prefix), findLine(resumed.String(), prefix); fl == "" || fl != rl {
			t.Errorf("%q summary differs:\n%q\nvs\n%q", prefix, fl, rl)
		}
	}

	// Artifacts: the trace CSV and telemetry snapshots are byte-identical
	// in full, and the final checkpoints of both runs agree.
	mustEqualFiles(t, filepath.Join(dir, "full.csv"), filepath.Join(dir, "resumed.csv"))
	mustEqualFiles(t, filepath.Join(dir, "tel-full", "snapshot.json"), filepath.Join(dir, "tel-res", "snapshot.json"))
	mustEqualFiles(t, filepath.Join(dir, "tel-full", "snapshot.csv"), filepath.Join(dir, "tel-res", "snapshot.csv"))
	mustEqualFiles(t, filepath.Join(ckFull, ckptFileName), filepath.Join(ckRes, ckptFileName))

	// Manifest provenance ties the resumed run to the exact checkpoint
	// bytes it continued from.
	m, err := harness.ReadManifest(filepath.Join(jsonDir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	wantHash, err := ckpt.FileHash(ckFile)
	if err != nil {
		t.Fatal(err)
	}
	if m.Options.ResumedFrom != wantHash {
		t.Errorf("manifest resumed_from = %q, want %q", m.Options.ResumedFrom, wantHash)
	}
	if m.Options.ResumeIteration != 9 {
		t.Errorf("manifest resume_iteration = %d, want 9", m.Options.ResumeIteration)
	}
	if m.Options.CheckpointEvery != 3 {
		t.Errorf("manifest checkpoint_every = %d, want 3", m.Options.CheckpointEvery)
	}
	if m.Options.Chaos != "default" {
		t.Errorf("manifest chaos = %q, want default", m.Options.Chaos)
	}
}

// TestResumeAndCheckpointValidation: every malformed -resume target and
// checkpoint flag combination is rejected up front as a usage error
// (exit 2) before any simulation work, with a message naming the flag.
func TestResumeAndCheckpointValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.conf")
	if err := os.WriteFile(path, []byte(smokeTenants), 0o644); err != nil {
		t.Fatal(err)
	}
	expectUsage := func(name string, args []string, want string) {
		t.Helper()
		var out bytes.Buffer
		err := run(args, &out, io.Discard)
		var ue cli.UsageError
		if !errors.As(err, &ue) {
			t.Errorf("%s: err = %v, want cli.UsageError", name, err)
			return
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: message %q does not mention %q", name, err, want)
		}
	}

	expectUsage("missing resume file",
		[]string{"-tenants", path, "-resume", filepath.Join(dir, "nope.ckpt")}, "-resume")

	garbage := filepath.Join(dir, "garbage.ckpt")
	if err := os.WriteFile(garbage, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	expectUsage("garbage resume file", []string{"-tenants", path, "-resume", garbage}, "-resume")

	empty := filepath.Join(dir, "empty.ckpt")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	expectUsage("empty resume file", []string{"-tenants", path, "-resume", empty}, "-resume")

	data, err := ckpt.Marshal(&ckpt.Checkpoint{Iteration: 3})
	if err != nil {
		t.Fatal(err)
	}
	data[4]++ // version field starts right after the 4-byte magic
	future := filepath.Join(dir, "future.ckpt")
	if err := os.WriteFile(future, data, 0o644); err != nil {
		t.Fatal(err)
	}
	expectUsage("future version", []string{"-tenants", path, "-resume", future}, "version")

	zero := filepath.Join(dir, "zero.ckpt")
	if err := ckpt.WriteFile(zero, &ckpt.Checkpoint{ConfigHash: "x"}); err != nil {
		t.Fatal(err)
	}
	expectUsage("iteration-zero checkpoint", []string{"-tenants", path, "-resume", zero}, "-resume")

	mismatch := filepath.Join(dir, "mismatch.ckpt")
	if err := ckpt.WriteFile(mismatch, &ckpt.Checkpoint{Iteration: 4, ConfigHash: "0000000000000000"}); err != nil {
		t.Fatal(err)
	}
	expectUsage("config mismatch", []string{"-tenants", path, "-resume", mismatch}, "config hash")

	expectUsage("checkpoint-every without checkpoint",
		[]string{"-tenants", path, "-checkpoint-every", "3"}, "-checkpoint-every")
	expectUsage("zero checkpoint-every",
		[]string{"-tenants", path, "-checkpoint", filepath.Join(dir, "ck"), "-checkpoint-every", "0"}, "-checkpoint-every")
}

// tenTenants registers ten tenants, so the checkpoint's CLOS-keyed JSON
// objects hold keys 1..10, which encoding/json orders as strings ("10"
// before "2").
const tenTenants = `
fwd0  0  2  pc  io  testpmd:1500
b2    1  1  be  -   xmem:1
b3    2  1  be  -   xmem:1
b4    3  1  be  -   xmem:1
b5    4  1  be  -   xmem:1
b6    5  1  be  -   xmem:1
b7    6  1  be  -   xmem:1
b8    7  1  be  -   xmem:1
b9    8  1  be  -   xmem:1
b10   9  1  be  -   xmem:2
`

// TestCheckpointFileGolden pins the exact bytes of an iatd checkpoint
// file (daemon counter baselines for ten CLOS ids, IAT policy state,
// two shadows, injector state) by SHA-256. Any change to the encoding,
// its field order or its map-key order shows up here.
func TestCheckpointFileGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 1.6s of platform time")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.conf")
	if err := os.WriteFile(path, []byte(tenTenants), 0o644); err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(dir, "ck")
	var out bytes.Buffer
	if err := run([]string{"-tenants", path, "-duration", "1.6", "-interval", "0.2",
		"-chaos", "light", "-chaos-seed", "3", "-shadow", "static:2,ioca",
		"-checkpoint", ck, "-checkpoint-every", "2"}, &out, io.Discard); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	data, err := os.ReadFile(filepath.Join(ck, ckptFileName))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"prev_cum":{"1":`, `"10":`, `"shadow_state":`, `"injector":`} {
		if !bytes.Contains(data, []byte(want)) {
			t.Fatalf("checkpoint lacks %s:\n%s", want, data)
		}
	}
	const golden = "ec0739260e0533c86b336ccb7bb7d50ded8b50d41b32d5b95171333bcde92151"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != golden {
		t.Fatalf("checkpoint sha256 = %s, want %s", got, golden)
	}
}

// FuzzIatdFlags feeds arbitrary command lines to the flag parser: it
// never panics, fails only with a cli.UsageError or flag.ErrHelp, and any options
// it accepts are finite and within the bounds a run needs.
func FuzzIatdFlags(f *testing.F) {
	f.Add("-tenants t.conf -interval NaN")
	f.Add("-tenants t.conf -scale NaN")
	f.Add("-tenants t.conf -duration NaN -interval 1e300")
	f.Add("-tenants t.conf -duration 4 -interval 0.2 -chaos default -chaos-seed 7 -checkpoint ck -checkpoint-every 3")
	f.Add("-tenants t.conf -policy core-only -shadow static,ioca,greedy,io-iso -shadow-csv s.csv")
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
		if o.tenantsPath == "" || !span(o.duration) || !span(o.interval) ||
			!(o.scale > 0) || math.IsInf(o.scale, 0) || o.ckptEvery < 1 ||
			(o.shadowCSV != "" && len(o.shadowSpecs) == 0) {
			t.Fatalf("%q accepted out of bounds: %+v", line, o)
		}
	})
}
