package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iatsim/internal/cli"
	"iatsim/internal/telemetry"
)

// writeSnap persists a small snapshot and returns its JSON path.
func writeSnap(t *testing.T, dir, base string, hits uint64) string {
	t.Helper()
	r := telemetry.NewRegistry()
	r.Counter("cache", "slice0", "hits").Add(hits)
	r.Gauge("nic", "vf0", "occ").Set(3)
	r.Histogram("mem", "", "lat", []float64{100}).Observe(50)
	r.Emit(telemetry.Event{TimeNS: 1e9, Sev: telemetry.SevInfo, Subsystem: "daemon", Name: "state", Detail: "LowKeep->IODemand"})
	if err := r.Snapshot(2e9).WriteFiles(filepath.Join(dir, base)); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, base+".json")
}

func TestPrintSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := writeSnap(t, dir, "snap", 41)
	var out bytes.Buffer
	if err := run([]string{"-events", "10", path}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cache/slice0/hits", "41", "nic/vf0/occ", "mem/lat", "count=1", "daemon/state", "LowKeep->IODemand"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestEventSeverityFilter(t *testing.T) {
	dir := t.TempDir()
	path := writeSnap(t, dir, "snap", 1)
	var out bytes.Buffer
	if err := run([]string{"-events", "10", "-sev", "warn", path}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "daemon/state") {
		t.Errorf("-sev warn must hide the info event:\n%s", out.String())
	}
	if err := run([]string{"-sev", "bogus", path}, &out, io.Discard); err == nil {
		t.Fatal("bad severity accepted")
	}
}

// TestUsageErrors covers the exit-2 class: a flag syntax error, an
// unknown severity and a wrong file count are cli.UsageErrors, no arguments
// at all is flag.ErrHelp, and all fail before any file is read.
func TestUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out, io.Discard); err != flag.ErrHelp {
		t.Fatalf("no arguments: err = %v, want flag.ErrHelp", err)
	}
	for _, args := range [][]string{
		{"-bogus", "snap.json"},
		{"-events", "x", "snap.json"},
		{"-sev", "bogus", "snap.json"},
		{"-diff", "before.json"},
		{"-validate"},
	} {
		var ue cli.UsageError
		if err := run(args, &out, io.Discard); !errors.As(err, &ue) {
			t.Errorf("%v: err = %v, want cli.UsageError", args, err)
		}
	}
	// A flag syntax error is printed by the flag package above the usage,
	// a bad value by cli.Exit: either way once, with exit 2.
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-bogus", "snap.json"}, "flag provided but not defined: -bogus"},
		{[]string{"-sev", "bogus", "snap.json"}, "-sev: unknown severity"},
	} {
		var stderr bytes.Buffer
		code := cli.Exit("iatstat", &stderr, run(tc.args, io.Discard, &stderr))
		if code != 2 || strings.Count(stderr.String(), tc.msg) != 1 {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and %q once", tc.args, code, stderr.String(), tc.msg)
		}
	}
}

func TestDiffSnapshots(t *testing.T) {
	dir := t.TempDir()
	before := writeSnap(t, dir, "before", 10)
	after := writeSnap(t, dir, "after", 25)
	var out bytes.Buffer
	if err := run([]string{"-diff", before, after}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cache/slice0/hits") || !strings.Contains(out.String(), "10 -> 25 (+15)") {
		t.Errorf("diff missing the hits delta:\n%s", out.String())
	}
	// Unchanged metrics are omitted from the diff.
	if strings.Contains(out.String(), "nic/vf0/occ") {
		t.Errorf("diff shows unchanged metric:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "1 metric(s) changed") {
		t.Errorf("diff summary wrong:\n%s", out.String())
	}
	if err := run([]string{"-diff", before}, &out, io.Discard); err == nil {
		t.Fatal("-diff with one file accepted")
	}
}

func TestValidateDirectory(t *testing.T) {
	dir := t.TempDir()
	writeSnap(t, dir, "snap", 1)
	var out bytes.Buffer
	if err := run([]string{"-validate", dir}, &out, io.Discard); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	// Both the snapshot JSON and the Chrome trace get recognised.
	if got := strings.Count(out.String(), "ok   "); got != 2 {
		t.Errorf("validated %d files, want 2 (snapshot + trace):\n%s", got, out.String())
	}

	// A corrupt file fails the run but still reports the rest.
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte(`{"metrics":[{"subsystem":"b","name":"x","kind":"counter"},{"subsystem":"a","name":"x","kind":"counter"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-validate", dir}, &out, io.Discard); err == nil {
		t.Fatal("invalid file accepted")
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Errorf("no FAIL line for the corrupt file:\n%s", out.String())
	}
}
