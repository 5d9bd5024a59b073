package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"iatsim/internal/cli"
)

// TestParseSelectors pins the CLI selector contract: unknown selectors
// are errors (exit 2 in main), -all expands to every figure and table,
// and the normalised selector list recorded in the manifest is sorted.
func TestParseSelectors(t *testing.T) {
	if _, _, err := parseSelectors("8,99", "", false, false); err == nil {
		t.Fatal("unknown figure 99 should be rejected")
	}
	if _, _, err := parseSelectors("", "7", false, false); err == nil {
		t.Fatal("unknown table 7 should be rejected")
	}

	want, selectors, err := parseSelectors("8", "1", false, false)
	if err != nil {
		t.Fatal(err)
	}
	if !want["fig8"] || !want["tab1"] || len(want) != 2 {
		t.Fatalf("want = %v", want)
	}
	if !reflect.DeepEqual(selectors, []string{"fig8", "tab1"}) {
		t.Fatalf("selectors = %v, want sorted [fig8 tab1]", selectors)
	}

	all, _, err := parseSelectors("", "", true, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(validFigs)+len(validTabs) {
		t.Fatalf("-all expanded to %d selectors, want %d", len(all), len(validFigs)+len(validTabs))
	}
}

// FuzzParseSelectors feeds arbitrary -fig/-tab strings and -all/-ablations
// flags to the parser: it either rejects them or returns only known
// selectors, sorted, matching its want set, and it never panics.
func FuzzParseSelectors(f *testing.F) {
	f.Add("8", "1", false, false)
	f.Add("12,13,14", "", false, true)
	f.Add(" 3 ,,4", "2,", true, false)
	f.Add("99", "", false, false)
	f.Add("", "7,1", false, false)
	known := map[string]bool{}
	for _, v := range validFigs {
		known["fig"+v] = true
	}
	for _, v := range validTabs {
		known["tab"+v] = true
	}
	for _, v := range ablationSelectors {
		known[v] = true
	}
	f.Fuzz(func(t *testing.T, figs, tabs string, all, ablations bool) {
		want, selectors, err := parseSelectors(figs, tabs, all, ablations)
		if err != nil {
			return
		}
		if !sort.StringsAreSorted(selectors) || len(selectors) != len(want) {
			t.Fatalf("selectors %v are unsorted or disagree with want %v", selectors, want)
		}
		for i, s := range selectors {
			if !known[s] || !want[s] || (i > 0 && selectors[i-1] == s) {
				t.Fatalf("selector %q: unknown, missing from want or repeated (%v)", s, selectors)
			}
		}
		for s := range known {
			isAbl := strings.HasPrefix(s, "abl-")
			if (all && !isAbl || ablations && isAbl) && !want[s] {
				t.Fatalf("-all %v -ablations %v left out %q: %v", all, ablations, s, selectors)
			}
		}
	})
}

// TestFig3Smoke runs one figure through the whole parallel path in
// process: its CSV must byte-match the committed results/fig3.csv and the
// manifest must report no failed job.
func TestFig3Smoke(t *testing.T) {
	dir := t.TempDir()
	var stdout bytes.Buffer
	if err := run([]string{"-fig", "3", "-jobs", "4", "-csv", dir, "-json", dir}, &stdout, io.Discard); err != nil {
		t.Fatalf("run: %v\n%s", err, stdout.String())
	}
	got, err := os.ReadFile(filepath.Join(dir, "fig3.csv"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "results", "fig3.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fig3.csv differs from results/fig3.csv:\n%s", got)
	}
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		TotalJobs int  `json:"total_jobs"`
		Failures  *int `json:"failures"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Failures == nil || *m.Failures != 0 || m.TotalJobs == 0 {
		t.Errorf("manifest reports %v failures of %d jobs, want 0 of > 0:\n%s", m.Failures, m.TotalJobs, data)
	}
	if !strings.HasPrefix(stdout.String(), "Fig 3 — RFC2544") {
		t.Errorf("stdout does not open with the fig3 title:\n%s", stdout.String())
	}
}

// TestBadOutputDirExitsTwo: an output directory under a regular file is a
// one-line usage error (exit 2) found before any sweep runs, for each of
// -csv, -json and -telemetry.
func TestBadOutputDirExitsTwo(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, flag := range []string{"-csv", "-json", "-telemetry"} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-fig", "3", "-jobs", "2", flag, filepath.Join(file, "sub")}, &stdout, &stderr)
		code := cli.Exit("experiments", &stderr, err)
		if code != 2 || strings.Count(stderr.String(), "\n") != 1 || !strings.Contains(stderr.String(), flag+":") {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 and one line naming %s", flag, code, stderr.String(), flag)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: simulated before rejecting the directory:\n%s", flag, stdout.String())
		}
	}
}

// TestCSVWriteFailureExitsOne: a CSV that cannot be written after the
// sweep fails the run (exit 1) rather than being lost with exit 0.
func TestCSVWriteFailureExitsOne(t *testing.T) {
	dir := t.TempDir()
	// A directory where the CSV file should go: the -csv directory itself
	// passes the up-front probe, the file create fails.
	if err := os.Mkdir(filepath.Join(dir, "fig3.csv"), 0o755); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	code := cli.Exit("experiments", &stderr, run([]string{"-fig", "3", "-jobs", "2", "-csv", dir}, io.Discard, &stderr))
	if code != 1 || strings.Count(stderr.String(), "experiments: csv fig3:") != 1 {
		t.Errorf("exit %d, stderr %q; want exit 1 and one csv fig3 error", code, stderr.String())
	}
}

// TestFlagErrorsPrintedOnce: a flag syntax error is printed by the flag
// package above the usage, a bad value by cli.Exit, each once, with
// exit 2 and no simulation.
func TestFlagErrorsPrintedOnce(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-bogus"}, "flag provided but not defined: -bogus"},
		{[]string{"-fig", "7"}, `unknown figure "7"`},
		{[]string{"-fig", "3", "-jobs", "0"}, "-jobs must be >= 1"},
		{[]string{"-fig", "3", "-chaos", "nope"}, "-chaos:"},
	} {
		var stdout, stderr bytes.Buffer
		code := cli.Exit("experiments", &stderr, run(tc.args, &stdout, &stderr))
		if code != 2 || strings.Count(stderr.String(), tc.msg) != 1 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and %q once", tc.args, code, stderr.String(), tc.msg)
		}
	}
	var stderr bytes.Buffer
	if code := cli.Exit("experiments", &stderr, run(nil, io.Discard, &stderr)); code != 2 || !strings.Contains(stderr.String(), "Usage of experiments") {
		t.Errorf("no selector: exit %d, stderr %q; want exit 2 and the usage", code, stderr.String())
	}
}
