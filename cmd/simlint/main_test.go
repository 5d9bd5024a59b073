package main

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"iatsim/internal/lint"
)

// chainmod is a fixture module seeded with interprocedural findings —
// the test double for a dirty tree.
const chainmod = "../../internal/lint/testdata/chainmod"

// TestCleanTreeExitsZero runs the linter over this repository: HEAD must
// be clean (the same invariant `make lint` enforces).
func TestCleanTreeExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-dir", "../.."}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d on HEAD, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "simlint: clean") {
		t.Fatalf("missing clean summary:\n%s", out.String())
	}
}

// TestSeededFindingsExitOne lints the seeded chainmod fixture: stdout
// is exactly the active findings, one module-relative
// "file:line: [analyzer] message" line each (interprocedural ones with
// their call chain), the fixture's suppressed findings stay silent, and
// the run exits 1 with a count on stderr instead of the clean summary.
func TestSeededFindingsExitOne(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-dir", chainmod}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d on seeded fixture, want 1\nstderr:\n%s", code, errOut.String())
	}

	mod, err := lint.LoadModule(chainmod)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	active, suppressed := 0, 0
	for _, f := range lint.RunAnalyzers(mod, lint.Analyzers()) {
		if f.Suppressed {
			suppressed++
			continue
		}
		active++
		f.Pos.Filename = relPath(mod.Dir, f.Pos.Filename)
		want.WriteString(f.String() + "\n")
	}
	if active == 0 || suppressed == 0 {
		t.Fatalf("fixture has %d active and %d suppressed findings; the test needs both", active, suppressed)
	}
	if out.String() != want.String() {
		t.Fatalf("stdout:\n%s\nwant the active findings:\n%s", out.String(), want.String())
	}
	form := regexp.MustCompile(`^[^/:][^:]*\.go:\d+: \[[a-z]+\] \S`)
	chains := 0
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if !form.MatchString(line) {
			t.Errorf("finding %q is not a module-relative file:line: [analyzer] message", line)
		}
		if strings.Contains(line, " -> ") {
			chains++
		}
	}
	if chains == 0 {
		t.Error("no finding carries its call chain")
	}
	if want := fmt.Sprintf("simlint: %d finding(s) in iatsim\n", active); errOut.String() != want {
		t.Errorf("stderr %q, want %q", errOut.String(), want)
	}
}

// TestUsageErrorsExitTwo pins the usage-error exit code, including the
// output and gate modes simlint no longer has.
func TestUsageErrorsExitTwo(t *testing.T) {
	cases := [][]string{
		{"-dir", "/nonexistent-simlint-dir"},
		{"-format", "json"},
		{"-baseline", "x.csv", "-diff"},
		{"-write"},
		{"-timing"},
		{"-dir", chainmod, "extra"},
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("args %v: printed %q on stdout", args, out.String())
		}
	}
}
