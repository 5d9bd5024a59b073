package cli

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type codedError struct{}

func (codedError) Error() string { return "crashed" }
func (codedError) ExitCode() int { return 137 }

// TestExit pins the exit-code contract and that each error reaches stderr
// at most once, as one "<name>: <error>" line.
func TestExit(t *testing.T) {
	for _, tc := range []struct {
		name   string
		err    error
		code   int
		stderr string
	}{
		{"nil", nil, 0, ""},
		{"help", flag.ErrHelp, 2, ""},
		{"usage", Usagef("-jobs must be >= 1 (got %d)", 0), 2, "cmd: -jobs must be >= 1 (got 0)\n"},
		{"wrapped usage", fmt.Errorf("outer: %w", Usagef("bad")), 2, "cmd: outer: bad\n"},
		{"coded", fmt.Errorf("run: %w", codedError{}), 137, "cmd: run: crashed\n"},
		{"runtime", errors.New("3 of 8 jobs failed"), 1, "cmd: 3 of 8 jobs failed\n"},
	} {
		var stderr bytes.Buffer
		if code := Exit("cmd", &stderr, tc.err); code != tc.code || stderr.String() != tc.stderr {
			t.Errorf("%s: exit %d, stderr %q; want %d, %q", tc.name, code, stderr.String(), tc.code, tc.stderr)
		}
	}
}

// TestParse: a syntax error is printed by the flag set, with the usage,
// and Exit then stays silent, so the message appears once.
func TestParse(t *testing.T) {
	var stderr bytes.Buffer
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	fs.SetOutput(&stderr)
	fs.Int("n", 1, "a number")
	err := Parse(fs, []string{"-bogus"})
	var ue UsageError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want a UsageError", err)
	}
	if code := Exit("cmd", &stderr, err); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if s := stderr.String(); strings.Count(s, "flag provided but not defined: -bogus") != 1 || !strings.Contains(s, "Usage of cmd") {
		t.Errorf("stderr %q: want the message once and the usage", s)
	}
	fs.SetOutput(io.Discard)
	if err := Parse(fs, []string{"-h"}); err != flag.ErrHelp {
		t.Errorf("-h: err = %v, want flag.ErrHelp", err)
	}
	if err := Parse(fs, []string{"-n", "3"}); err != nil {
		t.Errorf("-n 3: err = %v", err)
	}
}

// TestEnsureWritableDir creates a missing directory, leaves no probe file
// behind, and fails on a path under a regular file.
func TestEnsureWritableDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b")
	if err := EnsureWritableDir(dir); err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("dir entries %v, %v: want an empty directory", ents, err)
	}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := EnsureWritableDir(filepath.Join(file, "sub")); err == nil {
		t.Fatal("a directory under a regular file was accepted")
	}
}
