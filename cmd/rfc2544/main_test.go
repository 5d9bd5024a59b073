package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"math"
	"strings"
	"testing"

	"iatsim/internal/cli"
	"iatsim/internal/nic"
)

// smokeArgs is a deliberately small search: tiny ring, few flows, short
// warm/measure windows, so the binary search converges in seconds.
var smokeArgs = []string{
	"-ring", "64", "-size", "64", "-flows", "4096",
	"-warm", "0.05", "-measure", "0.1",
}

// TestSmokeDeterministicSearch is the rfc2544 tier-1 smoke test: one
// short zero-drop search completes with a sane rate line, and two
// identical invocations print byte-identical output.
func TestSmokeDeterministicSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an RFC 2544 binary search")
	}
	search := func() string {
		var out bytes.Buffer
		if err := run(smokeArgs, &out, io.Discard); err != nil {
			t.Fatalf("run: %v\noutput:\n%s", err, out.String())
		}
		return out.String()
	}
	first := search()
	if !strings.Contains(first, "l3fwd, 64B packets, 64-entry ring, 4096 flows:") {
		t.Fatalf("missing search header:\n%s", first)
	}
	if !strings.Contains(first, "max zero-drop rate:") {
		t.Fatalf("missing result line:\n%s", first)
	}
	second := search()
	if first != second {
		t.Fatalf("two identical searches diverged:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestBadFlags covers the CLI contract for bad flags: an unparsable value
// and every out-of-range value is a cli.UsageError (exit 2 in main) returned
// before any simulation runs.
func TestBadFlags(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{{"-ring", "x"}, {"-bogus", "1"}} {
		err := run(args, &out, io.Discard)
		var ue cli.UsageError
		if !errors.As(err, &ue) || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("%v: err = %v, want a cli.UsageError naming %s", args, err, args[0])
		}
	}
	for _, args := range [][]string{
		{"-flows", "0"},
		{"-flows", "4000000000"},
		{"-ring", "-5"},
		{"-ring", "0"},
		{"-ring", "1000000"},
		{"-size", "0"},
		{"-size", "63"},
		{"-size", "2049"},
		{"-scale", "0"},
		{"-scale", "NaN"},
		{"-scale", "+Inf"},
		{"-warm", "-1"},
		{"-measure", "NaN"},
		{"-measure", "Inf"},
	} {
		out.Reset()
		err := run(args, &out, io.Discard)
		var ue cli.UsageError
		if !errors.As(err, &ue) {
			t.Errorf("%v: err = %v, want a cli.UsageError", args, err)
			continue
		}
		if msg := err.Error(); strings.Contains(msg, "\n") || !strings.HasPrefix(msg, args[0]+" ") {
			t.Errorf("%v: message %q, want one line naming %s", args, msg, args[0])
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q before rejecting", args, out.String())
		}
	}
	// A flag syntax error is printed by the flag package above the usage,
	// a bad value by cli.Exit: either way once, with exit 2.
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-bogus", "1"}, "flag provided but not defined: -bogus"},
		{[]string{"-ring", "0"}, "-ring must be in"},
	} {
		var stderr bytes.Buffer
		code := cli.Exit("rfc2544", &stderr, run(tc.args, io.Discard, &stderr))
		if code != 2 || strings.Count(stderr.String(), tc.msg) != 1 {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and %q once", tc.args, code, stderr.String(), tc.msg)
		}
	}
}

// FuzzRFC2544Flags feeds arbitrary command lines to the flag parser: it
// never panics, fails only with a cli.UsageError or flag.ErrHelp, and any
// options it accepts describe one point within the bounds the search can
// run.
func FuzzRFC2544Flags(f *testing.F) {
	f.Add("-flows 0")
	f.Add("-ring -5")
	f.Add("-ring 0")
	f.Add("-size 0 -scale 0")
	f.Add("-ring 512 -size 1500 -flows 4096 -warm 0.05 -measure 0.1")
	f.Fuzz(func(t *testing.T, line string) {
		o, err := parseFlags(strings.Fields(line), io.Discard)
		if err != nil {
			var ue cli.UsageError
			if !errors.As(err, &ue) && !errors.Is(err, flag.ErrHelp) {
				t.Fatalf("%q: error %v is neither a cli.UsageError nor flag.ErrHelp", line, err)
			}
			return
		}
		positiveFinite := func(v float64) bool { return v > 0 && !math.IsInf(v, 1) }
		if len(o.Rings) != 1 || o.Rings[0] < 1 || o.Rings[0] > maxRing ||
			len(o.Sizes) != 1 || o.Sizes[0] < 64 || o.Sizes[0] > nic.BufSize ||
			o.Flows < 1 || o.Flows > maxFlows || !positiveFinite(o.Scale) || !positiveFinite(o.WarmNS) || !positiveFinite(o.MeasureNS) {
			t.Fatalf("%q accepted out of bounds: %+v", line, o)
		}
	})
}
