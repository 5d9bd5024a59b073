package tenantfile

import (
	"math"
	"strings"
	"testing"
)

const goodFile = `
# comment line
fwd0     0      2     pc        io   testpmd:1500
switch   1,2    2     stack     io   ovs
batch    3      2     be        -    xmem:8   # trailing comment
job      4      2     PC        -    spec:mcf
plain    5      1     be        -
`

func TestParseGoodFile(t *testing.T) {
	entries, err := Parse(strings.NewReader(goodFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("parsed %d entries", len(entries))
	}
	e := entries[0]
	if e.Name != "fwd0" || len(e.Cores) != 1 || e.Cores[0] != 0 || e.Ways != 2 ||
		e.Priority != "pc" || !e.IO || e.Workload != "testpmd:1500" {
		t.Fatalf("entry 0 = %+v", e)
	}
	if sw := entries[1]; len(sw.Cores) != 2 || sw.Cores[1] != 2 || sw.Priority != "stack" {
		t.Fatalf("entry 1 = %+v", sw)
	}
	if entries[3].Priority != "pc" {
		t.Fatal("priority should be case-insensitive")
	}
	if entries[4].Workload != "idle" {
		t.Fatalf("default workload = %q", entries[4].Workload)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"too few columns":  "a 0 2 pc\n",
		"too many columns": "a 0 2 pc io xmem extra\n",
		"bad core":         "a x 2 pc io\n",
		"negative core":    "a -1 2 pc io\n",
		"bad ways":         "a 0 zero pc io\n",
		"zero ways":        "a 0 0 pc io\n",
		"bad priority":     "a 0 2 urgent io\n",
		"bad io flag":      "a 0 2 pc maybe\n",
		"duplicate name":   "a 0 2 pc io\na 1 2 pc io\n",
		"duplicate core":   "a 0 2 pc io\nb 0 2 pc io\n",
		"empty file":       "# nothing here\n",
	}
	for name, input := range cases {
		if _, err := Parse(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted %q", name, input)
		}
	}
}

func TestParseErrorNamesLine(t *testing.T) {
	_, err := Parse(strings.NewReader("ok 0 2 pc io\nbroken 1 2\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error %v should name line 2", err)
	}
}

func TestWorkloadKind(t *testing.T) {
	if k, a := WorkloadKind("xmem:8"); k != "xmem" || a != "8" {
		t.Fatalf("got %q %q", k, a)
	}
	if k, a := WorkloadKind("idle"); k != "idle" || a != "" {
		t.Fatalf("got %q %q", k, a)
	}
	if k, a := WorkloadKind("spec:mcf"); k != "spec" || a != "mcf" {
		t.Fatalf("got %q %q", k, a)
	}
}

func TestParseWithEvents(t *testing.T) {
	input := `
fwd    0  3  pc  io  testpmd:1500
job    4  2  pc  -   xmem:2
@3s   job   xmem-ws  10
@7.5s ddio  ways     4
`
	entries, events, err := ParseWithEvents(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || len(events) != 2 {
		t.Fatalf("entries=%d events=%d", len(entries), len(events))
	}
	if events[0] != (Event{AtNS: 3e9, Target: "job", Action: "xmem-ws", Arg: 10}) {
		t.Fatalf("event 0 = %+v", events[0])
	}
	if events[1].AtNS != 7.5e9 || events[1].Target != "ddio" || events[1].Arg != 4 {
		t.Fatalf("event 1 = %+v", events[1])
	}
	// Plain Parse ignores events.
	plain, err := Parse(strings.NewReader(input))
	if err != nil || len(plain) != 2 {
		t.Fatalf("Parse: %d entries, err=%v", len(plain), err)
	}
}

func TestParseEventErrors(t *testing.T) {
	base := "a 0 2 pc io\n"
	cases := map[string]string{
		"wrong columns":   base + "@3s job xmem-ws\n",
		"bad time":        base + "@banana job xmem-ws 10\n",
		"negative arg":    base + "@3s job xmem-ws 0\n",
		"unknown action":  base + "@3s job reboot 1\n",
		"unknown tenant":  base + "@3s ghost xmem-ws 10\n",
		"ddio bad action": base + "@3s ddio xmem-ws 10\n",
	}
	for name, input := range cases {
		if _, _, err := ParseWithEvents(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted %q", name, input)
		}
	}
}

func TestParseRejectsNonFiniteEventTime(t *testing.T) {
	for _, ev := range []string{"@NaNs a xmem-ws 8", "@infs ddio ways 2", "@1e300s ddio ways 2"} {
		_, _, err := ParseWithEvents(strings.NewReader("a 0 2 pc io\n" + ev + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 2: bad event time") {
			t.Errorf("%q: err = %v, want a line 2 bad event time error", ev, err)
		}
	}
}

// FuzzParseWithEvents: for arbitrary input the parser never panics,
// every error is a tenantfile error, and whatever it accepts is usable:
// finite non-negative event times, event arguments >= 1, entries with at
// least one way and no core claimed twice.
func FuzzParseWithEvents(f *testing.F) {
	f.Add(goodFile)
	f.Add("fwd0 0 2 pc io testpmd:1500\nswitch 1,2 2 stack io ovs\nbatch 3 2 be - xmem:8\njob 4 2 pc - spec:mcf\n@5s batch xmem-ws 16\n@15s ddio ways 4\n")
	f.Add("a 0 2 pc io\n@NaNs a xmem-ws 8\n")
	f.Add("a 0 2 pc io\n@infs ddio ways 2\n")
	f.Fuzz(func(t *testing.T, input string) {
		entries, events, err := ParseWithEvents(strings.NewReader(input))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "tenantfile:") {
				t.Fatalf("error %q lacks the tenantfile: prefix", err)
			}
			return
		}
		for _, ev := range events {
			if math.IsNaN(ev.AtNS) || math.IsInf(ev.AtNS, 0) || ev.AtNS < 0 || ev.Arg < 1 {
				t.Fatalf("accepted event %+v", ev)
			}
		}
		cores := map[int]bool{}
		for _, e := range entries {
			if e.Ways < 1 {
				t.Fatalf("accepted entry %+v", e)
			}
			for _, c := range e.Cores {
				if cores[c] {
					t.Fatalf("core %d accepted twice", c)
				}
				cores[c] = true
			}
		}
	})
}
