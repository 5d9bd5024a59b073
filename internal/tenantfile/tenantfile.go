// Package tenantfile parses the text tenant-description format the iatd
// daemon consumes — the reproduction's analogue of Sec. V's "we keep such
// affiliation records in a text file".
//
// Format (whitespace-separated columns, '#' comments, blank lines ignored):
//
//	# name   cores  ways  priority  io   workload
//	fwd0     0      2     pc        io   testpmd:1500
//	switch   1,2    2     stack     io   ovs
//	batch    3      2     be        -    xmem:8
//	job      4      2     pc        -    spec:mcf
//
// Columns:
//
//	name      tenant name (unique)
//	cores     comma-separated core list
//	ways      initial LLC way count (CAT allocation width)
//	priority  pc | be | stack
//	io        io | - (whether the workload is networking)
//	workload  testpmd[:pktsize] | xmem[:MB] | spec:<profile> | idle
package tenantfile

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Entry is one parsed tenant line.
type Entry struct {
	Name     string
	Cores    []int
	Ways     int
	Priority string // "pc", "be", "stack"
	IO       bool
	Workload string // e.g. "testpmd:1500", "xmem:8", "spec:mcf", "idle"
}

// Event is one timed phase-change directive, introduced by an '@' line:
//
//	@5s  batch  xmem-ws 16    # grow tenant "batch"'s working set to 16MB
//	@15s ddio   ways 4        # reprogram the DDIO register to 4 ways
//
// Events let a tenant file script the scenarios of the paper's Figs. 10/11
// (working-set phase changes, manual DDIO flips) without recompiling.
type Event struct {
	AtNS   float64
	Target string // tenant name, or "ddio"
	Action string // "xmem-ws" or "ways"
	Arg    int
}

// Parse reads entries from r, ignoring '@' event lines. Malformed lines
// produce an error naming the line number.
func Parse(r io.Reader) ([]Entry, error) {
	entries, _, err := ParseWithEvents(r)
	return entries, err
}

// ParseWithEvents reads both tenant entries and timed '@' events from r.
func ParseWithEvents(r io.Reader) ([]Entry, []Event, error) {
	var entries []Entry
	var events []Event
	names := map[string]bool{}
	usedCores := map[int]string{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if strings.HasPrefix(fields[0], "@") {
			ev, err := parseEvent(fields)
			if err != nil {
				return nil, nil, fmt.Errorf("tenantfile: line %d: %w", lineNo, err)
			}
			events = append(events, ev)
			continue
		}
		if len(fields) < 5 || len(fields) > 6 {
			return nil, nil, fmt.Errorf("tenantfile: line %d: want 5-6 columns, got %d", lineNo, len(fields))
		}
		e := Entry{Name: fields[0], Workload: "idle"}
		if names[e.Name] {
			return nil, nil, fmt.Errorf("tenantfile: line %d: duplicate tenant %q", lineNo, e.Name)
		}
		names[e.Name] = true
		for _, c := range strings.Split(fields[1], ",") {
			n, err := strconv.Atoi(strings.TrimSpace(c))
			if err != nil || n < 0 {
				return nil, nil, fmt.Errorf("tenantfile: line %d: bad core %q", lineNo, c)
			}
			if owner, taken := usedCores[n]; taken {
				return nil, nil, fmt.Errorf("tenantfile: line %d: core %d already assigned to %q", lineNo, n, owner)
			}
			usedCores[n] = e.Name
			e.Cores = append(e.Cores, n)
		}
		ways, err := strconv.Atoi(fields[2])
		if err != nil || ways < 1 {
			return nil, nil, fmt.Errorf("tenantfile: line %d: bad way count %q", lineNo, fields[2])
		}
		e.Ways = ways
		switch strings.ToLower(fields[3]) {
		case "pc", "be", "stack":
			e.Priority = strings.ToLower(fields[3])
		default:
			return nil, nil, fmt.Errorf("tenantfile: line %d: bad priority %q (want pc|be|stack)", lineNo, fields[3])
		}
		switch strings.ToLower(fields[4]) {
		case "io":
			e.IO = true
		case "-", "noio":
		default:
			return nil, nil, fmt.Errorf("tenantfile: line %d: bad io flag %q (want io|-)", lineNo, fields[4])
		}
		if len(fields) == 6 {
			e.Workload = fields[5]
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("tenantfile: %w", err)
	}
	if len(entries) == 0 {
		return nil, nil, fmt.Errorf("tenantfile: no tenants defined")
	}
	// Events may only reference declared tenants (or "ddio").
	for _, ev := range events {
		if ev.Target != "ddio" && !names[ev.Target] {
			return nil, nil, fmt.Errorf("tenantfile: event at %.1fs references unknown tenant %q", ev.AtNS/1e9, ev.Target)
		}
	}
	return entries, events, nil
}

// parseEvent parses an '@' directive: "@<time>s <target> <action> <arg>".
func parseEvent(fields []string) (Event, error) {
	if len(fields) != 4 {
		return Event{}, fmt.Errorf("event wants 4 columns (@T target action arg), got %d", len(fields))
	}
	ts := strings.TrimPrefix(fields[0], "@")
	ts = strings.TrimSuffix(ts, "s")
	// ParseFloat accepts "nan" and "inf"; an event time must be a
	// finite, non-negative number of nanoseconds.
	sec, err := strconv.ParseFloat(ts, 64)
	if err != nil || !(sec >= 0) || math.IsInf(sec*1e9, 1) {
		return Event{}, fmt.Errorf("bad event time %q", fields[0])
	}
	arg, err := strconv.Atoi(fields[3])
	if err != nil || arg < 1 {
		return Event{}, fmt.Errorf("bad event argument %q", fields[3])
	}
	ev := Event{AtNS: sec * 1e9, Target: fields[1], Action: fields[2], Arg: arg}
	switch {
	case ev.Target == "ddio" && ev.Action == "ways":
	case ev.Target != "ddio" && ev.Action == "xmem-ws":
	default:
		return Event{}, fmt.Errorf("unknown event %q %q (want 'ddio ways N' or '<tenant> xmem-ws MB')", ev.Target, ev.Action)
	}
	return ev, nil
}

// WorkloadKind splits a workload spec into kind and argument ("xmem:8" ->
// "xmem", "8").
func WorkloadKind(spec string) (kind, arg string) {
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		return spec[:i], spec[i+1:]
	}
	return spec, ""
}
