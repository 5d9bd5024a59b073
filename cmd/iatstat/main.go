// Command iatstat inspects telemetry snapshots written by
// `iatd -telemetry`, `experiments -telemetry`, or any caller of
// telemetry.Snapshot.WriteFiles.
//
// Usage:
//
//	iatstat snapshot.json              # pretty-print metrics (+ event summary)
//	iatstat -events 20 snapshot.json   # also show the last 20 events
//	iatstat -diff before.json after.json
//	iatstat -validate file.json ...    # schema-check snapshot or Chrome-trace files
//	iatstat -validate dir/             # ... or every *.json under a directory
//
// All output is deterministic: metrics print in snapshot order (sorted by
// subsystem/scope/name) and diffs sort the union of both key sets.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"iatsim/internal/cli"
	"iatsim/internal/telemetry"
)

// main exits 2 on a bad invocation (a flag syntax error, an unknown
// severity, a wrong number of files) and 1 on a file that fails to read
// or validate.
func main() {
	os.Exit(cli.Exit("iatstat", os.Stderr, run(os.Args[1:], os.Stdout, os.Stderr)))
}

// run is the testable body of the CLI; a flag syntax error and the usage
// go to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("iatstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	diff := fs.Bool("diff", false, "diff two snapshots (args: before.json after.json)")
	validate := fs.Bool("validate", false, "schema-check snapshot/Chrome-trace JSON files or directories")
	events := fs.Int("events", 0, "also print the last N events of each snapshot")
	sev := fs.String("sev", "debug", "minimum event severity to print (debug|info|warn)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	minSev, err := parseSeverity(*sev)
	if err != nil {
		return err
	}

	switch {
	case *diff:
		if fs.NArg() != 2 {
			return cli.Usagef("-diff wants exactly two snapshot files, got %d", fs.NArg())
		}
		return runDiff(stdout, fs.Arg(0), fs.Arg(1))
	case *validate:
		if fs.NArg() == 0 {
			return cli.Usagef("-validate wants at least one file or directory")
		}
		return runValidate(stdout, fs.Args())
	default:
		if fs.NArg() == 0 {
			fs.Usage()
			return flag.ErrHelp
		}
		for _, path := range fs.Args() {
			if err := printSnapshot(stdout, path, *events, minSev); err != nil {
				return err
			}
		}
		return nil
	}
}

func parseSeverity(name string) (telemetry.Severity, error) {
	switch name {
	case "debug":
		return telemetry.SevDebug, nil
	case "info":
		return telemetry.SevInfo, nil
	case "warn":
		return telemetry.SevWarn, nil
	}
	return 0, cli.Usagef("-sev: unknown severity %q (want debug, info, or warn)", name)
}

// printSnapshot renders one snapshot: a header, a metrics table, and
// (optionally) the trailing events at or above minSev.
func printSnapshot(w io.Writer, path string, events int, minSev telemetry.Severity) error {
	s, err := telemetry.ReadSnapshotFile(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: t=%.3fs, %d metrics, %d events", path, s.TimeNS/1e9, len(s.Metrics), len(s.Events))
	if s.EventsDropped > 0 {
		fmt.Fprintf(w, " (%d dropped)", s.EventsDropped)
	}
	fmt.Fprintln(w)
	for _, m := range s.Metrics {
		fmt.Fprintf(w, "  %-44s %s\n", metricLabel(m.Subsystem, m.Scope, m.Name), metricValue(m))
	}
	if events <= 0 {
		return nil
	}
	kept := make([]telemetry.Event, 0, len(s.Events))
	for _, ev := range s.Events {
		if ev.Sev >= minSev {
			kept = append(kept, ev)
		}
	}
	if len(kept) > events {
		kept = kept[len(kept)-events:]
	}
	for _, ev := range kept {
		fmt.Fprintf(w, "  [%12.6fs] %-5s %s/%s", ev.TimeNS/1e9, ev.Sev, ev.Subsystem, ev.Name)
		if ev.Detail != "" {
			fmt.Fprintf(w, " %s", ev.Detail)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func metricLabel(subsystem, scope, name string) string {
	if scope == "" {
		return subsystem + "/" + name
	}
	return subsystem + "/" + scope + "/" + name
}

// metricValue renders a metric's value column. Histograms collapse to
// count/mean plus the populated buckets.
func metricValue(m telemetry.Metric) string {
	switch m.Kind {
	case telemetry.KindCounter:
		return fmt.Sprintf("%d", m.Counter)
	case telemetry.KindGauge:
		return fmt.Sprintf("%g", m.Gauge)
	case telemetry.KindHistogram:
		h := m.Hist
		if h == nil || h.Count == 0 {
			return "count=0"
		}
		var b strings.Builder
		fmt.Fprintf(&b, "count=%d mean=%.1f", h.Count, h.Sum/float64(h.Count))
		for i, c := range h.Counts {
			if c == 0 {
				continue
			}
			if i < len(h.Bounds) {
				fmt.Fprintf(&b, " le%g:%d", h.Bounds[i], c)
			} else {
				fmt.Fprintf(&b, " le+Inf:%d", c)
			}
		}
		return b.String()
	}
	return "?"
}

// runDiff prints per-metric deltas between two snapshots, skipping
// metrics that did not change.
func runDiff(w io.Writer, beforePath, afterPath string) error {
	before, err := telemetry.ReadSnapshotFile(beforePath)
	if err != nil {
		return err
	}
	after, err := telemetry.ReadSnapshotFile(afterPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "diff %s (t=%.3fs) -> %s (t=%.3fs)\n", beforePath, before.TimeNS/1e9, afterPath, after.TimeNS/1e9)
	changed := 0
	for _, d := range telemetry.Diff(before, after) {
		if d.Before == d.After {
			continue
		}
		changed++
		fmt.Fprintf(w, "  %-44s %g -> %g (%+g)\n",
			metricLabel(d.Key.Subsystem, d.Key.Scope, d.Key.Name), d.Before, d.After, d.After-d.Before)
	}
	fmt.Fprintf(w, "%d metric(s) changed\n", changed)
	return nil
}

// runValidate schema-checks each argument: a directory expands to every
// *.json under it. Chrome traces (top-level traceEvents array) and
// snapshots are told apart by content, not file name. Any invalid file
// fails the whole run, after reporting every file.
func runValidate(w io.Writer, paths []string) error {
	var files []string
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return err
		}
		if !info.IsDir() {
			files = append(files, p)
			continue
		}
		err = filepath.WalkDir(p, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".json") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return fmt.Errorf("iatstat: nothing to validate")
	}
	bad := 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		if bytes.Contains(data, []byte(`"traceEvents"`)) {
			err = telemetry.ValidateChromeTrace(data)
		} else {
			err = telemetry.ValidateSnapshotJSON(data)
		}
		if err != nil {
			bad++
			fmt.Fprintf(w, "FAIL %s: %v\n", f, err)
			continue
		}
		fmt.Fprintf(w, "ok   %s\n", f)
	}
	if bad > 0 {
		return fmt.Errorf("iatstat: %d of %d file(s) invalid", bad, len(files))
	}
	return nil
}
