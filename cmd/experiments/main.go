// Command experiments regenerates every table and figure of the paper's
// evaluation on the simulated platform.
//
// Usage:
//
//	experiments -fig 8                  # one figure
//	experiments -fig 3,4,8,9            # several
//	experiments -tab 1,2                # tables
//	experiments -all                    # everything (quick sweeps)
//	experiments -all -full              # everything at the paper's full sweeps
//	experiments -all -jobs 8            # parallel across 8 workers
//	experiments -all -json out/         # write out/manifest.json for the run
//	experiments -fig 8 -telemetry tel/  # per-job telemetry snapshots into tel/
//
// Sweep points run as independent jobs on a bounded worker pool; rows come
// back in submission order, so the output is identical at any -jobs value.
// Stdout prints each experiment's rows as an aligned table under its
// title: the same columns, header and cells as its -csv file. See
// EXPERIMENTS.md for the recorded paper-vs-measured comparison.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"iatsim/internal/cli"
	"iatsim/internal/exp"
	"iatsim/internal/faults"
	"iatsim/internal/harness"
	"iatsim/internal/prof"
)

// validFigs and validTabs are the figure/table selectors this binary knows;
// anything else is rejected up front (a typo used to silently run nothing).
var validFigs = []string{"3", "4", "8", "9", "10", "11", "12", "13", "14", "15"}
var validTabs = []string{"1", "2"}

// ablationSelectors are the experiments -ablations adds.
var ablationSelectors = []string{"abl-mech", "abl-growth", "abl-ddioext", "abl-mba", "abl-policy", "abl-storage", "abl-remote", "abl-sens", "abl-resq"}

func main() {
	os.Exit(cli.Exit("experiments", os.Stderr, run(os.Args[1:], os.Stdout, os.Stderr)))
}

// options is one parsed and validated experiments command line.
type options struct {
	want                    map[string]bool
	selectors               []string
	full                    bool
	csvDir, jsonDir, telDir string
	jobs, retries           int
	seed                    int64
	chaos                   string
	prof                    prof.Opts
}

// parseFlags parses and validates the command line; a syntax error and
// the usage go to stderr. It creates no directory: run checks the output
// directories.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	figs := fs.String("fig", "", "comma-separated figure numbers to run ("+strings.Join(validFigs, ",")+")")
	tabs := fs.String("tab", "", "comma-separated table numbers to print ("+strings.Join(validTabs, ",")+")")
	all := fs.Bool("all", false, "run every table and figure")
	fs.BoolVar(&o.full, "full", false, "use the paper's full sweeps (slower) instead of the quick defaults")
	ablations := fs.Bool("ablations", false, "also run the beyond-the-paper ablations (mechanisms, growth policy, future-DDIO, MBA)")
	fs.StringVar(&o.csvDir, "csv", "", "also write each experiment's rows as CSV into this directory")
	fs.StringVar(&o.jsonDir, "json", "", "write a per-run manifest (timings, failures) as JSON into this directory")
	fs.StringVar(&o.telDir, "telemetry", "", "write a per-job telemetry snapshot (<dir>/<job>.{json,csv,trace.json}) into this directory")
	fs.IntVar(&o.jobs, "jobs", runtime.GOMAXPROCS(0), "number of sweep points to simulate concurrently")
	fs.Int64Var(&o.seed, "seed", 0, "base RNG seed; 0 selects the canonical per-point seeds used by results/")
	fs.IntVar(&o.retries, "retries", 0, "re-run a crashed sweep point up to this many times before reporting it failed")
	fs.StringVar(&o.chaos, "chaos", "", "run the stability-under-faults experiment with this fault profile ("+strings.Join(faults.ProfileNames(), ",")+" or kind=rate,... spec)")
	fleetGrid := fs.Bool("fleet", false, "run the fleet rollout grid (strategies x canary-cohort fault storm)")
	tournament := fs.Bool("policytournament", false, "run the policy tournament (allocation policies x workloads x fault profiles, ranked)")
	o.prof.RegisterFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return options{}, err
	}

	want, selectors, err := parseSelectors(*figs, *tabs, *all, *ablations)
	if err != nil {
		return options{}, cli.Usagef("%v", err)
	}
	if o.chaos != "" {
		// Validate the profile up front: a typo must fail fast, not after
		// an hour of figure regeneration. Chaos is deliberately NOT part
		// of -all — committed results stay fault-free.
		if _, err := faults.ProfileByName(o.chaos); err != nil {
			return options{}, cli.Usagef("-chaos: %v", err)
		}
		want["chaos"] = true
		selectors = append(selectors, "chaos")
	}
	// Like chaos, the fleet grid and the policy tournament are opt-in
	// rather than part of -all: committed results stay fault- and
	// policy-free.
	if *fleetGrid {
		want["fleet"] = true
		selectors = append(selectors, "fleet")
	}
	if *tournament {
		want["tournament"] = true
		selectors = append(selectors, "tournament")
	}
	if len(want) == 0 {
		fs.Usage()
		return options{}, flag.ErrHelp
	}
	if o.jobs < 1 {
		return options{}, cli.Usagef("-jobs must be >= 1 (got %d)", o.jobs)
	}
	sort.Strings(selectors)
	o.want, o.selectors = want, selectors
	return o, nil
}

// run is the testable body of the CLI: tables and rows go to stdout,
// progress to stderr. An unusable output directory is a usage error found
// before any sweep runs; a CSV that fails to write ends the run with
// exit 1.
func run(args []string, stdout, stderr io.Writer) error {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	for _, d := range []struct{ flag, dir string }{
		{"-csv", o.csvDir}, {"-json", o.jsonDir}, {"-telemetry", o.telDir},
	} {
		if d.dir != "" {
			if err := cli.EnsureWritableDir(d.dir); err != nil {
				return cli.Usagef("%s: %v", d.flag, err)
			}
		}
	}
	// Profiling is host-side observability, outside the determinism
	// guarantee: rows and CSVs are byte-identical with it on or off. A bad
	// profile path or listen address is a usage error (exit 2), caught
	// before any sweep runs.
	profiler, err := o.prof.Start()
	if err != nil {
		return cli.Usagef("%v", err)
	}
	if profiler.Addr != "" {
		fmt.Fprintf(stderr, "experiments: pprof listening on http://%s/debug/pprof/\n", profiler.Addr)
	}

	// The chaos profile (and the seed its fault schedules derive from) is
	// recorded for every run — "off" included — so any CSV is reproducible
	// from its manifest alone.
	var chaosSeed int64
	if o.chaos != "" {
		chaosSeed = o.seed // per-point schedules derive from the job seeds
	}
	manifest := harness.NewManifest(harness.RunOptions{
		Jobs: o.jobs, Seed: o.seed, Retries: o.retries,
		Selectors: o.selectors, Full: o.full, Chaos: o.chaos, ChaosSeed: chaosSeed,
	})
	exp.SetExec(exp.Exec{
		Jobs: o.jobs, Seed: o.seed, Retries: o.retries,
		Progress: stderr, Manifest: manifest,
		TelemetryDir: o.telDir,
	})

	// Each experiment returns the rows to (optionally) persist as CSV.
	w, full := stdout, o.full
	experiments := []struct {
		name string
		fn   func() any
	}{
		{"tab1", func() any { exp.PrintTable1(w); return nil }},
		{"tab2", func() any { exp.PrintTable2(w); return nil }},
		{"fig3", func() any { return exp.RunFig3(w, fig3Opts(full)) }},
		{"fig4", func() any { return exp.RunFig4(w, fig4Opts(full)) }},
		{"fig8", func() any { return exp.RunFig8(w, fig8Opts(full)) }},
		{"fig9", func() any { return exp.RunFig9(w, fig9Opts(full)) }},
		{"fig10", func() any { return exp.RunFig10(w, fig10Opts(full)) }},
		{"fig11", func() any { return exp.RunFig11(w, fig10Opts(full)) }},
		{"fig12", func() any { return exp.RunFig12(w, fig12Opts(full)) }},
		{"fig13", func() any { return exp.RunFig13(w, fig13Opts(full)) }},
		{"fig14", func() any { return exp.RunFig14(w, fig13Opts(full)) }},
		{"fig15", func() any { return exp.RunFig15(w, fig15Opts(full)) }},
		{"abl-mech", func() any { return exp.RunAblationMechanisms(w) }},
		{"abl-growth", func() any { return exp.RunAblationGrowth(w) }},
		{"abl-ddioext", func() any { return exp.RunAblationDDIOExt(w) }},
		{"abl-mba", func() any { return exp.RunAblationMBA(w) }},
		{"abl-policy", func() any { return exp.RunAblationReplacement(w) }},
		{"abl-storage", func() any { return exp.RunAblationStorage(w) }},
		{"abl-remote", func() any { return exp.RunAblationRemoteSocket(w) }},
		{"abl-sens", func() any { return exp.RunSensitivity(w) }},
		{"abl-resq", func() any { return exp.RunAblationResQ(w) }},
		{"chaos", func() any { return exp.RunChaos(w, chaosOpts(full, o.chaos)) }},
		{"fleet", func() any { return exp.RunFleetGrid(w, fleetOpts(full, o.chaos, o.seed)) }},
		{"tournament", func() any { return exp.RunPolicyTournament(w, tournamentOpts(full)) }},
	}
	var runErr error
	for _, e := range experiments {
		if !o.want[e.name] {
			continue
		}
		start := time.Now()
		rows := e.fn()
		if o.csvDir != "" && rows != nil {
			if err := exp.SaveRowsCSV(o.csvDir, e.name, rows); err != nil {
				runErr = fmt.Errorf("csv %s: %w", e.name, err)
				break
			}
		}
		fmt.Fprintf(stdout, "  [%s done in %.1fs]\n\n", e.name, time.Since(start).Seconds())
	}

	if err := profiler.Stop(); err != nil {
		runErr = cmp.Or(runErr, fmt.Errorf("profiling: %w", err))
	}
	manifest.Finish()
	if o.jsonDir != "" {
		if path, err := manifest.Write(o.jsonDir); err != nil {
			runErr = cmp.Or(runErr, fmt.Errorf("manifest: %w", err))
		} else {
			fmt.Fprintf(stderr, "manifest: %s\n", path)
		}
	}
	if manifest.Failures > 0 {
		runErr = cmp.Or(runErr, fmt.Errorf("%d of %d jobs failed", manifest.Failures, manifest.TotalJobs))
	}
	return runErr
}

// parseSelectors validates -fig/-tab and expands -all/-ablations into the
// set of experiments to run, plus the normalised selector list recorded in
// the manifest. Unknown selectors are an error, not a silent no-op.
func parseSelectors(figs, tabs string, all, ablations bool) (map[string]bool, []string, error) {
	known := func(v string, valid []string) bool {
		for _, k := range valid {
			if v == k {
				return true
			}
		}
		return false
	}
	want := map[string]bool{}
	for _, f := range strings.Split(figs, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		if !known(f, validFigs) {
			return nil, nil, fmt.Errorf("unknown figure %q (valid: %s)", f, strings.Join(validFigs, ", "))
		}
		want["fig"+f] = true
	}
	for _, t := range strings.Split(tabs, ",") {
		if t = strings.TrimSpace(t); t == "" {
			continue
		}
		if !known(t, validTabs) {
			return nil, nil, fmt.Errorf("unknown table %q (valid: %s)", t, strings.Join(validTabs, ", "))
		}
		want["tab"+t] = true
	}
	if all {
		for _, t := range validTabs {
			want["tab"+t] = true
		}
		for _, f := range validFigs {
			want["fig"+f] = true
		}
	}
	if ablations {
		for _, k := range ablationSelectors {
			want[k] = true
		}
	}
	selectors := make([]string, 0, len(want))
	for k := range want {
		selectors = append(selectors, k)
	}
	sort.Strings(selectors)
	return want, selectors, nil
}

func fig3Opts(full bool) exp.Fig3Opts {
	o := exp.DefaultFig3Opts()
	if !full {
		o.Rings = []int{64, 256, 1024}
	}
	return o
}

func fig4Opts(full bool) exp.Fig4Opts {
	o := exp.DefaultFig4Opts()
	if !full {
		o.WorkingSets = []int{4, 8, 16}
	}
	return o
}

func fig8Opts(full bool) exp.Fig8Opts {
	o := exp.DefaultFig8Opts()
	if !full {
		o.Sizes = []int{64, 512, 1500}
	}
	return o
}

func fig9Opts(full bool) exp.Fig9Opts {
	o := exp.DefaultFig9Opts()
	if !full {
		o.FlowSteps = []int{1, 1000, 100000, 1000000}
	}
	return o
}

func fig10Opts(full bool) exp.Fig10Opts {
	o := exp.DefaultFig10Opts()
	if full {
		o.Sizes = []int{64, 256, 512, 1024, 1500}
	} else {
		o.Sizes = []int{1500}
	}
	return o
}

func fig12Opts(full bool) exp.Fig12Opts {
	o := exp.DefaultFig12Opts()
	if full {
		o.Apps = exp.AllFig12Apps()
		o.Corners = exp.Placements()
	}
	return o
}

func fig13Opts(full bool) exp.Fig12Opts {
	o := exp.DefaultFig12Opts()
	if !full {
		o.Apps = []string{"quick"} // A and C only
		o.Nets = []string{"redis"}
	}
	return o
}

func chaosOpts(full bool, profile string) exp.ChaosOpts {
	o := exp.DefaultChaosOpts()
	o.Profile = profile
	if full {
		o.Scales = []float64{0, 0.5, 1, 2, 4, 8}
	}
	return o
}

func fleetOpts(full bool, chaos string, seed int64) exp.FleetOpts {
	o := exp.DefaultFleetOpts()
	o.Seed = seed
	if chaos != "" {
		o.Storm = chaos // the grid storms its canary cohort with -chaos
	}
	if full {
		o.Hosts = 32
	}
	return o
}

func tournamentOpts(full bool) exp.TournamentOpts {
	o := exp.DefaultTournamentOpts()
	if !full {
		o.Profiles = []string{"off", "default"}
	}
	return o
}

func fig15Opts(full bool) exp.Fig15Opts {
	o := exp.DefaultFig15Opts()
	if !full {
		o.TenantCounts = []int{1, 4, 8, 17}
		o.Iterations = 40
	}
	return o
}
