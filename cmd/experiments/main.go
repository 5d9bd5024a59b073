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
// Every run prints the same rows/series the paper reports; see
// EXPERIMENTS.md for the recorded paper-vs-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

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
	figs := flag.String("fig", "", "comma-separated figure numbers to run ("+strings.Join(validFigs, ",")+")")
	tabs := flag.String("tab", "", "comma-separated table numbers to print ("+strings.Join(validTabs, ",")+")")
	all := flag.Bool("all", false, "run every table and figure")
	full := flag.Bool("full", false, "use the paper's full sweeps (slower) instead of the quick defaults")
	ablations := flag.Bool("ablations", false, "also run the beyond-the-paper ablations (mechanisms, growth policy, future-DDIO, MBA)")
	csvDir := flag.String("csv", "", "also write each experiment's rows as CSV into this directory")
	jsonDir := flag.String("json", "", "write a per-run manifest (timings, failures) as JSON into this directory")
	telDir := flag.String("telemetry", "", "write a per-job telemetry snapshot (<dir>/<job>.{json,csv,trace.json}) into this directory")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "number of sweep points to simulate concurrently")
	seed := flag.Int64("seed", 0, "base RNG seed; 0 selects the canonical per-point seeds used by results/")
	retries := flag.Int("retries", 0, "re-run a crashed sweep point up to this many times before reporting it failed")
	chaos := flag.String("chaos", "", "run the stability-under-faults experiment with this fault profile ("+strings.Join(faults.ProfileNames(), ",")+" or kind=rate,... spec)")
	fleetGrid := flag.Bool("fleet", false, "run the fleet rollout grid (strategies x canary-cohort fault storm)")
	tournament := flag.Bool("policytournament", false, "run the policy tournament (allocation policies x workloads x fault profiles, ranked)")
	var pf prof.Opts
	pf.RegisterFlags(flag.CommandLine)
	flag.Parse()

	want, selectors, err := parseSelectors(*figs, *tabs, *all, *ablations)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	if *chaos != "" {
		// Validate the profile up front: a typo must fail fast, not after
		// an hour of figure regeneration. Chaos is deliberately NOT part
		// of -all — committed results stay fault-free.
		if _, err := faults.ProfileByName(*chaos); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -chaos: %v\n", err)
			os.Exit(2)
		}
		want["chaos"] = true
		selectors = append(selectors, "chaos")
		sort.Strings(selectors)
	}
	if *fleetGrid {
		// Like chaos, the fleet grid is opt-in rather than part of -all.
		want["fleet"] = true
		selectors = append(selectors, "fleet")
		sort.Strings(selectors)
	}
	if *tournament {
		// Opt-in like chaos and fleet: committed results stay policy-free.
		want["tournament"] = true
		selectors = append(selectors, "tournament")
		sort.Strings(selectors)
	}
	if len(want) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *jobs < 1 {
		fmt.Fprintf(os.Stderr, "experiments: -jobs must be >= 1 (got %d)\n", *jobs)
		os.Exit(2)
	}
	// Profiling is host-side observability, outside the determinism
	// guarantee: rows and CSVs are byte-identical with it on or off. A bad
	// profile path or listen address is a usage error (exit 2), caught
	// before any sweep runs.
	profiler, err := pf.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	if profiler.Addr != "" {
		fmt.Fprintf(os.Stderr, "experiments: pprof listening on http://%s/debug/pprof/\n", profiler.Addr)
	}

	// The chaos profile (and the seed its fault schedules derive from) is
	// recorded for every run — "off" included — so any CSV is reproducible
	// from its manifest alone.
	var chaosSeed int64
	if *chaos != "" {
		chaosSeed = *seed // per-point schedules derive from the job seeds
	}
	manifest := harness.NewManifest(harness.RunOptions{
		Jobs: *jobs, Seed: *seed, Retries: *retries,
		Selectors: selectors, Full: *full, Chaos: *chaos, ChaosSeed: chaosSeed,
	})
	exp.SetExec(exp.Exec{
		Jobs: *jobs, Seed: *seed, Retries: *retries,
		Progress: os.Stderr, Manifest: manifest,
		TelemetryDir: *telDir,
	})

	// run executes one experiment; fn returns the rows to (optionally)
	// persist as CSV.
	run := func(name string, fn func() any) {
		if !want[name] {
			return
		}
		start := time.Now()
		rows := fn()
		if *csvDir != "" && rows != nil {
			if err := exp.SaveRowsCSV(*csvDir, name, rows); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: csv %s: %v\n", name, err)
			}
		}
		fmt.Printf("  [%s done in %.1fs]\n\n", name, time.Since(start).Seconds())
	}

	w := os.Stdout
	run("tab1", func() any { exp.PrintTable1(w); return nil })
	run("tab2", func() any { exp.PrintTable2(w); return nil })
	run("fig3", func() any { return exp.RunFig3(w, fig3Opts(*full)) })
	run("fig4", func() any { return exp.RunFig4(w, fig4Opts(*full)) })
	run("fig8", func() any { return exp.RunFig8(w, fig8Opts(*full)) })
	run("fig9", func() any { return exp.RunFig9(w, fig9Opts(*full)) })
	run("fig10", func() any { return exp.RunFig10(w, fig10Opts(*full)) })
	run("fig11", func() any { return exp.RunFig11(w, fig10Opts(*full)) })
	run("fig12", func() any { return exp.RunFig12(w, fig12Opts(*full)) })
	run("fig13", func() any { return exp.RunFig13(w, fig13Opts(*full)) })
	run("fig14", func() any { return exp.RunFig14(w, fig13Opts(*full)) })
	run("fig15", func() any { return exp.RunFig15(w, fig15Opts(*full)) })
	run("abl-mech", func() any { return exp.RunAblationMechanisms(w) })
	run("abl-growth", func() any { return exp.RunAblationGrowth(w) })
	run("abl-ddioext", func() any { return exp.RunAblationDDIOExt(w) })
	run("abl-mba", func() any { return exp.RunAblationMBA(w) })
	run("abl-policy", func() any { return exp.RunAblationReplacement(w) })
	run("abl-storage", func() any { return exp.RunAblationStorage(w) })
	run("abl-remote", func() any { return exp.RunAblationRemoteSocket(w) })
	run("abl-sens", func() any { return exp.RunSensitivity(w) })
	run("abl-resq", func() any { return exp.RunAblationResQ(w) })
	run("chaos", func() any { return exp.RunChaos(w, chaosOpts(*full, *chaos)) })
	run("fleet", func() any { return exp.RunFleetGrid(w, fleetOpts(*full, *chaos, *seed)) })
	run("tournament", func() any { return exp.RunPolicyTournament(w, tournamentOpts(*full)) })

	// Stop explicitly (not via defer): the failure paths below leave
	// through os.Exit, which would skip the CPU-profile flush.
	if err := profiler.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: profiling: %v\n", err)
		os.Exit(1)
	}

	manifest.Finish()
	if *jsonDir != "" {
		path, err := manifest.Write(*jsonDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: manifest: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "manifest: %s\n", path)
	}
	if manifest.Failures > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d of %d jobs failed\n", manifest.Failures, manifest.TotalJobs)
		os.Exit(1)
	}
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
