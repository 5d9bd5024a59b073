// Command fleetd is the fleet simulator's CLI: N simulated hosts — each
// a full platform running the paper's Leaky DMA scenario with its own
// IAT daemon, seed, workload mix and fault profile — stepped in rounds
// by a bounded worker pool under a central controller that aggregates
// per-host health into fleet metrics and rolls a tighter DDIO way budget
// out via the chosen strategy, rolling back automatically when the
// canary cohort regresses against the control cohort.
//
// Usage:
//
//	fleetd -hosts 32 -rollout canary                 # clean canary rollout
//	fleetd -hosts 32 -rollout canary -chaos heavy    # storm the canary cohort
//	fleetd -hosts 32 -rollout bigbang -chaos heavy   # what no canary costs you
//	fleetd -hosts 32 -jobs 8 -csv out/               # out/fleet.csv (identical at any -jobs)
//	fleetd -telemetry tel/ -json out/                # snapshots + run manifest
//
// Hosts are stepped one job per host per round; aggregate rows, CSV and
// telemetry snapshots are byte-identical at any -jobs value.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"iatsim/internal/cli"
	"iatsim/internal/exp"
	"iatsim/internal/faults"
	"iatsim/internal/fleet"
	"iatsim/internal/harness"
	"iatsim/internal/policy"
	"iatsim/internal/prof"
	"iatsim/internal/telemetry"
)

func main() {
	os.Exit(cli.Exit("fleetd", os.Stderr, run(os.Args[1:], os.Stdout, os.Stderr)))
}

// options is one parsed and validated fleetd command line.
type options struct {
	hosts, rounds, jobs, ckptEvery int
	topology, rollout              string
	roundSecs, interval, scale     float64
	seed, chaosSeed                int64
	chaos, polFlag, shadowFlag     string
	csvDir, jsonDir, telDir        string
	prof                           prof.Opts
}

// parseFlags parses and validates the command line; a syntax error and
// the usage go to stderr. It creates no directory: the output directories
// are checked by run.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("fleetd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&o.hosts, "hosts", 8, "number of simulated hosts")
	fs.StringVar(&o.topology, "topology", "striped", "workload-mix assignment across hosts ("+strings.Join(exp.TopologyNames(), ",")+")")
	fs.StringVar(&o.rollout, "rollout", "canary", "policy rollout strategy ("+strings.Join(fleet.StrategyNames(), ",")+")")
	fs.IntVar(&o.rounds, "rounds", 8, "aggregation rounds to run")
	fs.Float64Var(&o.roundSecs, "round", 0.3, "simulated seconds per round per host")
	fs.Float64Var(&o.interval, "interval", 0.1, "IAT polling interval in simulated seconds")
	fs.Float64Var(&o.scale, "scale", 800, "simulation scale factor")
	fs.IntVar(&o.jobs, "jobs", runtime.GOMAXPROCS(0), "hosts stepped concurrently (output is identical at any value)")
	fs.Int64Var(&o.seed, "seed", 0, "base seed; per-host seeds and fault schedules derive from it")
	fs.StringVar(&o.chaos, "chaos", "", "arm a correlated fault storm on the canary cohort with this profile ("+strings.Join(faults.ProfileNames(), ",")+" or kind=rate,... spec)")
	fs.Int64Var(&o.chaosSeed, "chaos-seed", 1, "seed for the storm's per-host fault schedules")
	fs.IntVar(&o.ckptEvery, "checkpoint-every", 1, "checkpoint each up host's daemon after every Nth round (0 disables; hosts crashed by a storm then cold start)")
	fs.StringVar(&o.polFlag, "policy", "", "roll out a decision-engine change to this policy instead of the DDIO-budget tightening ("+strings.Join(policy.SpecNames(), ", ")+")")
	fs.StringVar(&o.shadowFlag, "shadow", "", "comma-separated shadow policies every host evaluates counterfactually each tick")
	fs.StringVar(&o.csvDir, "csv", "", "write the per-round aggregate rows as <dir>/fleet.csv")
	fs.StringVar(&o.jsonDir, "json", "", "write the run manifest as JSON into this directory")
	fs.StringVar(&o.telDir, "telemetry", "", "write controller and merged-host telemetry snapshots into this directory")
	o.prof.RegisterFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return options{}, err
	}
	// Validate every flag before assembling anything: a bad value must
	// fail fast (exit 2), not crash mid-run or complete a long simulation
	// and then fail to write its outputs.
	switch {
	case o.hosts < 1:
		return options{}, cli.Usagef("-hosts must be >= 1 (got %d)", o.hosts)
	case o.rounds < 1:
		return options{}, cli.Usagef("-rounds must be >= 1 (got %d)", o.rounds)
	case !cli.PositiveFinite(o.roundSecs, 1e9):
		return options{}, cli.Usagef("-round must be positive and finite (got %g)", o.roundSecs)
	case !cli.PositiveFinite(o.interval, 1e9):
		return options{}, cli.Usagef("-interval must be positive and finite (got %g)", o.interval)
	case !cli.PositiveFinite(o.scale, 1):
		return options{}, cli.Usagef("-scale must be positive and finite (got %g)", o.scale)
	case o.jobs < 1:
		return options{}, cli.Usagef("-jobs must be >= 1 (got %d)", o.jobs)
	case o.ckptEvery < 0:
		return options{}, cli.Usagef("-checkpoint-every must be >= 0 (got %d)", o.ckptEvery)
	case !slices.Contains(exp.TopologyNames(), o.topology):
		return options{}, cli.Usagef("-topology: unknown topology %q (valid: %s)", o.topology, strings.Join(exp.TopologyNames(), ", "))
	}
	if _, err := fleet.StrategyByName(o.rollout); err != nil {
		return options{}, cli.Usagef("-rollout: %v", err)
	}
	if o.chaos != "" {
		if _, err := faults.ProfileByName(o.chaos); err != nil {
			return options{}, cli.Usagef("-chaos: %v", err)
		}
	}
	if o.polFlag != "" {
		if _, err := policy.ParseSpec(o.polFlag); err != nil {
			return options{}, cli.Usagef("-policy: %v", err)
		}
	}
	if _, err := policy.ParseShadowSpecs(o.shadowFlag); err != nil {
		return options{}, cli.Usagef("-shadow: %v", err)
	}
	return o, nil
}

// run is the testable body of the CLI. Output on stdout is deterministic
// for a given flag set.
func run(args []string, stdout, stderr io.Writer) error {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	for _, dir := range []string{o.csvDir, o.jsonDir, o.telDir} {
		if dir != "" {
			if err := cli.EnsureWritableDir(dir); err != nil {
				return cli.Usagef("%v", err)
			}
		}
	}
	// Profiling is host-side observability, outside the determinism
	// guarantee: the run's stdout is byte-identical with it on or off.
	profiler, err := o.prof.Start()
	if err != nil {
		return cli.Usagef("profiling: %v", err)
	}
	defer func() {
		if err := profiler.Stop(); err != nil {
			log.Printf("fleetd: profiling: %v", err)
		}
	}()
	if profiler.Addr != "" {
		fmt.Fprintf(stderr, "fleetd: pprof listening on http://%s/debug/pprof/\n", profiler.Addr)
	}

	// The storm profile and its seed are recorded for every run — "off"
	// included — so any CSV is reproducible from its manifest alone.
	var stormSeed int64
	if o.chaos != "" {
		stormSeed = o.chaosSeed
	}
	manifest := harness.NewManifest(harness.RunOptions{
		Jobs: o.jobs, Seed: o.seed,
		Selectors: []string{"fleet"},
		Chaos:     o.chaos, ChaosSeed: stormSeed,
		CheckpointEvery: o.ckptEvery,
	})
	exp.SetExec(exp.Exec{Jobs: o.jobs, Seed: o.seed, Manifest: manifest})

	// FleetOpts treats 0 as "use the default cadence", so the flag's
	// explicit 0 (checkpointing off) maps to the negative sentinel.
	every := o.ckptEvery
	if every == 0 {
		every = -1
	}
	tel := telemetry.NewRegistry()
	rep, fleetHosts, err := exp.RunFleet(stdout, exp.FleetOpts{
		Hosts: o.hosts, Topology: o.topology, Rollout: o.rollout,
		Storm: o.chaos, StormSeed: stormSeed,
		Policy: o.polFlag, Shadow: o.shadowFlag,
		Scale: o.scale, Rounds: o.rounds,
		RoundNS: o.roundSecs * 1e9, IntervalNS: o.interval * 1e9,
		Seed: o.seed, Tel: tel,
		CheckpointEvery: every,
	})
	if err != nil {
		return err
	}
	last := rep.Rows[len(rep.Rows)-1]
	fmt.Fprintf(stdout, "fleetd: done; %d hosts, %d rounds; final phase %s, %d host(s) on new policy, rolled back: %v\n",
		o.hosts, o.rounds, last.Phase, rep.FinalOnNew, rep.RolledBack)
	if o.shadowFlag != "" {
		// Fold every host's shadow divergence into one fleet-wide line
		// per shadow policy. Summaries() orders shadows by spec, the same
		// on every host, so the fold is index-wise over hosts in ID order.
		var agg []policy.ShadowSummary
		for _, h := range fleetHosts {
			ev := h.Daemon.Shadows()
			if ev == nil {
				continue
			}
			for i, s := range ev.Summaries() {
				if i == len(agg) {
					agg = append(agg, policy.ShadowSummary{Name: s.Name})
				}
				agg[i].Ticks += s.Ticks
				agg[i].Agreements += s.Agreements
				agg[i].WouldGrowDDIO += s.WouldGrowDDIO
				agg[i].WouldShrinkDDIO += s.WouldShrinkDDIO
				agg[i].WouldGrowTenant += s.WouldGrowTenant
				agg[i].WouldShrinkTenant += s.WouldShrinkTenant
				agg[i].HammingTotal += s.HammingTotal
			}
		}
		for _, s := range agg {
			fmt.Fprintf(stdout, "fleetd: shadow %s: ticks=%d agree=%.3f ddio+%d/-%d tenant+%d/-%d hamming=%.2f\n",
				s.Name, s.Ticks, s.AgreeRate(), s.WouldGrowDDIO, s.WouldShrinkDDIO,
				s.WouldGrowTenant, s.WouldShrinkTenant, s.MeanHamming())
		}
	}

	if o.csvDir != "" {
		if err := exp.SaveRowsCSV(o.csvDir, "fleet", rep.Rows); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "fleetd: rows written to %s\n", filepath.Join(o.csvDir, "fleet.csv"))
	}
	if o.telDir != "" {
		now := fleetHosts[len(fleetHosts)-1].P.NowNS()
		if err := tel.Snapshot(now).WriteFiles(filepath.Join(o.telDir, "controller")); err != nil {
			return err
		}
		merged, err := exp.MergeFleetTelemetry(fleetHosts)
		if err != nil {
			return err
		}
		if err := merged.WriteFiles(filepath.Join(o.telDir, "hosts")); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "fleetd: telemetry snapshots written to %s/{controller,hosts}.{json,csv,trace.json}\n", o.telDir)
	}
	manifest.Finish()
	if o.jsonDir != "" {
		path, err := manifest.Write(o.jsonDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "fleetd: manifest written to %s\n", path)
	}
	if manifest.Failures > 0 {
		return fmt.Errorf("%d of %d step jobs failed", manifest.Failures, manifest.TotalJobs)
	}
	return nil
}
