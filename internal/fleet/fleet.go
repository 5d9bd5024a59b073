// Package fleet is the multi-host layer over the single-socket
// simulator: N hosts — each a full sim.Platform with its own IAT daemon,
// seed, workload mix and fault profile — stepped in lockstep rounds by
// the internal/harness worker pool, under a central controller that
// aggregates per-host health into fleet metrics (p50/p99 throughput and
// IPC, degraded-host count, mask-churn rate) and rolls policy changes
// out through staged cohorts with automatic rollback when the canary
// cohort's health regresses against the control cohort.
//
// Determinism contract: hosts are stepped one harness job per host per
// round, each job mutating only its own host (the harness's
// WaitGroup provides the happens-before edge between rounds), and every
// aggregate is computed from the submission-ordered result slice — so
// round rows, telemetry and rollout decisions are byte-identical at any
// worker count and race-clean under `go test -race`. The package itself
// uses no wall clock, no global rand and no goroutines
// (detlint-enforced); parallelism is delegated to internal/harness.
package fleet

import (
	"fmt"
	"io"
	"math"
	"sort"

	"iatsim/internal/faults"
	"iatsim/internal/harness"
	"iatsim/internal/telemetry"
)

// Cohort names a storm's target set of hosts.
type Cohort int

const (
	// CohortCanary targets the first-wave cohort (the prefix of Hosts
	// the rollout switches first).
	CohortCanary Cohort = iota
	// CohortControl targets every host outside the canary cohort.
	CohortControl
	// CohortAll targets the whole fleet.
	CohortAll
)

// String implements fmt.Stringer.
func (c Cohort) String() string {
	switch c {
	case CohortCanary:
		return "canary"
	case CohortControl:
		return "control"
	case CohortAll:
		return "all"
	}
	return fmt.Sprintf("Cohort(%d)", int(c))
}

// Storm is a correlated fault storm: the profile is armed on every host
// of the target cohort for rounds [StartRound, StartRound+Rounds), each
// host with its own deterministic schedule derived from Seed and the
// host ID.
type Storm struct {
	Profile    faults.Profile
	Seed       int64
	Target     Cohort
	StartRound int
	Rounds     int
}

// Config parameterises one fleet run.
type Config struct {
	// Hosts, sorted by strictly increasing ID. Cohorts are prefixes of
	// this slice.
	Hosts []*Host
	// Rounds is how many aggregation rounds to run.
	Rounds int
	// RoundNS is the simulated duration of one round per host.
	RoundNS float64
	// Workers bounds the harness pool stepping hosts (<= 0 means one
	// per CPU). The output is identical at any value.
	Workers int
	// Plan is the policy rollout the controller drives.
	Plan Plan
	// Storm, when non-nil, is the correlated fault storm to inject.
	Storm *Storm
	// CheckpointEvery, when positive, checkpoints every up host's daemon
	// state after every Nth round; zero disables checkpointing, so hosts
	// that crash lose all control-plane state (cold start on rejoin).
	CheckpointEvery int
	// Tel, when non-nil, receives the controller's fleet-level metrics
	// and events (per-host telemetry lives on each Host.Tel).
	Tel telemetry.Sink
	// Manifest, when non-nil, accumulates the per-host step jobs.
	Manifest *harness.Manifest
	// Progress, when non-nil, receives the harness's live progress line.
	Progress io.Writer
}

func (cfg Config) validate() error {
	if len(cfg.Hosts) == 0 {
		return fmt.Errorf("fleet: no hosts")
	}
	for i, h := range cfg.Hosts {
		if i > 0 && h.ID <= cfg.Hosts[i-1].ID {
			return fmt.Errorf("fleet: host IDs must be strictly increasing (%d after %d)", h.ID, cfg.Hosts[i-1].ID)
		}
	}
	if cfg.Rounds < 1 {
		return fmt.Errorf("fleet: Rounds must be >= 1")
	}
	if cfg.CheckpointEvery < 0 {
		return fmt.Errorf("fleet: CheckpointEvery must be >= 0")
	}
	if cfg.RoundNS <= 0 {
		return fmt.Errorf("fleet: RoundNS must be positive")
	}
	if err := cfg.Plan.withDefaults().validate(); err != nil {
		return err
	}
	if st := cfg.Storm; st != nil {
		if !st.Profile.Active() {
			return fmt.Errorf("fleet: storm with inactive fault profile")
		}
		if st.StartRound < 0 || st.Rounds < 1 {
			return fmt.Errorf("fleet: storm window [%d,+%d) invalid", st.StartRound, st.Rounds)
		}
		if st.Target < CohortCanary || st.Target > CohortAll {
			return fmt.Errorf("fleet: unknown storm target %d", int(st.Target))
		}
	}
	return nil
}

// RoundRow is one round's fleet-level aggregate — the CSV row shape.
type RoundRow struct {
	Round          int
	Phase          string // controller phase: baseline/canary/waveN/full/rolled-back
	NewPolicyHosts int
	StormHosts     int // hosts with a storm armed during this round

	// Fleet-wide distribution of the per-host observations.
	P50IPC          float64
	P99IPC          float64
	P50ThroughputPS float64 // DDIO write updates/s (delivered throughput proxy)
	P99ThroughputPS float64
	MemGBps         float64 // fleet total
	DegradedHosts   int
	HostsDown       int    // hosts crash-down this round (excluded from the rates above)
	MaskChurn       uint64 // re-allocation iterations across the fleet
	SampleRejects   uint64
	Faults          uint64

	// Cohort comparison the rollback decision was made on.
	CanaryIPC           float64
	ControlIPC          float64
	CanaryDegradedFrac  float64
	ControlDegradedFrac float64
	RolledBack          bool // true from the rollback round onward
}

// Report is the outcome of a fleet run.
type Report struct {
	Rows []RoundRow
	// Obs holds every round's per-host observations in host order.
	Obs [][]HostObs
	// RolledBack reports whether the rollout was automatically rolled
	// back; FinalOnNew is how many hosts ended on the new policy.
	RolledBack bool
	FinalOnNew int
}

// Run executes a fleet simulation: per round it advances the rollout,
// applies the storm window, steps every host through the harness pool,
// aggregates, and lets the controller decide on rollback.
func Run(cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	plan := cfg.Plan.withDefaults()
	n := len(cfg.Hosts)
	ctrl := newController(plan, n)
	canaryN := ceilFrac(plan.waves()[0], n)

	// Every host starts on the old policy; the application is recorded in
	// each host's policy history.
	for _, h := range cfg.Hosts {
		if err := h.ApplyPolicy(plan.Old); err != nil {
			return nil, err
		}
	}

	rep := &Report{}
	for round := 0; round < cfg.Rounds; round++ {
		// Storm window first so crash rolls draw from the storm injector
		// from its very first armed round; then the crash/restart pass,
		// so the controller sees this round's churn before deciding.
		stormHosts := applyStormWindow(cfg, round, canaryN)
		tickCrashes(cfg)
		ctrl.noteDown(worstDownFrac(cfg.Hosts, ctrl.onNew))

		prevOnNew := ctrl.onNew
		onNew := ctrl.beginRound(round)
		for i := prevOnNew; i < onNew; i++ {
			if err := cfg.Hosts[i].ApplyPolicy(plan.New); err != nil {
				return nil, err
			}
		}
		if onNew != prevOnNew {
			emitEvent(cfg, "wave", fmt.Sprintf("%s: %d -> %d hosts on %q", ctrl.phase(), prevOnNew, onNew, plan.New.Name))
		}

		obs, err := stepAll(cfg, round)
		if err != nil {
			return nil, err
		}
		rep.Obs = append(rep.Obs, obs)

		canary := cohortStats(obs[:onNew])
		control := cohortStats(obs[onNew:])
		if ctrl.endRound(canary, control) {
			// Revert the new-policy cohort; the control cohort never saw
			// the new policy and stays untouched.
			for i := 0; i < onNew; i++ {
				if err := cfg.Hosts[i].ApplyPolicy(plan.Old); err != nil {
					return nil, err
				}
			}
			emitEvent(cfg, "rollback", fmt.Sprintf("round %d: canary ipc %.3f vs control %.3f, degraded %.2f vs %.2f",
				round, canary.MedianIPC, control.MedianIPC, canary.DegradedFrac, control.DegradedFrac))
			if cfg.Tel != nil {
				cfg.Tel.Counter("fleet", "", "rollbacks").Inc()
			}
		}

		row := makeRow(round, ctrl, stormHosts, obs, canary, control)
		rep.Rows = append(rep.Rows, row)
		emitRow(cfg, row)
	}
	// Leave no storm armed past the run.
	for _, h := range cfg.Hosts {
		if h.StormActive() {
			h.DisarmStorm()
		}
	}
	rep.RolledBack = ctrl.rolledBack
	rep.FinalOnNew = ctrl.onNew
	return rep, nil
}

// applyStormWindow arms/disarms the configured storm for this round and
// returns how many hosts have one armed.
func applyStormWindow(cfg Config, round, canaryN int) int {
	st := cfg.Storm
	if st == nil {
		return 0
	}
	var targets []*Host
	switch st.Target {
	case CohortCanary:
		targets = cfg.Hosts[:canaryN]
	case CohortControl:
		targets = cfg.Hosts[canaryN:]
	default:
		targets = cfg.Hosts
	}
	if round == st.StartRound {
		for _, h := range targets {
			h.ArmStorm(faults.NewInjector(st.Profile, st.Seed+int64(h.ID)+1))
		}
		emitEvent(cfg, "storm_armed", fmt.Sprintf("%s cohort (%d hosts), profile %s", st.Target, len(targets), st.Profile.Name))
	}
	if round == st.StartRound+st.Rounds {
		for _, h := range targets {
			h.DisarmStorm()
		}
		emitEvent(cfg, "storm_disarmed", fmt.Sprintf("%s cohort", st.Target))
	}
	armed := 0
	for _, h := range cfg.Hosts {
		if h.StormActive() {
			armed++
		}
	}
	return armed
}

// tickCrashes runs the per-round crash/restart pass in host-ID order
// (part of the determinism contract — it happens serially, before the
// parallel stepping). An up host with a crash-capable injector may crash
// (down for a seeded 1-3 rounds, daemon state lost unless checkpointed)
// or have its daemon bounced in place (immediate relaunch from the last
// checkpoint). A down host sits out whole rounds — no fault rolls, no
// stepping, clock frozen — and relaunches when its outage expires.
func tickCrashes(cfg Config) {
	for _, h := range cfg.Hosts {
		if h.down {
			h.downRounds--
			if h.downRounds > 0 {
				continue
			}
			h.down = false
			h.Relaunch()
			restores, fails := h.RestoreStats()
			emitEvent(cfg, "host_rejoin", fmt.Sprintf("%s rejoined (restores=%d cold_falls=%d)", h.Name, restores, fails))
			continue
		}
		inj := h.crashInjector()
		if inj == nil {
			continue
		}
		if crashed, rounds := inj.CrashHost(); crashed {
			h.down = true
			h.downRounds = rounds
			emitEvent(cfg, "host_crash", fmt.Sprintf("%s daemon died, down %d rounds", h.Name, rounds))
			continue
		}
		if inj.RestartHost() {
			h.Relaunch()
			emitEvent(cfg, "host_restart", fmt.Sprintf("%s daemon bounced in place", h.Name))
		}
	}
}

// worstDownFrac is the larger down-fraction of the two rollout cohorts
// (the whole fleet counts as one cohort while no rollout is active).
func worstDownFrac(hosts []*Host, onNew int) float64 {
	frac := func(hs []*Host) float64 {
		if len(hs) == 0 {
			return 0
		}
		down := 0
		for _, h := range hs {
			if h.down {
				down++
			}
		}
		return float64(down) / float64(len(hs))
	}
	if onNew <= 0 || onNew >= len(hosts) {
		return frac(hosts)
	}
	return math.Max(frac(hosts[:onNew]), frac(hosts[onNew:]))
}

// stepAll advances every host by one round on the harness pool: one job
// per host, results in submission (= host) order. Retries are
// deliberately zero — re-stepping a half-stepped host would fork its
// timeline — so a panicking host fails the run. A crash-down host keeps
// its job slot (total job counts stay invariant) but reports a Down
// observation without running: its clock is frozen for the round. Up
// hosts checkpoint their daemon state inside the job on the configured
// cadence — per-host state, so still race-free.
func stepAll(cfg Config, round int) ([]HostObs, error) {
	jobs := make([]harness.Job, len(cfg.Hosts))
	for i, h := range cfg.Hosts {
		jobs[i] = harness.Job{
			Name:   fmt.Sprintf("round%03d/%s", round, h.Name),
			Figure: "fleet",
			Seed:   h.Seed,
			Fn: func(*telemetry.Registry) (any, *telemetry.Snapshot, error) {
				if h.down {
					return HostObs{Host: h.ID, Policy: h.policy.Name, Down: true}, nil, nil
				}
				obs := h.step(cfg.RoundNS)
				if cfg.CheckpointEvery > 0 && (round+1)%cfg.CheckpointEvery == 0 {
					if err := h.Checkpoint(); err != nil {
						return nil, nil, err
					}
				}
				return obs, nil, nil
			},
		}
	}
	hrep := harness.Run(jobs, harness.Options{Workers: cfg.Workers, Progress: cfg.Progress, Label: "fleet"})
	if cfg.Manifest != nil {
		cfg.Manifest.Append(hrep)
	}
	obs := make([]HostObs, len(hrep.Results))
	for i, r := range hrep.Results {
		if r.Failed() {
			return nil, fmt.Errorf("fleet: %s failed: %s", r.Name, r.Err)
		}
		obs[i] = r.Row.(HostObs)
	}
	return obs, nil
}

// makeRow folds one round's observations into the fleet aggregate row.
// NewPolicyHosts reflects the controller's post-decision state: zero
// again on the round a rollback fired.
func makeRow(round int, ctrl *controller, stormHosts int, obs []HostObs, canary, control CohortStats) RoundRow {
	row := RoundRow{
		Round:               round,
		Phase:               ctrl.phase(),
		NewPolicyHosts:      ctrl.onNew,
		StormHosts:          stormHosts,
		CanaryIPC:           canary.MedianIPC,
		ControlIPC:          control.MedianIPC,
		CanaryDegradedFrac:  canary.DegradedFrac,
		ControlDegradedFrac: control.DegradedFrac,
		RolledBack:          ctrl.rolledBack,
	}
	ipcs := make([]float64, 0, len(obs))
	thru := make([]float64, 0, len(obs))
	for _, o := range obs {
		if o.Down {
			row.HostsDown++
			continue
		}
		ipcs = append(ipcs, o.IPC)
		thru = append(thru, o.DDIOHitPS)
		row.MemGBps += o.MemGBps
		row.MaskChurn += o.MaskChurn
		row.SampleRejects += o.Rejects
		row.Faults += o.Faults
		if o.Degraded {
			row.DegradedHosts++
		}
	}
	row.P50IPC = quantile(ipcs, 0.5)
	row.P99IPC = quantile(ipcs, 0.99)
	row.P50ThroughputPS = quantile(thru, 0.5)
	row.P99ThroughputPS = quantile(thru, 0.99)
	return row
}

// emitRow publishes one round's aggregates on the fleet sink.
func emitRow(cfg Config, row RoundRow) {
	tel := cfg.Tel
	if tel == nil {
		return
	}
	tel.Gauge("fleet", "", "p50_ipc").Set(row.P50IPC)
	tel.Gauge("fleet", "", "p99_ipc").Set(row.P99IPC)
	tel.Gauge("fleet", "", "p50_throughput_ps").Set(row.P50ThroughputPS)
	tel.Gauge("fleet", "", "p99_throughput_ps").Set(row.P99ThroughputPS)
	tel.Gauge("fleet", "", "degraded_hosts").Set(float64(row.DegradedHosts))
	tel.Gauge("fleet", "", "hosts_down").Set(float64(row.HostsDown))
	tel.Gauge("fleet", "", "new_policy_hosts").Set(float64(row.NewPolicyHosts))
	tel.Counter("fleet", "", "rounds").Inc()
	tel.Counter("fleet", "", "mask_churn").Add(row.MaskChurn)
	tel.Counter("fleet", "", "faults_injected").Add(row.Faults)
	emitEvent(cfg, "round", fmt.Sprintf("round %d %s: p50ipc=%.3f degraded=%d churn=%d",
		row.Round, row.Phase, row.P50IPC, row.DegradedHosts, row.MaskChurn))
}

// emitEvent publishes one controller event at the fleet's sim time.
func emitEvent(cfg Config, name, detail string) {
	if cfg.Tel == nil {
		return
	}
	cfg.Tel.Emit(telemetry.Event{
		TimeNS: cfg.Hosts[0].P.NowNS(), Sev: telemetry.SevInfo,
		Subsystem: "fleet", Name: name, Detail: detail,
	})
}

// quantile is the deterministic nearest-rank quantile of vals (q in
// (0,1]); it copies and sorts, leaving vals untouched.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
