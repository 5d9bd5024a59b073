package exp

import (
	"fmt"
	"io"

	"iatsim/internal/bridge"
	"iatsim/internal/faults"
	"iatsim/internal/fleet"
	"iatsim/internal/policy"
	"iatsim/internal/telemetry"
)

// FleetOpts parameterises the fleet experiment: N simulated hosts — each
// a full Leaky DMA platform with its own IAT daemon, seed, workload mix
// and ambient fault profile — under a central rollout controller.
type FleetOpts struct {
	Hosts    int
	Topology string // workload-mix assignment: uniform | striped | skewed
	Rollout  string // bigbang | canary | staged
	// Storm names the fault profile of a correlated storm armed on the
	// canary cohort for the bake window ("" or "off" = no storm).
	Storm     string
	StormSeed int64

	// Policy, when non-empty, stages a decision-engine change instead of
	// the default DDIO-budget tightening: the rollout's Old policy pins
	// every host to the IAT engine and New switches the cohort to this
	// spec (e.g. "static:2", "ioca"), under the same canary/rollback
	// machinery. Parameters are held identical across Old and New so the
	// cohort comparison isolates the engine change.
	Policy string
	// Shadow is a comma-separated list of policy specs every host daemon
	// evaluates counterfactually each tick ("" = none). Shadows never
	// touch allocations; their divergence counters land in each host's
	// telemetry registry.
	Shadow string

	Scale      float64 // platform time-compression factor
	Rounds     int     // aggregation rounds
	RoundNS    float64 // simulated ns per round per host
	IntervalNS float64 // IAT daemon polling interval
	Seed       int64   // base seed; per-host seeds derive from it

	// CheckpointEvery checkpoints every up host's daemon state after
	// every Nth round, so hosts killed by crash faults rejoin with their
	// control-plane state intact (0 defaults to 1; negative disables —
	// crashed hosts then cold start).
	CheckpointEvery int

	// Tel, when non-nil, receives the controller's fleet-level metrics
	// and events (hosts always carry their own registries).
	Tel *telemetry.Registry
}

// DefaultFleetOpts returns simulation-friendly defaults: 8 hosts on a
// striped mix, a canary rollout of the tighter DDIO budget, and rounds
// long enough for a few daemon iterations each.
func DefaultFleetOpts() FleetOpts {
	return FleetOpts{
		Hosts:           8,
		Topology:        "striped",
		Rollout:         "canary",
		Scale:           800,
		Rounds:          8,
		RoundNS:         0.3e9,
		IntervalNS:      0.1e9,
		CheckpointEvery: 1,
	}
}

func (o FleetOpts) withDefaults() FleetOpts {
	d := DefaultFleetOpts()
	if o.Hosts == 0 {
		o.Hosts = d.Hosts
	}
	if o.Topology == "" {
		o.Topology = d.Topology
	}
	if o.Rollout == "" {
		o.Rollout = d.Rollout
	}
	if o.Scale == 0 {
		o.Scale = d.Scale
	}
	if o.Rounds == 0 {
		o.Rounds = d.Rounds
	}
	if o.RoundNS == 0 {
		o.RoundNS = d.RoundNS
	}
	if o.IntervalNS == 0 {
		o.IntervalNS = d.IntervalNS
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = d.CheckpointEvery
	}
	return o
}

// TopologyNames lists the valid -topology values.
func TopologyNames() []string { return []string{"uniform", "striped", "skewed"} }

// fleetMixes are the workload mixes fleet hosts draw from: the paper's
// Leaky DMA scenario at MTU packets, at small-packet line rate (the DDIO
// worst case), and flow-heavy (EMC-thrashing) variants.
var fleetMixes = []struct {
	name string
	opts LeakyOpts
}{
	{"pkt1500", LeakyOpts{PktSize: 1500}},
	{"pkt512", LeakyOpts{PktSize: 512}},
	{"flows64", LeakyOpts{PktSize: 1500, Flows: 64}},
}

// mixFor assigns host id its workload mix under the topology.
func mixFor(topology string, id int) (string, LeakyOpts, error) {
	switch topology {
	case "uniform":
		m := fleetMixes[0]
		return m.name, m.opts, nil
	case "striped":
		m := fleetMixes[id%len(fleetMixes)]
		return m.name, m.opts, nil
	case "skewed":
		// Three quarters of the fleet runs the MTU mix; every fourth
		// host is a small-packet outlier that stresses the I/O ways.
		if id%4 == 3 {
			m := fleetMixes[1]
			return m.name, m.opts, nil
		}
		m := fleetMixes[0]
		return m.name, m.opts, nil
	}
	return "", LeakyOpts{}, fmt.Errorf("exp: unknown fleet topology %q (valid: %v)", topology, TopologyNames())
}

// FleetPolicies returns the rollout pair the fleet experiment ships: the
// incumbent policy keeps the default 6-way DDIO ceiling, the candidate
// tightens it to 4 ways (the paper's Sec. VII tradeoff: fewer I/O ways
// protect the compute tenants but cap delivered I/O throughput).
// Thresholds defined against real time are divided by the platform Scale.
func FleetPolicies(scale, intervalNS float64) (oldPol, newPol fleet.Policy) {
	p := bridge.ScaledParams(scale, intervalNS)
	oldPol = fleet.Policy{Name: "ddio-max6", Params: p}
	pn := p
	pn.DDIOWaysMax = 4
	newPol = fleet.Policy{Name: "ddio-max4", Params: pn}
	return oldPol, newPol
}

// BuildFleet assembles the fleet: one Leaky DMA platform per host with
// its own seed-derived traffic, an IAT daemon on the old policy's
// parameter shape, a private telemetry registry, and — on every fourth
// host — a light ambient fault profile, so the fleet is heterogeneous in
// both load and reliability. Host IDs are 0..Hosts-1 in slice order, as
// fleet.Config requires.
func BuildFleet(o FleetOpts) ([]*fleet.Host, error) {
	o = o.withDefaults()
	hosts := make([]*fleet.Host, 0, o.Hosts)
	for id := 0; id < o.Hosts; id++ {
		mixName, lo, err := mixFor(o.Topology, id)
		if err != nil {
			return nil, err
		}
		// Distinct per-host seeds even under the canonical base seed 0
		// (DeriveSeed reserves 0), so hosts never share traffic streams.
		seed := o.Seed + int64(id+1)*1009
		lo.Scale = o.Scale
		lo.Seed = seed
		tel := telemetry.NewRegistry()
		r := newLeakyRig(rigSpec{leaky: lo, daemon: iatDaemon(o.Scale, o.IntervalNS)}, tel)
		if o.Shadow != "" {
			specs, err := policy.ParseShadowSpecs(o.Shadow)
			if err != nil {
				return nil, err
			}
			ev := policy.NewEvaluator(specs)
			ev.Tel = tel
			r.daemon.AttachShadows(ev)
		}

		var prof faults.Profile
		if id%4 == 1 {
			prof, _ = faults.ProfileByName("light")
		}
		hosts = append(hosts, fleet.NewHost(fleet.HostSpec{
			ID: id, Mix: mixName, Seed: seed,
			Platform: r.P, Daemon: r.daemon, Tel: tel,
			IOCores: r.OVSCores, Faults: prof,
		}))
	}
	return hosts, nil
}

// FleetEnginePolicies returns the rollout pair for a staged
// decision-engine change: both policies share the incumbent parameter
// set (so the cohort comparison isolates the engine), Old pins the IAT
// engine and New switches to spec.
func FleetEnginePolicies(scale, intervalNS float64, spec policy.Spec) (oldPol, newPol fleet.Policy) {
	p := bridge.ScaledParams(scale, intervalNS)
	iat := policy.Spec{Kind: policy.KindIAT}
	oldPol = fleet.Policy{Name: "iat", Params: p, Spec: &iat}
	newPol = fleet.Policy{Name: spec.String(), Params: p, Spec: &spec}
	return oldPol, newPol
}

// FleetPlan builds the rollout plan for o (defaults from fleet.Plan).
// With o.Policy set, the plan stages a decision-engine change; otherwise
// it stages the classic DDIO-budget tightening.
func FleetPlan(o FleetOpts) (fleet.Plan, error) {
	strat, err := fleet.StrategyByName(o.Rollout)
	if err != nil {
		return fleet.Plan{}, err
	}
	var oldPol, newPol fleet.Policy
	if o.Policy != "" {
		spec, err := policy.ParseSpec(o.Policy)
		if err != nil {
			return fleet.Plan{}, err
		}
		oldPol, newPol = FleetEnginePolicies(o.Scale, o.IntervalNS, spec)
	} else {
		oldPol, newPol = FleetPolicies(o.Scale, o.IntervalNS)
	}
	return fleet.Plan{Strategy: strat, Old: oldPol, New: newPol}, nil
}

// fleetStorm builds the canary-cohort storm for o (nil when none): armed
// when the first wave switches, lasting through its bake window.
func fleetStorm(o FleetOpts, plan fleet.Plan) (*fleet.Storm, error) {
	if o.Storm == "" || o.Storm == "off" {
		return nil, nil
	}
	prof, err := faults.ProfileByName(o.Storm)
	if err != nil {
		return nil, err
	}
	start, bake := plan.StartRound, plan.BakeRounds
	if start == 0 {
		start = 2
	}
	if bake == 0 {
		bake = 2
	}
	return &fleet.Storm{
		Profile: prof, Seed: o.StormSeed,
		Target: fleet.CohortCanary, StartRound: start, Rounds: bake + 1,
	}, nil
}

// RunFleet runs one fleet simulation under the current Exec policy and
// prints the per-round aggregate table. The returned report's Rows are
// the CSV shape (SaveRowsCSV-compatible); the hosts come back so callers
// can inspect policy histories and merge per-host telemetry.
func RunFleet(w io.Writer, o FleetOpts) (*fleet.Report, []*fleet.Host, error) {
	o = o.withDefaults()
	plan, err := FleetPlan(o)
	if err != nil {
		return nil, nil, err
	}
	storm, err := fleetStorm(o, plan)
	if err != nil {
		return nil, nil, err
	}
	hosts, err := BuildFleet(o)
	if err != nil {
		return nil, nil, err
	}
	var sink telemetry.Sink
	if o.Tel != nil {
		sink = o.Tel
	}
	every := o.CheckpointEvery
	if every < 0 {
		every = 0
	}
	e := CurrentExec()
	rep, err := fleet.Run(fleet.Config{
		Hosts: hosts, Rounds: o.Rounds, RoundNS: o.RoundNS,
		Workers: e.Jobs, Plan: plan, Storm: storm, CheckpointEvery: every,
		Tel: sink, Manifest: e.Manifest, Progress: e.Progress,
	})
	if err != nil {
		return nil, nil, err
	}
	stormName := o.Storm
	if stormName == "" {
		stormName = "off"
	}
	writeRowsTable(w, fmt.Sprintf("Fleet — %d hosts (%s), rollout %s (%s -> %s), storm %s",
		o.Hosts, o.Topology, o.Rollout, plan.Old.Name, plan.New.Name, stormName), rep.Rows)
	return rep, hosts, nil
}

// FleetGridRow summarises one (rollout strategy, storm) cell of the
// fleet grid — the CSV row shape of the fleet experiment.
type FleetGridRow struct {
	Rollout       string
	Storm         string
	RolledBack    bool
	FinalOnNew    int
	FinalPhase    string
	P50IPC        float64 // last round, fleet-wide
	DegradedHosts int     // last round
	MaskChurn     uint64  // total over the run
	Faults        uint64  // total injected (ambient + storm)
}

// RunFleetGrid sweeps rollout strategies × {no storm, canary-cohort
// storm} over the same fleet shape: the big-bang rows are the cautionary
// baseline (no control cohort, so the storm's damage sticks), the canary
// and staged rows show the controller detecting the regression and
// rolling the cohort back automatically.
func RunFleetGrid(w io.Writer, o FleetOpts) []FleetGridRow {
	o = o.withDefaults()
	stormName := o.Storm
	if stormName == "" {
		stormName = "default"
	}
	var rows []FleetGridRow
	for _, rollout := range fleet.StrategyNames() {
		for _, storm := range []string{"off", stormName} {
			oc := o
			oc.Rollout = rollout
			oc.Storm = storm
			oc.Tel = nil
			rep, _, err := RunFleet(nil, oc)
			if err != nil {
				panic(err) // cmd validates flags before running
			}
			last := rep.Rows[len(rep.Rows)-1]
			row := FleetGridRow{
				Rollout:       rollout,
				Storm:         storm,
				RolledBack:    rep.RolledBack,
				FinalOnNew:    rep.FinalOnNew,
				FinalPhase:    last.Phase,
				P50IPC:        last.P50IPC,
				DegradedHosts: last.DegradedHosts,
			}
			for _, r := range rep.Rows {
				row.MaskChurn += r.MaskChurn
				row.Faults += r.Faults
			}
			rows = append(rows, row)
		}
	}
	writeRowsTable(w, fmt.Sprintf("Fleet grid — %d hosts (%s), rollout strategies × canary-cohort fault storm",
		o.Hosts, o.Topology), rows)
	return rows
}

// MergeFleetTelemetry folds every host's telemetry snapshot into one
// fleet-wide rollup at the fleet's current sim time.
func MergeFleetTelemetry(hosts []*fleet.Host) (*telemetry.Snapshot, error) {
	snaps := make([]*telemetry.Snapshot, 0, len(hosts))
	var now float64
	for _, h := range hosts {
		snaps = append(snaps, h.Snapshot())
		if t := h.P.NowNS(); t > now {
			now = t
		}
	}
	return telemetry.Merge(now, snaps...)
}
