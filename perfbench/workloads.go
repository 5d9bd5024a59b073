package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"sort"

	"iatsim/internal/bridge"
	"iatsim/internal/core"
	"iatsim/internal/exp"
	"iatsim/internal/faults"
	"iatsim/internal/fleet"
	"iatsim/internal/sim"
	"iatsim/internal/telemetry"
	"iatsim/internal/ycsb"
)

// workload is one closed benchmark workload. setup assembles the
// simulated system for one iteration from the seed alone; the simulated
// caches start empty, so every iteration pays the warm-up a user pays.
// A non-nil tracer asks for the traced variant: the same simulation with
// timers wrapped around the simulator's entry points.
type workload struct {
	name  string
	why   string
	setup func(seed int64, tr *tracer) (instance, error)
	// standIn marks a set-up that only stands in for one the simulator
	// does inside run. Its time is setup_s, but what it allocates is
	// thrown away, so it stays out of the memory metrics.
	standIn bool
}

// instance is one assembled iteration of a workload.
type instance interface {
	// run simulates the workload's fixed span (the timed run_s).
	run() error
	// simUS is the simulated time covered, summed over platforms.
	simUS() float64
	// digest hashes the simulated outputs (after the timed span).
	digest() (string, error)
	// count adds the iteration's per-layer counts to tr.
	count(tr *tracer)
}

var workloads = []workload{
	{"leaky-dma", "the I/O datapath: NIC DMA into the DDIO ways, OVS copies and per-microtick mask lookups under the IAT daemon", newLeaky, false},
	{"appmix-kv", "the core-side demand path: Redis over OVS beside RocksDB on the DDIO ways and two X-Mem tenants", newAppMix, true},
	{"fleet-canary", "the control plane and set-up: 8 hosts built per run, canary rollout, checkpoints, fault storm, shadows", newFleet, false},
}

func sum(h hash.Hash) string { return fmt.Sprintf("%x", h.Sum(nil)[:8]) }

// ---- leaky-dma -------------------------------------------------------

// The Fig. 8 Leaky DMA point at MTU packets under IAT: both NICs at line
// rate into OVS, two testpmd containers, a 200 ms control interval.
const (
	leakyPktSize    = 1500
	leakyIntervalNS = 0.2e9
	leakySpanNS     = 1.6e9 // eight daemon iterations
)

type leaky struct {
	s  *exp.LeakyScenario
	d  *core.Daemon
	tr *tracer
}

func newLeaky(seed int64, tr *tracer) (instance, error) {
	s := exp.NewLeakyScenario(exp.LeakyOpts{PktSize: leakyPktSize, Seed: seed})
	params := core.DefaultParams()
	params.IntervalNS = leakyIntervalNS
	// The miss-rate threshold is a real-time rate; the platform divides
	// every event rate by its Scale.
	params.ThresholdMissLowPerSec /= s.P.Cfg.Scale
	d, err := core.NewDaemon(bridge.NewSystem(s.P), params, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("leaky-dma: %w", err)
	}
	var ctrl sim.Controller = d
	if tr != nil {
		ctrl = tr.daemon(d)
		tr.wrapWorkers(s.P)
	}
	s.P.AddController(ctrl)
	return &leaky{s: s, d: d, tr: tr}, nil
}

func (l *leaky) run() error {
	if l.tr != nil {
		l.tr.stepFor(l.s.P, leakySpanNS)
	} else {
		l.s.P.Run(leakySpanNS)
	}
	return nil
}

func (l *leaky) simUS() float64 { return l.s.P.NowNS() / 1e3 }

// digest covers the platform counters, the switch, the DDIO ways and the
// daemon's state.
func (l *leaky) digest() (string, error) {
	h := sha256.New()
	total, unstable := l.d.Iterations()
	fmt.Fprintf(h, "%+v\n%+v\n", exp.Snap(l.s.P), l.s.OVS.Stats())
	fmt.Fprintf(h, "ddio=%v state=%v ways=%d iters=%d/%d\n",
		l.s.P.RDT.DDIOMask(), l.d.State(), l.d.DDIOWays(), total, unstable)
	return sum(h), nil
}

func (l *leaky) count(tr *tracer) {
	tr.countPlatform(l.s.P)
	iters, _ := l.d.Iterations()
	tr.add("core.iterations", float64(iters))
}

// ---- appmix-kv -------------------------------------------------------

// The Figs. 12-14 co-run: Redis (YCSB-A) over OVS, RocksDB YCSB-A as the
// performance-critical app placed on the DDIO ways, two X-Mem best-effort
// tenants, IAT at 250 ms.
const (
	appMixScale      = 100
	appMixIntervalNS = 0.25e9
	// RunAppMix warms up for 1.5 s, then runs until RocksDB reaches its
	// target ops or MaxNS has passed. The target is out of reach, so
	// every run simulates exactly the warm-up plus appMixRunNS, with
	// RocksDB busy throughout.
	appMixWarmNS    = 1.5e9
	appMixRunNS     = 1e9
	appMixTargetOps = 1 << 62
)

type appMix struct {
	opts  exp.AppMixOpts
	res   exp.AppMixResult
	iters uint64
	tr    *tracer
}

// newAppMix cannot assemble RunAppMix's platform, which that call builds
// internally; its timed set-up is the one assembly step reachable from
// outside, building the same machine. The workload is marked standIn:
// that platform is discarded, so it counts in setup_s only.
func newAppMix(seed int64, tr *tracer) (instance, error) {
	sim.NewPlatform(sim.XeonGold6140(appMixScale))
	return &appMix{
		opts: exp.AppMixOpts{
			Scale: appMixScale, Net: "redis", RedisWorkload: "A", App: "rocksdb:A",
			Placement: exp.PlacePC, IAT: true, IntervalNS: appMixIntervalNS,
			TargetOps: appMixTargetOps, MaxNS: appMixRunNS, Seed: seed,
		},
		tr: tr,
	}, nil
}

func (a *appMix) run() error {
	if a.tr != nil {
		exp.DebugAppMixTrace = func(core.IterationInfo) { a.iters++ }
		defer func() { exp.DebugAppMixTrace = nil }()
	}
	a.res = exp.RunAppMix(a.opts)
	if a.res.RedisOpsPS == 0 || len(a.res.RocksHists) == 0 {
		return fmt.Errorf("appmix-kv: Redis or RocksDB served no requests")
	}
	return nil
}

func (a *appMix) simUS() float64 { return (appMixWarmNS + appMixRunNS) / 1e3 }

// digest covers every AppMixResult field, the RocksDB histograms in full.
func (a *appMix) digest() (string, error) {
	h := sha256.New()
	r := a.res
	fmt.Fprintf(h, "exec=%v redis=%v/%v/%v nf=%v/%v/%v\n", r.ExecNS,
		r.RedisOpsPS, r.RedisMeanNS, r.RedisP99NS, r.NFPPS, r.NFMaxLatNS, r.NFJitterNS)
	ops := make([]ycsb.Op, 0, len(r.RocksHists))
	for op := range r.RocksHists {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	for _, op := range ops {
		fmt.Fprintf(h, "%v %v\n", op, *r.RocksHists[op])
	}
	return sum(h), nil
}

func (a *appMix) count(tr *tracer) {
	tr.add("sim.steps", a.simUS()*1e3/sim.XeonGold6140(appMixScale).EpochNS)
	tr.add("core.iterations", float64(a.iters))
}

// ---- fleet-canary ----------------------------------------------------

// fleetOpts is the fleet experiment's default shape (8 striped hosts at
// Scale 800, canary rollout, per-round checkpoints) with the "default"
// storm on the canary cohort and two shadow policies, over 16 rounds.
func fleetOpts(seed int64) exp.FleetOpts {
	o := exp.DefaultFleetOpts()
	o.Rounds = 16
	o.Storm = "default"
	o.StormSeed = seed
	o.Shadow = "static:2,ioca"
	o.Seed = seed
	return o
}

type fleetRun struct {
	cfg   fleet.Config
	rep   *fleet.Report
	snap  *telemetry.Snapshot
	clock *roundClock
	tr    *tracer
}

func newFleet(seed int64, tr *tracer) (instance, error) {
	o := fleetOpts(seed)
	plan, err := exp.FleetPlan(o)
	if err != nil {
		return nil, fmt.Errorf("fleet-canary: %w", err)
	}
	prof, err := faults.ProfileByName(o.Storm)
	if err != nil {
		return nil, fmt.Errorf("fleet-canary: %w", err)
	}
	hosts, err := exp.BuildFleet(o)
	if err != nil {
		return nil, fmt.Errorf("fleet-canary: %w", err)
	}
	// The storm RunFleet arms: the canary cohort, from the plan's first
	// wave through its bake window, each defaulting to 2 as in fleet.Plan.
	start, bake := plan.StartRound, plan.BakeRounds
	if start == 0 {
		start = 2
	}
	if bake == 0 {
		bake = 2
	}
	storm := &fleet.Storm{Profile: prof, Seed: o.StormSeed, Target: fleet.CohortCanary, StartRound: start, Rounds: bake + 1}
	f := &fleetRun{
		cfg: fleet.Config{
			Hosts: hosts, Rounds: o.Rounds, RoundNS: o.RoundNS, Workers: exp.CurrentExec().Jobs,
			Plan: plan, Storm: storm, CheckpointEvery: o.CheckpointEvery,
		},
		tr: tr,
	}
	if tr != nil {
		for _, h := range hosts {
			tr.wrapWorkers(h.P)
		}
		f.clock = &roundClock{Registry: telemetry.NewRegistry(), tr: tr}
		f.cfg.Tel = f.clock
	}
	return f, nil
}

func (f *fleetRun) run() error {
	if f.clock != nil {
		f.clock.start()
	}
	rep, err := fleet.Run(f.cfg)
	f.rep = rep
	return err
}

func (f *fleetRun) simUS() float64 {
	var ns float64
	for _, h := range f.cfg.Hosts {
		ns += h.P.NowNS()
	}
	return ns / 1e3
}

// digest covers the report rows as CSV and the merged host telemetry.
func (f *fleetRun) digest() (string, error) {
	h := sha256.New()
	if err := exp.WriteRowsCSV(h, f.rep.Rows); err != nil {
		return "", err
	}
	fmt.Fprintf(h, "rolledback=%v onnew=%d\n", f.rep.RolledBack, f.rep.FinalOnNew)
	var err error
	if f.tr != nil {
		f.tr.time("telemetry.merge_ms", 1e6, func() { f.snap, err = exp.MergeFleetTelemetry(f.cfg.Hosts) })
	} else {
		f.snap, err = exp.MergeFleetTelemetry(f.cfg.Hosts)
	}
	if err != nil {
		return "", fmt.Errorf("merge fleet telemetry: %w", err)
	}
	if err := f.snap.WriteJSON(h); err != nil {
		return "", err
	}
	return sum(h), nil
}

func (f *fleetRun) count(tr *tracer) {
	for _, h := range f.cfg.Hosts {
		tr.countPlatform(h.P)
		iters, _ := h.Daemon.Iterations()
		tr.add("core.iterations", float64(iters))
		t := h.Daemon.Timings()
		tr.span("core.poll_us", float64(t.Poll)/1e3)
		tr.span("core.decide_us", float64(t.Transition+t.Realloc)/1e3)
	}
	for _, m := range f.snap.Metrics {
		if m.Subsystem == "ckpt" && m.Name == "writes" {
			tr.add("ckpt.writes", float64(m.Counter))
		}
	}
	for _, r := range f.rep.Rows {
		tr.add("faults.injected", float64(r.Faults))
	}
}
