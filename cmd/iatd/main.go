// Command iatd is the IAT daemon of the paper (Sec. V), run against the
// simulated platform: it reads a tenant file, assembles the machine,
// programs the initial CAT allocation, and then runs the
// poll / state-transition / re-allocate loop, printing every decision.
//
// Usage:
//
//	iatd -tenants tenants.conf -duration 20 [-interval 1] [-scale 100]
//
// Tenant file format: see internal/tenantfile. Tenants with a "testpmd"
// workload get a dedicated NIC VF with line-rate traffic.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"iatsim/internal/bridge"
	"iatsim/internal/cache"
	"iatsim/internal/ckpt"
	"iatsim/internal/cli"
	"iatsim/internal/core"
	"iatsim/internal/faults"
	"iatsim/internal/harness"
	"iatsim/internal/nic"
	"iatsim/internal/nvme"
	"iatsim/internal/pkt"
	"iatsim/internal/policy"
	"iatsim/internal/prof"
	"iatsim/internal/sim"
	"iatsim/internal/telemetry"
	"iatsim/internal/tenantfile"
	"iatsim/internal/tgen"
	"iatsim/internal/trace"
	"iatsim/internal/workload"
)

// ckptFileName is the checkpoint file -checkpoint maintains inside its
// directory; each write replaces it atomically (write-temp + rename).
const ckptFileName = "iatd.ckpt"

// crashError is the -crash-after panic sentinel: the run dies mid-flight
// exactly as a real daemon crash would — no done line, no summaries, all
// state beyond the last checkpoint lost. Its ExitCode, 137 (the SIGKILL
// convention), is what cli.Exit returns, so scripts can tell a simulated
// crash from both clean exits and usage errors.
type crashError struct{ iter uint64 }

func (crashError) ExitCode() int { return 137 }

func (e crashError) Error() string {
	return fmt.Sprintf("simulated crash after iteration %d (state since the last checkpoint is lost)", e.iter)
}

// mutingWriter drops writes while muted. A resumed run replays the
// simulation silently up to the checkpoint iteration, then unmutes, so
// its output is byte-identical to an uninterrupted run's tail.
type mutingWriter struct {
	w     io.Writer
	muted bool
}

func (m *mutingWriter) Write(p []byte) (int, error) {
	if m.muted {
		return len(p), nil
	}
	return m.w.Write(p)
}

func main() {
	os.Exit(cli.Exit("iatd", os.Stderr, run(os.Args[1:], os.Stdout, os.Stderr)))
}

// options is one parsed and validated iatd command line.
type options struct {
	tenantsPath               string
	duration, interval, scale float64
	tracePath, telDir         string
	chaos                     string
	chaosSeed                 int64
	faults                    faults.Profile
	polFlag, shadowFlag       string
	polSpec                   policy.Spec
	shadowSpecs               []policy.Spec
	shadowCSV                 string
	ckptDir                   string
	ckptEvery                 int
	resumePath                string
	crashAfter                uint64
	jsonDir                   string
	prof                      prof.Opts
}

// parseFlags parses and validates the command line; a syntax error and
// the usage go to stderr. It creates no directory and reads no file: the
// output directories and the -resume checkpoint are checked by run.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("iatd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.tenantsPath, "tenants", "", "tenant description file (required)")
	fs.Float64Var(&o.duration, "duration", 20, "simulated seconds to run")
	fs.Float64Var(&o.interval, "interval", 1, "IAT polling interval in simulated seconds")
	fs.Float64Var(&o.scale, "scale", 100, "simulation scale factor")
	fs.StringVar(&o.tracePath, "trace", "", "write a per-iteration CSV trace to this file")
	fs.StringVar(&o.telDir, "telemetry", "", "collect telemetry and write <dir>/snapshot.{json,csv,trace.json} at exit")
	fs.StringVar(&o.chaos, "chaos", "", "inject deterministic faults from this profile ("+joinNames()+" or kind=rate,... spec)")
	fs.Int64Var(&o.chaosSeed, "chaos-seed", 1, "seed for the fault-injection schedule")
	fs.StringVar(&o.polFlag, "policy", "iat", "active allocation policy ("+strings.Join(policy.SpecNames(), ", ")+")")
	fs.StringVar(&o.shadowFlag, "shadow", "", "comma-separated shadow policies evaluated counterfactually each tick")
	fs.StringVar(&o.shadowCSV, "shadow-csv", "", "write the per-tick shadow divergence log to this CSV file (requires -shadow)")
	fs.StringVar(&o.ckptDir, "checkpoint", "", "maintain an atomic state checkpoint at <dir>/"+ckptFileName)
	fs.IntVar(&o.ckptEvery, "checkpoint-every", 5, "iterations between checkpoint writes (requires -checkpoint)")
	fs.StringVar(&o.resumePath, "resume", "", "resume from this checkpoint file: replay silently to its iteration, verify, restore, continue")
	fs.Uint64Var(&o.crashAfter, "crash-after", 0, "simulate a daemon crash immediately after this iteration (0 = never; exits 137)")
	fs.StringVar(&o.jsonDir, "json", "", "write the run manifest (with checkpoint provenance) as JSON into this directory")
	o.prof.RegisterFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return options{}, err
	}
	if o.tenantsPath == "" {
		fs.Usage()
		return options{}, flag.ErrHelp
	}
	// Validate every flag before assembling anything: a bad value must fail
	// fast with a clear message, not crash mid-run or — worse for -telemetry
	// — complete a multi-minute simulation and then fail to write it out.
	switch {
	case !cli.PositiveFinite(o.duration, 1e9):
		return options{}, cli.Usagef("-duration must be positive and finite (got %g)", o.duration)
	case !cli.PositiveFinite(o.interval, 1e9):
		return options{}, cli.Usagef("-interval must be positive and finite (got %g)", o.interval)
	case !cli.PositiveFinite(o.scale, 1):
		return options{}, cli.Usagef("-scale must be positive and finite (got %g)", o.scale)
	case o.ckptEvery < 1:
		return options{}, cli.Usagef("-checkpoint-every must be >= 1 (got %d)", o.ckptEvery)
	}
	if o.chaos != "" {
		var err error
		if o.faults, err = faults.ProfileByName(o.chaos); err != nil {
			return options{}, cli.Usagef("-chaos: %v", err)
		}
	}
	everySet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "checkpoint-every" {
			everySet = true
		}
	})
	if everySet && o.ckptDir == "" {
		return options{}, cli.Usagef("-checkpoint-every requires -checkpoint")
	}
	var err error
	if o.polSpec, err = policy.ParseSpec(o.polFlag); err != nil {
		return options{}, cli.Usagef("-policy: %v", err)
	}
	if o.shadowSpecs, err = policy.ParseShadowSpecs(o.shadowFlag); err != nil {
		return options{}, cli.Usagef("-shadow: %v", err)
	}
	if o.shadowCSV != "" && len(o.shadowSpecs) == 0 {
		return options{}, cli.Usagef("-shadow-csv requires -shadow")
	}
	return o, nil
}

// run is the testable body of the daemon CLI: it parses args, assembles
// the platform, runs the IAT loop, and prints every decision to stdout.
// The output is deterministic for a given tenant file and flag set.
func run(args []string, stdout, stderr io.Writer) error {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	for _, d := range []struct{ flag, dir string }{
		{"-telemetry", o.telDir}, {"-checkpoint", o.ckptDir}, {"-json", o.jsonDir},
	} {
		if d.dir != "" {
			if err := cli.EnsureWritableDir(d.dir); err != nil {
				return cli.Usagef("%s: %v", d.flag, err)
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
			log.Printf("iatd: profiling: %v", err)
		}
	}()
	if profiler.Addr != "" {
		fmt.Fprintf(stderr, "iatd: pprof listening on http://%s/debug/pprof/\n", profiler.Addr)
	}
	// Read and validate the resume checkpoint before any simulation work:
	// a missing file, corrupt envelope or future version must exit 2 up
	// front, not after a multi-minute silent replay.
	var resume *ckpt.Checkpoint
	var resumeHash string
	if o.resumePath != "" {
		c, err := ckpt.ReadFile(o.resumePath)
		if err != nil {
			return cli.Usagef("-resume: %v", err)
		}
		if c.Iteration == 0 {
			return cli.Usagef("-resume: %s records no completed iteration", o.resumePath)
		}
		h, err := ckpt.FileHash(o.resumePath)
		if err != nil {
			return err
		}
		resume, resumeHash = c, h
	}
	tenantData, err := os.ReadFile(o.tenantsPath)
	if err != nil {
		return err
	}
	entries, events, err := tenantfile.ParseWithEvents(bytes.NewReader(tenantData))
	if err != nil {
		return err
	}
	// cfgHash fingerprints everything the simulation's trajectory depends
	// on. A checkpoint only resumes under the exact configuration that
	// produced it — anything else would replay a different world and the
	// state verification at the checkpoint iteration would fail anyway,
	// after minutes instead of milliseconds.
	cfgHash := ckpt.ConfigHash(string(tenantData),
		fmtFlag(o.duration), fmtFlag(o.interval), fmtFlag(o.scale),
		o.chaos, strconv.FormatInt(o.chaosSeed, 10), o.polFlag, o.shadowFlag)
	if resume != nil && resume.ConfigHash != cfgHash {
		return cli.Usagef(
			"-resume: checkpoint config hash %s does not match this invocation (%s); rerun with the tenant file and flags of the checkpointed run",
			resume.ConfigHash, cfgHash)
	}

	// All run output funnels through out so a resumed run can replay the
	// pre-checkpoint iterations without printing them.
	out := &mutingWriter{w: stdout}

	p := sim.NewPlatform(sim.XeonGold6140(o.scale))
	var tel *telemetry.Registry
	if o.telDir != "" {
		// Attach before build so AddDevice auto-instruments every NIC
		// and buildWorkers can instrument NVMe devices it creates.
		tel = telemetry.NewRegistry()
		p.AttachTelemetry(tel)
	}
	xmems, err := build(p, entries)
	if err != nil {
		return err
	}

	daemon, err := bridge.NewIAT(p, bridge.ScaledParams(o.scale, o.interval*1e9), core.Options{})
	if err != nil {
		return err
	}
	if tel != nil {
		daemon.Tel = tel
	}
	// Only a non-default policy is swapped in: with -policy iat the daemon
	// keeps the policy NewDaemon installed, so output (including the
	// telemetry event stream) is bit-for-bit the pre-flag behaviour.
	if o.polSpec.Kind != policy.KindIAT {
		if err := daemon.SetPolicy(o.polSpec.New()); err != nil {
			return err
		}
	}
	var shadows *policy.Evaluator
	if len(o.shadowSpecs) > 0 {
		shadows = policy.NewEvaluator(o.shadowSpecs)
		if tel != nil {
			shadows.Tel = tel
		}
		daemon.AttachShadows(shadows)
	}
	var tracer *trace.Writer
	if o.tracePath != "" {
		tf, err := os.Create(o.tracePath)
		if err != nil {
			return err
		}
		defer func() {
			if err := tracer.Flush(); err != nil {
				log.Printf("iatd: trace flush: %v", err)
			}
			tf.Close()
		}()
		tracer = trace.NewWriter(tf)
	}
	// Arm the injector only after the machine is assembled: construction-time
	// mask programming is not part of the fault surface.
	inj := faults.NewInjector(o.faults, o.chaosSeed)
	if o.faults.Active() {
		if tel != nil {
			inj.AttachTelemetry(tel, p.NowNS)
		}
		p.SetFaults(inj)
		fmt.Fprintf(out, "iatd: chaos profile %q armed (seed %d)\n", o.chaos, o.chaosSeed)
	}

	// The iteration counter drives the whole checkpoint machinery: writes
	// fall on every -checkpoint-every'th count, the resume handoff fires
	// when the silent replay reaches the checkpoint's count, and
	// -crash-after kills the run at its count. A checkpoint is taken at
	// the exact program point the resume verification later re-reaches, so
	// the two states are comparable byte for byte.
	var iter uint64
	var replayErr error
	ckptPath := filepath.Join(o.ckptDir, ckptFileName)
	daemon.OnIteration = func(it core.IterationInfo) {
		iter++
		if tracer != nil {
			_ = tracer.Record(it)
		}
		if it.Stable {
			fmt.Fprintf(out, "[%7.2fs] %-10s stable (ddio=%v hit/s=%.2e miss/s=%.2e)\n",
				it.NowNS/1e9, it.State, it.DDIOMask, it.DDIOHitPS, it.DDIOMissPS)
		} else {
			fmt.Fprintf(out, "[%7.2fs] %-10s %-28s ddio=%v masks=%s\n",
				it.NowNS/1e9, it.State, it.Action, it.DDIOMask, fmtMasks(it.Masks))
		}
		if resume != nil && iter == resume.Iteration && replayErr == nil {
			if replayErr = restoreFromCheckpoint(daemon, inj, o.faults.Active(), resume, cfgHash, it.NowNS, iter); replayErr == nil {
				out.muted = false
			}
		}
		if o.ckptDir != "" && iter%uint64(o.ckptEvery) == 0 {
			if err := writeCheckpoint(ckptPath, cfgHash, iter, it.NowNS, daemon, inj, o.faults.Active()); err != nil {
				log.Printf("iatd: checkpoint: %v", err)
			} else if tel != nil {
				tel.Counter("ckpt", "", "writes").Inc()
			}
		}
		if o.crashAfter > 0 && iter == o.crashAfter {
			panic(crashError{iter})
		}
	}

	fmt.Fprintf(out, "iatd: %d tenants, %d events, %d ways, interval %.2fs, running %.0fs of simulated time\n",
		len(entries), len(events), p.RDT.NumWays(), o.interval, o.duration)
	if resume != nil {
		fmt.Fprintf(out, "iatd: resuming from %s (iteration %d, %.2fs simulated); replaying silently to the checkpoint\n",
			o.resumePath, resume.Iteration, resume.SimTimeNS/1e9)
		out.muted = true
	}
	if err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				ce, ok := r.(crashError)
				if !ok {
					panic(r)
				}
				err = ce
			}
		}()
		runWithEvents(p, daemon, events, xmems, o.duration*1e9, out)
		return nil
	}(); err != nil {
		return err
	}
	if resume != nil {
		if replayErr != nil {
			return replayErr
		}
		if iter < resume.Iteration {
			return fmt.Errorf("resume: checkpoint iteration %d was never reached (run ended after %d iterations)",
				resume.Iteration, iter)
		}
	}

	total, unstable := daemon.Iterations()
	fmt.Fprintf(out, "iatd: done; %d iterations (%d unstable), final state %s, final DDIO mask %v\n",
		total, unstable, daemon.State(), p.RDT.DDIOMask())
	if o.faults.Active() {
		h := daemon.Health()
		fmt.Fprintf(out, "iatd: chaos: %d faults injected; health: rejects=%d retries=%d wfail=%d degradations=%d rearms=%d degraded=%v\n",
			inj.Total(), h.SampleRejects, h.WriteRetries, h.WriteFailures, h.Degradations, h.Rearms, h.Degraded)
	}
	if shadows != nil {
		for _, sum := range shadows.Summaries() {
			fmt.Fprintf(out, "iatd: shadow %s: ticks=%d agree=%.3f ddio+%d/-%d tenant+%d/-%d hamming=%.2f final-ddio=%d\n",
				sum.Name, sum.Ticks, sum.AgreeRate(), sum.WouldGrowDDIO, sum.WouldShrinkDDIO,
				sum.WouldGrowTenant, sum.WouldShrinkTenant, sum.MeanHamming(), sum.FinalDDIO)
		}
		if n := shadows.Dropped(); n > 0 {
			fmt.Fprintf(out, "iatd: shadow: %d divergence rows dropped (log bound reached)\n", n)
		}
		if o.shadowCSV != "" {
			cf, err := os.Create(o.shadowCSV)
			if err != nil {
				return err
			}
			if err := shadows.WriteCSV(cf); err != nil {
				cf.Close()
				return err
			}
			if err := cf.Close(); err != nil {
				return err
			}
			fmt.Fprintf(out, "iatd: shadow divergence log written to %s\n", o.shadowCSV)
		}
	}
	if tel != nil {
		base := filepath.Join(o.telDir, "snapshot")
		if err := tel.Snapshot(p.NowNS()).WriteFiles(base); err != nil {
			return err
		}
		fmt.Fprintf(out, "iatd: telemetry snapshot written to %s.{json,csv,trace.json}\n", base)
	}
	if o.jsonDir != "" {
		var cseed int64
		if o.chaos != "" {
			cseed = o.chaosSeed
		}
		opts := harness.RunOptions{
			Jobs: 1, Selectors: []string{"iatd"},
			Chaos: o.chaos, ChaosSeed: cseed,
		}
		if o.ckptDir != "" {
			opts.CheckpointEvery = o.ckptEvery
		}
		if resume != nil {
			opts.ResumedFrom = resumeHash
			opts.ResumeIteration = resume.Iteration
		}
		manifest := harness.NewManifest(opts)
		manifest.Finish()
		path, err := manifest.Write(o.jsonDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "iatd: manifest written to %s\n", path)
	}
	return nil
}

// fmtMasks renders per-CLOS masks in the log's map[clos:mask ...] form.
func fmtMasks(masks []core.GroupMask) string {
	var b strings.Builder
	b.WriteString("map[")
	for i, m := range masks {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%v", m.CLOS, m.Mask)
	}
	b.WriteByte(']')
	return b.String()
}

// fmtFlag renders a float flag for the checkpoint config hash: shortest
// exact representation, so equal values hash equally.
func fmtFlag(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writeCheckpoint captures the daemon (and, under chaos, the injector)
// and replaces path atomically. It is called from inside OnIteration, at
// a fixed program point in the iteration; restoreFromCheckpoint verifies
// a replayed run's state at that same point, so the comparison is exact.
func writeCheckpoint(path, cfgHash string, iter uint64, nowNS float64, d *core.Daemon, inj *faults.Injector, chaosActive bool) error {
	c := &ckpt.Checkpoint{Iteration: iter, SimTimeNS: nowNS, ConfigHash: cfgHash}
	if err := d.SnapshotState(&c.Daemon); err != nil {
		return err
	}
	if chaosActive {
		s := inj.Snapshot()
		c.Injector = &s
	}
	return ckpt.WriteFile(path, c)
}

// restoreFromCheckpoint is the resume handoff, run when the silent
// replay reaches the checkpoint's iteration: it first proves the
// replayed daemon and injector state re-serialize to exactly the
// checkpoint's bytes (the resume-determinism guarantee), then restores
// from the checkpoint anyway — the file, not the replay, is the
// authority the run continues from.
func restoreFromCheckpoint(d *core.Daemon, inj *faults.Injector, chaosActive bool, c *ckpt.Checkpoint, cfgHash string, nowNS float64, iter uint64) error {
	replayed := &ckpt.Checkpoint{Iteration: iter, SimTimeNS: nowNS, ConfigHash: cfgHash}
	if err := d.SnapshotState(&replayed.Daemon); err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	if chaosActive {
		s := inj.Snapshot()
		replayed.Injector = &s
	}
	a, err := ckpt.Marshal(replayed)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	b, err := ckpt.Marshal(c)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("resume: replayed state diverged from the checkpoint at iteration %d", iter)
	}
	if err := d.RestoreState(c.Daemon); err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	if c.Injector != nil {
		inj.Restore(*c.Injector)
	}
	return nil
}

// joinNames lists the named fault profiles for the -chaos flag help.
func joinNames() string {
	return strings.Join(faults.ProfileNames(), ",")
}

// build assembles tenants and their workloads onto the platform, packing
// initial CAT masks bottom-up in file order. It returns each tenant's X-Mem
// workers so '@' events can retune working sets at runtime.
func build(p *sim.Platform, entries []tenantfile.Entry) (map[string][]*workload.XMem, error) {
	xmems := map[string][]*workload.XMem{}
	pos := 0
	clos := 1
	for _, e := range entries {
		mask := cache.ContiguousMask(pos, e.Ways)
		if mask.Highest() >= p.RDT.NumWays() {
			return nil, fmt.Errorf("tenant %q overflows the LLC ways", e.Name)
		}
		if err := p.RDT.SetCLOSMask(clos, mask); err != nil {
			return nil, err
		}
		pos += e.Ways

		workers, isIO, err := buildWorkers(p, e)
		if err != nil {
			return nil, err
		}
		for _, w := range workers {
			if x, ok := w.(*workload.XMem); ok {
				xmems[e.Name] = append(xmems[e.Name], x)
			}
		}
		prio := sim.BestEffort
		switch e.Priority {
		case "pc":
			prio = sim.PerformanceCritical
		case "stack":
			prio = sim.Stack
		}
		if err := p.AddTenant(&sim.Tenant{
			Name: e.Name, Cores: e.Cores, CLOS: clos,
			Priority: prio, IsIO: e.IO || isIO, Workers: workers,
		}); err != nil {
			return nil, err
		}
		clos++
	}
	return xmems, nil
}

// runWithEvents advances the simulation, applying '@' events at their
// scheduled times and notifying the daemon of phase changes.
func runWithEvents(p *sim.Platform, daemon *core.Daemon, events []tenantfile.Event,
	xmems map[string][]*workload.XMem, durNS float64, stdout io.Writer) {
	sort.Slice(events, func(i, j int) bool { return events[i].AtNS < events[j].AtNS })
	for _, ev := range events {
		if ev.AtNS > p.NowNS() {
			p.Run(min(ev.AtNS, durNS) - p.NowNS())
		}
		if ev.AtNS >= durNS {
			break
		}
		switch {
		case ev.Target == "ddio" && ev.Action == "ways":
			ways := p.Cfg.Hier.LLC.Ways
			n := ev.Arg
			if n > ways {
				n = ways
			}
			if err := p.RDT.SetDDIOMask(cache.ContiguousMask(ways-n, n)); err != nil {
				log.Printf("iatd: event ddio ways %d: %v", ev.Arg, err)
				continue
			}
			fmt.Fprintf(stdout, "[%7.2fs] event: DDIO ways -> %d\n", p.NowNS()/1e9, n)
		case ev.Action == "xmem-ws":
			for _, x := range xmems[ev.Target] {
				x.SetWorkingSet(uint64(ev.Arg) << 20)
			}
			fmt.Fprintf(stdout, "[%7.2fs] event: %s working set -> %dMB\n", p.NowNS()/1e9, ev.Target, ev.Arg)
			daemon.NotifyTenantsChanged()
		}
	}
	if p.NowNS() < durNS {
		p.Run(durNS - p.NowNS())
	}
}

// buildWorkers instantiates the workload named in the tenant file.
func buildWorkers(p *sim.Platform, e tenantfile.Entry) ([]sim.Worker, bool, error) {
	kind, arg := tenantfile.WorkloadKind(e.Workload)
	switch kind {
	case "testpmd":
		size := 1500
		if arg != "" {
			v, err := strconv.Atoi(arg)
			if err != nil {
				return nil, false, fmt.Errorf("bad testpmd packet size %q", arg)
			}
			size = v
		}
		dev := p.AddDevice(nic.Config{Name: "nic-" + e.Name, VFs: 1})
		vf := dev.VF(0)
		vf.ConsumerCore = e.Cores[0]
		flows := pkt.NewFlowSet(64, 0, uint64(len(e.Name)))
		g := tgen.NewGenerator(p.GeneratorRate(tgen.LineRatePPS(40, size)), size, flows, int64(len(e.Name)))
		p.AttachGenerator(g, dev, 0)
		workers := make([]sim.Worker, len(e.Cores))
		for i := range workers {
			workers[i] = workload.NewTestPMD(vf)
		}
		return workers, true, nil
	case "xmem":
		mb := 4
		if arg != "" {
			v, err := strconv.Atoi(arg)
			if err != nil {
				return nil, false, fmt.Errorf("bad xmem size %q", arg)
			}
			mb = v
		}
		workers := make([]sim.Worker, len(e.Cores))
		for i := range workers {
			workers[i] = workload.NewXMem(p.Alloc, uint64(mb)<<20, uint64(mb)<<20, int64(7+i))
		}
		return workers, false, nil
	case "spec":
		prof, err := workload.SpecProfileByName(arg)
		if err != nil {
			return nil, false, err
		}
		workers := make([]sim.Worker, len(e.Cores))
		for i := range workers {
			workers[i] = workload.NewSpec(prof, p.Alloc, 0, int64(13+i))
		}
		return workers, false, nil
	case "l3fwd":
		flows := 1 << 20
		if arg != "" {
			v, err := strconv.Atoi(arg)
			if err != nil || v < 1 {
				return nil, false, fmt.Errorf("bad l3fwd flow count %q", arg)
			}
			flows = v
		}
		dev := p.AddDevice(nic.Config{Name: "nic-" + e.Name, VFs: 1})
		vf := dev.VF(0)
		vf.ConsumerCore = e.Cores[0]
		fs := pkt.NewFlowSet(flows, 0, uint64(len(e.Name)))
		g := tgen.NewGenerator(p.GeneratorRate(tgen.LineRatePPS(40, 64)), 64, fs, int64(len(e.Name)))
		p.AttachGenerator(g, dev, 0)
		workers := make([]sim.Worker, len(e.Cores))
		for i := range workers {
			workers[i] = workload.NewL3Fwd(vf, flows, p.Alloc)
		}
		return workers, true, nil
	case "nfchain":
		flows := 4096
		if arg != "" {
			v, err := strconv.Atoi(arg)
			if err != nil || v < 1 {
				return nil, false, fmt.Errorf("bad nfchain flow count %q", arg)
			}
			flows = v
		}
		dev := p.AddDevice(nic.Config{Name: "nic-" + e.Name, VFs: 1})
		vf := dev.VF(0)
		vf.ConsumerCore = e.Cores[0]
		fs := pkt.NewFlowSet(flows, 0, uint64(len(e.Name)))
		g := tgen.NewGenerator(p.GeneratorRate(tgen.LineRatePPS(20, 1500)), 1500, fs, int64(len(e.Name)))
		p.AttachGenerator(g, dev, 0)
		workers := make([]sim.Worker, len(e.Cores))
		for i := range workers {
			workers[i] = workload.NewNFChain(vf, flows, p.Alloc)
		}
		return workers, true, nil
	case "spdk":
		qd, blockKB := 64, 128
		if arg != "" {
			if _, err := fmt.Sscanf(arg, "%dx%d", &qd, &blockKB); err != nil {
				return nil, false, fmt.Errorf("bad spdk spec %q (want QDxBLOCK_KB, e.g. 64x128)", arg)
			}
		}
		cfg := nvme.DefaultConfig("ssd-" + e.Name)
		cfg.BandwidthGBps /= p.Cfg.Scale
		dev := nvme.New(cfg, len(e.Cores), p.DDIO, p.Alloc)
		dev.AttachTelemetry(p.Telemetry())
		p.AddMicrotickHook(dev.Tick)
		workers := make([]sim.Worker, len(e.Cores))
		for i := range workers {
			dev.QP(i).ConsumerCore = e.Cores[i]
			workers[i] = workload.NewSPDKServer(dev, i, qd, blockKB<<10, p.Alloc, int64(19+i))
		}
		return workers, true, nil
	case "idle":
		workers := make([]sim.Worker, len(e.Cores))
		for i := range workers {
			workers[i] = idleWorker{}
		}
		return workers, false, nil
	}
	return nil, false, fmt.Errorf("unknown workload %q", e.Workload)
}

// idleWorker leaves its core halted.
type idleWorker struct{}

// Run implements sim.Worker.
func (idleWorker) Run(*sim.Ctx) {}
