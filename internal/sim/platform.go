package sim

import (
	"fmt"

	"iatsim/internal/addr"
	"iatsim/internal/cache"
	"iatsim/internal/ddio"
	"iatsim/internal/mem"
	"iatsim/internal/msr"
	"iatsim/internal/nic"
	"iatsim/internal/rdt"
	"iatsim/internal/telemetry"
	"iatsim/internal/tgen"
)

// Controller is a management-plane agent polled once per epoch (the IAT
// daemon, whichever policy it runs). It observes and programs the machine
// exclusively through the MSR/RDT interfaces.
type Controller interface {
	Tick(nowNS float64)
}

// ControllerFunc adapts a function to the Controller interface.
type ControllerFunc func(nowNS float64)

// Tick implements Controller.
func (f ControllerFunc) Tick(nowNS float64) { f(nowNS) }

// PollFaults perturbs the management plane's polling cadence; the chaos
// harness (internal/faults) implements it with a seeded schedule. SkipPoll
// is asked once per epoch: true suppresses every controller Tick for that
// epoch, modelling scheduler jitter and overrun sleeps on the daemon's
// polling loop.
type PollFaults interface {
	SkipPoll(nowNS float64) bool
}

// Faults is a fault source for every surface the platform can arm: MSR
// accesses, each NIC's datapath and the polling cadence
// (faults.Injector implements it).
type Faults interface {
	msr.FaultHook
	nic.FaultInjector
	PollFaults
}

// genBinding attaches a traffic generator to a device VF.
type genBinding struct {
	gen *tgen.Generator
	dev *nic.Device
	vf  int
}

// Platform is the assembled machine.
type Platform struct {
	Cfg   Config
	Alloc *addr.Allocator
	Mem   *mem.Controller
	Hier  *cache.Hierarchy
	MSR   *msr.File
	RDT   *rdt.Controller
	DDIO  *ddio.Engine

	devices []*nic.Device
	tenants []*Tenant
	gens    []genBinding
	ctrls   []Controller
	tickers []func(nowNS, dtNS float64)

	instr  []uint64 // per-core retired instructions
	cycles []uint64 // per-core unhalted cycles
	debt   []int64  // per-core budget overshoot carried between microticks

	// mbaMiss tracks per-core LLC misses for the MBA throttle model:
	// a throttled class pays extra queueing delay per memory request.
	mbaMiss []uint64

	ambientAcc  float64
	ambientRand uint64

	pollFaults   PollFaults
	skippedPolls uint64
	ctrlSkips    *telemetry.Counter

	// wctx is the reusable worker context. Workers run strictly one at a
	// time and must not retain the *Ctx past Run, so a single platform-
	// resident value replaces the per-worker-per-microtick heap allocation
	// that &Ctx{...} escaping through the Worker interface used to cost.
	wctx Ctx

	tel telemetry.Sink // nil unless AttachTelemetry was called

	nowNS float64
}

// NewPlatform assembles a machine from cfg.
func NewPlatform(cfg Config) *Platform {
	cfg = cfg.withDefaults()
	if err := cfg.Hier.Validate(); err != nil {
		panic(err)
	}
	// Scale divides every rate in the system; memory channel bandwidth is
	// a rate, so it scales too — keeping bandwidth utilisation (and the
	// queueing delays it causes) identical to the unscaled machine.
	if cfg.Mem.BandwidthGBps == 0 {
		cfg.Mem.BandwidthGBps = mem.DefaultConfig().BandwidthGBps
	}
	cfg.Mem.BandwidthGBps /= cfg.Scale
	p := &Platform{
		Cfg:     cfg,
		Alloc:   addr.NewAllocator(1 << 30),
		Mem:     mem.NewController(cfg.Mem),
		MSR:     msr.NewFile(),
		instr:   make([]uint64, cfg.Cores),
		cycles:  make([]uint64, cfg.Cores),
		debt:    make([]int64, cfg.Cores),
		mbaMiss: make([]uint64, cfg.Cores),
	}
	p.Hier = cache.NewHierarchy(cfg.Hier, cfg.FreqGHz, p.Mem)
	p.DDIO = ddio.New(p.MSR, p.Hier, p.Mem)
	var err error
	p.RDT, err = rdt.New(rdt.Config{
		Cores:   cfg.Cores,
		Ways:    cfg.Hier.LLC.Ways,
		NumCLOS: cfg.NumCLOS,
		Slices:  cfg.Hier.LLC.Slices,
	}, p.MSR)
	if err != nil {
		panic(err)
	}
	p.wireCounters()
	return p
}

// wireCounters maps the performance-counter MSR addresses onto the live
// simulation state.
func (p *Platform) wireCounters() {
	llc := p.Hier.LLC()
	for core := 0; core < p.Cfg.Cores; core++ {
		p.MSR.MapRead(msr.CoreCounterAddr(core, msr.EvInstructions), func() uint64 { return p.instr[core] })
		p.MSR.MapRead(msr.CoreCounterAddr(core, msr.EvCycles), func() uint64 { return p.cycles[core] })
		p.MSR.MapRead(msr.CoreCounterAddr(core, msr.EvLLCRefs), func() uint64 { return llc.CoreRefs(core) })
		p.MSR.MapRead(msr.CoreCounterAddr(core, msr.EvLLCMisses), func() uint64 { return llc.CoreMisses(core) })
	}
	for s := 0; s < p.Cfg.Hier.LLC.Slices; s++ {
		p.MSR.MapRead(msr.CHACounterAddr(s, msr.EvDDIOHit), func() uint64 { return llc.SliceStats(s).DDIOHits })
		p.MSR.MapRead(msr.CHACounterAddr(s, msr.EvDDIOMiss), func() uint64 { return llc.SliceStats(s).DDIOMisses })
	}
}

// AttachTelemetry wires the sink through every assembled layer: the
// LLC's per-slice counters, the memory controller's latency histograms,
// the DDIO engine's datapath counters, and every already-attached NIC.
// Devices added later are wired by AddDevice; externally constructed
// devices (e.g. NVMe) attach themselves via Telemetry(). Passing nil is
// a no-op, keeping every hot path on its zero-cost branch.
func (p *Platform) AttachTelemetry(s telemetry.Sink) {
	if s == nil {
		return
	}
	p.tel = s
	p.ctrlSkips = s.Counter("sim", "", "ctrl_poll_skips")
	p.Hier.LLC().AttachTelemetry(s)
	p.Mem.AttachTelemetry(s)
	p.DDIO.AttachTelemetry(s)
	for _, d := range p.devices {
		d.AttachTelemetry(s)
	}
}

// Telemetry returns the attached sink (nil when uninstrumented).
func (p *Platform) Telemetry() telemetry.Sink { return p.tel }

// AddDevice attaches a NIC.
func (p *Platform) AddDevice(cfg nic.Config) *nic.Device {
	d := nic.NewDevice(cfg, p.DDIO, p.Alloc)
	if p.tel != nil {
		d.AttachTelemetry(p.tel)
	}
	p.devices = append(p.devices, d)
	return d
}

// Devices returns the attached NICs.
func (p *Platform) Devices() []*nic.Device { return p.devices }

// AddTenant registers a tenant and programs its core/CLOS association. The
// tenant's CAT mask must be programmed separately (via RDT or a
// controller).
func (p *Platform) AddTenant(t *Tenant) error {
	if len(t.Workers) != len(t.Cores) {
		return fmt.Errorf("sim: tenant %q has %d workers for %d cores", t.Name, len(t.Workers), len(t.Cores))
	}
	for _, c := range t.Cores {
		if c < 0 || c >= p.Cfg.Cores {
			return fmt.Errorf("sim: tenant %q core %d out of range", t.Name, c)
		}
		if err := p.RDT.Assoc(c, t.CLOS); err != nil {
			return err
		}
	}
	p.tenants = append(p.tenants, t)
	return nil
}

// Tenants returns the registered tenants.
func (p *Platform) Tenants() []*Tenant { return p.tenants }

// TenantByName finds a tenant, or nil.
func (p *Platform) TenantByName(name string) *Tenant {
	for _, t := range p.tenants {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// AttachGenerator points a traffic generator at a device VF.
func (p *Platform) AttachGenerator(g *tgen.Generator, d *nic.Device, vf int) {
	p.gens = append(p.gens, genBinding{gen: g, dev: d, vf: vf})
}

// AddController registers a management-plane agent (e.g. the IAT daemon).
func (p *Platform) AddController(c Controller) { p.ctrls = append(p.ctrls, c) }

// SetPollFaults attaches (or, with nil, removes) a polling-cadence fault
// source consulted once per epoch before the controllers run.
func (p *Platform) SetPollFaults(pf PollFaults) { p.pollFaults = pf }

// SetFaults arms f on the MSR file, on every NIC attached so far and on
// the polling cadence; nil disarms all three. Pass an untyped nil to
// disarm: a nil pointer inside f would be armed as a live hook.
func (p *Platform) SetFaults(f Faults) {
	if f == nil {
		p.MSR.SetFaultHook(nil)
		for _, d := range p.devices {
			d.SetFaults(nil)
		}
		p.pollFaults = nil
		return
	}
	p.MSR.SetFaultHook(f)
	for _, d := range p.devices {
		d.SetFaults(f)
	}
	p.pollFaults = f
}

// SkippedPolls returns how many controller polling epochs were suppressed
// by the attached PollFaults source.
func (p *Platform) SkippedPolls() uint64 { return p.skippedPolls }

// AddMicrotickHook registers a function run once per microtick, after
// traffic ingress and before the cores — the attachment point for devices
// with their own time-driven behaviour (e.g. the NVMe model's command
// service loop).
func (p *Platform) AddMicrotickHook(f func(nowNS, dtNS float64)) {
	p.tickers = append(p.tickers, f)
}

// NowNS returns the simulated time.
func (p *Platform) NowNS() float64 { return p.nowNS }

// CoreInstr returns core's cumulative retired-instruction counter.
func (p *Platform) CoreInstr(core int) uint64 { return p.instr[core] }

// CoreCycles returns core's cumulative unhalted-cycle counter.
func (p *Platform) CoreCycles(core int) uint64 { return p.cycles[core] }

// Step advances the simulation by one epoch: per microtick it runs traffic
// ingress, every tenant worker, and transmit draining, then polls the
// controllers once.
func (p *Platform) Step() {
	cfg := p.Cfg
	p.Mem.BeginEpoch(cfg.EpochNS)
	dt := cfg.EpochNS / float64(cfg.Microticks)
	budget := cfg.CycleBudget()
	for mt := 0; mt < cfg.Microticks; mt++ {
		// Ingress: generators offer load, the devices DMA it in. The
		// offered rate is divided by Scale; cycle budgets are too, so
		// the producer/consumer ratio is preserved.
		for i := range p.gens {
			gb := &p.gens[i]
			n := gb.gen.Arrivals(p.nowNS, dt)
			for k := 0; k < n; k++ {
				if !gb.dev.DeliverRx(gb.vf, gb.gen.Next(), p.nowNS) {
					// A dropped request returns its closed-loop
					// credit (the client's timeout-and-retry).
					gb.gen.Complete()
				}
			}
		}
		for _, f := range p.tickers {
			f(p.nowNS, dt)
		}
		// Cores.
		for _, t := range p.tenants {
			for k, w := range t.Workers {
				core := t.Cores[k]
				carried := p.debt[core]
				if carried >= budget {
					// The core spends the whole microtick paying
					// off earlier overshoot (or MBA stalls).
					p.debt[core] -= budget
					p.cycles[core] += uint64(budget)
					continue
				}
				b := budget - carried
				ctx := &p.wctx
				*ctx = Ctx{
					p:      p,
					core:   core,
					mask:   p.RDT.MaskForCore(core),
					budget: b,
					nowNS:  p.nowNS,
				}
				w.Run(ctx)
				used := ctx.spent
				if used > b {
					p.debt[core] = used - b
					used = b
				} else {
					p.debt[core] = 0
				}
				p.cycles[core] += uint64(used) + uint64(carried)
				p.applyMBA(core)
			}
		}
		// Egress: wire-paced transmit draining.
		for _, d := range p.devices {
			for v := 0; v < d.NumVFs(); v++ {
				d.DrainTx(v, dt)
			}
		}
		p.ambientChurn(dt)
		p.nowNS += dt
	}
	if p.pollFaults != nil && p.pollFaults.SkipPoll(p.nowNS) {
		p.skippedPolls++
		p.ctrlSkips.Inc()
		return
	}
	for _, c := range p.ctrls {
		c.Tick(p.nowNS)
	}
}

// applyMBA charges the Memory Bandwidth Allocation throttle: each LLC miss
// a throttled class generated this microtick pays additional queueing delay
// on the L2-to-memory path (how real MBA works — a request-rate throttle),
// modelled as stall debt of throttle/(100-throttle) extra memory latencies
// per miss.
func (p *Platform) applyMBA(core int) {
	miss := p.Hier.LLC().CoreMisses(core)
	d := miss - p.mbaMiss[core]
	p.mbaMiss[core] = miss
	if d == 0 {
		return
	}
	thr := p.RDT.MBAThrottleForCore(core)
	if thr <= 0 {
		return
	}
	memCycles := p.Cfg.FreqGHz * p.Mem.Config().BaseLatencyNS
	p.debt[core] += int64(float64(d) * memCycles * float64(thr) / float64(100-thr))
}

// ambientChurn injects the configured background LLC fill traffic for one
// microtick (see Config.AmbientFillPS).
func (p *Platform) ambientChurn(dtNS float64) {
	rate := p.Cfg.AmbientFillPS
	if rate <= 0 {
		return
	}
	p.ambientAcc += rate / p.Cfg.Scale * dtNS / 1e9
	n := int(p.ambientAcc)
	p.ambientAcc -= float64(n)
	llc := p.Hier.LLC()
	for i := 0; i < n; i++ {
		// xorshift over a private region far above the allocator.
		p.ambientRand = p.ambientRand*0x5DEECE66D + 0xB
		a := (uint64(1)<<40 | (p.ambientRand >> 8 << 6))
		if v := llc.AmbientFill(a); v.Valid && v.Dirty {
			p.Mem.Write(64)
		}
	}
}

// Run advances the simulation by durNS of simulated time (rounded up to
// whole epochs).
func (p *Platform) Run(durNS float64) {
	end := p.nowNS + durNS
	for p.nowNS < end {
		p.Step()
	}
}

// GeneratorRate rescales a generator's offered rate by the platform scale:
// pass the unscaled (paper-world) packets-per-second figure and the
// generator will be driven at pps/Scale in the simulation.
func (p *Platform) GeneratorRate(unscaledPPS float64) float64 {
	return unscaledPPS / p.Cfg.Scale
}

// ScaledPPS converts a measured simulation packet rate back to the
// paper-world rate.
func (p *Platform) ScaledPPS(simPPS float64) float64 { return simPPS * p.Cfg.Scale }
