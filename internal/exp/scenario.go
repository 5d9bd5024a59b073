package exp

import (
	"iatsim/internal/bridge"
	"iatsim/internal/cache"
	"iatsim/internal/core"
	"iatsim/internal/faults"
	"iatsim/internal/nic"
	"iatsim/internal/pkt"
	"iatsim/internal/policy"
	"iatsim/internal/sim"
	"iatsim/internal/telemetry"
	"iatsim/internal/tgen"
	"iatsim/internal/workload"
)

// mustTenant registers t on p or panics (scenario construction is
// programmer-controlled; failures are bugs, not runtime conditions).
func mustTenant(p *sim.Platform, t *sim.Tenant) {
	if err := p.AddTenant(t); err != nil {
		panic(err)
	}
}

// mustMask programs a CLOS mask or panics.
func mustMask(p *sim.Platform, clos int, m cache.WayMask) {
	if err := p.RDT.SetCLOSMask(clos, m); err != nil {
		panic(err)
	}
}

// LeakyScenario is the aggregation-model setup of the paper's Leaky DMA
// microbenchmark (Sec. VI-B, Figs. 8 and 9): two NICs attached to an OVS
// virtual switch on two dedicated cores with two dedicated LLC ways, and two
// testpmd containers (two dedicated cores, one dedicated way each) bouncing
// the traffic back, all at line rate.
type LeakyScenario struct {
	P     *sim.Platform
	OVS   *workload.OVS
	Devs  [2]*nic.Device
	Ports [2]*nic.VirtioPort
	Gens  [2]*tgen.Generator

	// OVSCores are the switch's cores (for IPC / CPP measurement).
	OVSCores []int
}

// LeakyOpts parameterises the scenario.
type LeakyOpts struct {
	Scale    float64
	PktSize  int
	Flows    int     // distinct flows per NIC (1 in Fig. 8, swept in Fig. 9)
	RatePPS  float64 // offered rate per NIC (0 = line rate for PktSize)
	RingSize int     // NIC ring entries (0 = 1024, the paper's default)
	Seed     int64   // RNG seed offset (0 = the canonical seeds)
}

// NewLeakyScenario assembles the platform. Call Run/Measure on .P.
func NewLeakyScenario(o LeakyOpts) *LeakyScenario {
	if o.Scale == 0 {
		o.Scale = 100
	}
	if o.PktSize == 0 {
		o.PktSize = 64
	}
	if o.Flows == 0 {
		o.Flows = 1
	}
	if o.RingSize == 0 {
		o.RingSize = 1024
	}
	if o.RatePPS == 0 {
		o.RatePPS = tgen.LineRatePPS(40, o.PktSize)
	}
	p := sim.NewPlatform(sim.XeonGold6140(o.Scale))
	s := &LeakyScenario{P: p, OVSCores: []int{0, 1}}

	ovs := workload.NewOVS(2*o.Flows, p.Alloc)
	s.OVS = ovs
	for i := 0; i < 2; i++ {
		dev := p.AddDevice(nic.Config{Name: devName(i), RxEntries: o.RingSize, VFs: 1})
		vf := dev.VF(0)
		vf.ConsumerCore = i // the OVS worker core that polls it
		s.Devs[i] = dev
		port := nic.NewVirtioPort(portName(i), 1024, p.Alloc)
		s.Ports[i] = port
		ovs.NICPorts = append(ovs.NICPorts, vf)
		ovs.VirtioPorts = append(ovs.VirtioPorts, port)
	}
	// OVS rules: NICi <-> containeri (the four rules of Sec. VI-B).
	ovs.RouteNIC = func(i int, _ pkt.Flow) int { return i }
	ovs.RouteVirtio = func(i int, _ pkt.Flow) int { return i }

	// CAT: OVS two ways, containers one way each (Fig. 8 setup).
	mustMask(p, 1, cache.ContiguousMask(0, 2))
	mustMask(p, 2, cache.ContiguousMask(2, 1))
	mustMask(p, 3, cache.ContiguousMask(3, 1))

	mustTenant(p, &sim.Tenant{
		Name: "ovs", Cores: []int{0, 1}, CLOS: 1, Priority: sim.Stack, IsIO: true,
		Workers: []sim.Worker{ovs.Worker([]int{0}, []int{0}), ovs.Worker([]int{1}, []int{1})},
	})
	for i := 0; i < 2; i++ {
		port := s.Ports[i]
		mustTenant(p, &sim.Tenant{
			Name: containerName(i), Cores: []int{2 + 2*i, 3 + 2*i}, CLOS: 2 + i,
			Priority: sim.PerformanceCritical, IsIO: true,
			Workers: []sim.Worker{workload.NewVirtioBounce(port), workload.NewVirtioBounce(port)},
		})
	}
	for i := 0; i < 2; i++ {
		flows := pkt.NewFlowSet(o.Flows, uint16(i), uint64(100+i)+uint64(o.Seed))
		g := tgen.NewGenerator(p.GeneratorRate(o.RatePPS), o.PktSize, flows, int64(42+i)+o.Seed)
		s.Gens[i] = g
		p.AttachGenerator(g, s.Devs[i], 0)
	}
	return s
}

func devName(i int) string       { return [2]string{"nic0", "nic1"}[i] }
func portName(i int) string      { return [2]string{"vport0", "vport1"}[i] }
func containerName(i int) string { return [2]string{"container0", "container1"}[i] }

// OVSPackets returns the switch's cumulative forwarded packet count.
func (s *LeakyScenario) OVSPackets() uint64 { return s.OVS.Stats().Packets }

// daemonSpec is the control daemon a scenario runs under.
type daemonSpec struct {
	params core.Params
	opts   core.Options
	engine policy.Spec // the zero Spec is the IAT engine
}

// iatDaemon is the IAT daemon on Table II at intervalNS, scaled.
func iatDaemon(scale, intervalNS float64) *daemonSpec {
	return &daemonSpec{params: bridge.ScaledParams(scale, intervalNS)}
}

// attachDaemon registers a daemon for d on p. tel, when non-nil, becomes
// the daemon's registry before a non-IAT engine is swapped in, so the
// swap's policy_update event lands in it; an IAT daemon keeps the engine
// NewDaemon installed. Construction failures are programmer errors.
func attachDaemon(p *sim.Platform, d *daemonSpec, tel *telemetry.Registry) *core.Daemon {
	daemon, err := bridge.NewIAT(p, d.params, d.opts)
	if err != nil {
		panic(err)
	}
	if tel != nil {
		daemon.Tel = tel
	}
	if d.engine.Kind != policy.KindIAT {
		if err := daemon.SetPolicy(d.engine.New()); err != nil {
			panic(err)
		}
	}
	return daemon
}

// rigSpec is the scenario and control plane a leakyRig assembles. With
// no daemon and no faults it is the static baseline.
type rigSpec struct {
	leaky  LeakyOpts
	daemon *daemonSpec     // nil = no controller
	faults *faults.Profile // nil = no injector
}

// leakyRig is the Leaky DMA scenario under its control plane, the one
// place that scenario gets its daemon and fault injector.
type leakyRig struct {
	*LeakyScenario
	daemon *core.Daemon     // nil without a controller
	inj    *faults.Injector // nil without a fault profile
}

// newLeakyRig assembles the scenario, then attaches tel (nil = telemetry
// off), then the daemon, then the injector. The injector (seeded seed+1) is armed only
// after assembly and only when its profile is active: construction-time
// mask programming is not part of the fault surface, matching a daemon
// that starts on a healthy machine which later begins to glitch.
func newLeakyRig(r rigSpec, tel *telemetry.Registry) leakyRig {
	s := NewLeakyScenario(r.leaky)
	if tel != nil {
		s.P.AttachTelemetry(tel)
	}
	rig := leakyRig{LeakyScenario: s}
	if r.daemon != nil {
		rig.daemon = attachDaemon(s.P, r.daemon, tel)
	}
	if r.faults != nil {
		rig.inj = faults.NewInjector(*r.faults, r.leaky.Seed+1)
		if r.faults.Active() {
			if tel != nil {
				rig.inj.AttachTelemetry(tel, s.P.NowNS)
			}
			s.P.SetFaults(rig.inj)
		}
	}
	return rig
}

// measure runs warmNS, then measures a measureNS window; it returns the
// window and the packets the switch forwarded within it.
func (r leakyRig) measure(warmNS, measureNS float64) (Window, uint64) {
	r.P.Run(warmNS)
	pkts := r.OVSPackets()
	win := Measure(r.P, measureNS)
	return win, r.OVSPackets() - pkts
}
