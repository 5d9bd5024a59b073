package exp

import (
	"fmt"
	"io"

	"iatsim/internal/cache"
	"iatsim/internal/core"
	"iatsim/internal/nic"
	"iatsim/internal/pkt"
	"iatsim/internal/policy"
	"iatsim/internal/sim"
	"iatsim/internal/telemetry"
	"iatsim/internal/tgen"
	"iatsim/internal/workload"
)

// latentScenario is the slicing-model setup of the paper's Latent Contender
// experiment (Sec. VI-B, Figs. 10 and 11): two PC testpmd containers on
// dedicated VFs sharing three ways, three X-Mem containers (two BE, one PC)
// with two dedicated ways each, DDIO at the default two ways.
type latentScenario struct {
	P   *sim.Platform
	C4  *workload.XMem
	BEs [2]*workload.XMem
}

func newLatentScenario(scale float64, pktSize int, seed int64) *latentScenario {
	p := sim.NewPlatform(sim.XeonGold6140(scale))
	s := &latentScenario{P: p}

	// Two forwarding containers, one per NIC VF, sharing CLOS 1.
	mustMask(p, 1, cache.ContiguousMask(0, 3))
	for i := 0; i < 2; i++ {
		dev := p.AddDevice(nic.Config{Name: devName(i), VFs: 1})
		vf := dev.VF(0)
		vf.ConsumerCore = i
		fwd := workload.NewTestPMD(vf)
		mustTenant(p, &sim.Tenant{
			Name: containerName(i), Cores: []int{i}, CLOS: 1,
			Priority: sim.PerformanceCritical, IsIO: true,
			Workers: []sim.Worker{fwd},
		})
		flows := pkt.NewFlowSet(1, uint16(i), uint64(50+i)+uint64(seed))
		g := tgen.NewGenerator(p.GeneratorRate(tgen.LineRatePPS(40, pktSize)), pktSize, flows, int64(42+i)+seed)
		p.AttachGenerator(g, dev, 0)
	}

	// X-Mem containers 2 and 3 (BE) and 4 (PC), 2MB working sets.
	for i := 0; i < 2; i++ {
		x := workload.NewXMem(p.Alloc, 4<<20, 2<<20, int64(11+i)+seed)
		s.BEs[i] = x
		clos := 2 + i
		mustMask(p, clos, cache.ContiguousMask(3+2*i, 2))
		mustTenant(p, &sim.Tenant{
			Name: fmt.Sprintf("container%d", 2+i), Cores: []int{2 + i}, CLOS: clos,
			Priority: sim.BestEffort,
			Workers:  []sim.Worker{x},
		})
	}
	s.C4 = workload.NewXMem(p.Alloc, 16<<20, 2<<20, 17+seed)
	mustMask(p, 4, cache.ContiguousMask(7, 2))
	mustTenant(p, &sim.Tenant{
		Name: "container4", Cores: []int{4}, CLOS: 4,
		Priority: sim.PerformanceCritical,
		Workers:  []sim.Worker{s.C4},
	})
	return s
}

// Fig10Row is one (packet size, mode) cell: container-4 X-Mem performance
// in the two phases (after the working-set growth; after the manual DDIO
// way expansion).
type Fig10Row struct {
	PktSize int
	Mode    string
	// Phase 2 (Figs. 10a/10b): after the 2MB -> 10MB working set growth.
	P2Mops  float64
	P2LatNS float64
	// Phase 3 (Figs. 10c/10d): after DDIO is manually grown to 4 ways.
	P3Mops  float64
	P3LatNS float64
}

// Fig10Opts parameterises the run.
type Fig10Opts struct {
	Scale      float64
	Sizes      []int
	Modes      []string
	Phase1NS   float64 // 2MB everywhere
	Phase2NS   float64 // container-4 at 10MB
	Phase3NS   float64 // DDIO manually at 4 ways
	IntervalNS float64
}

// DefaultFig10Opts compresses the paper's 5s/10s/10s timeline (the control
// interval shrinks with it, so the same number of iterations fits each
// phase).
func DefaultFig10Opts() Fig10Opts {
	return Fig10Opts{
		Scale:      100,
		Sizes:      []int{64, 512, 1500},
		Modes:      []string{"baseline", "core-only", "io-iso", "iat"},
		Phase1NS:   2e9,
		Phase2NS:   4e9,
		Phase3NS:   4e9,
		IntervalNS: 0.25e9,
	}
}

// RunFig10 reproduces Fig. 10 ("Solving the Latent Contender problem"):
// container 4's X-Mem throughput and latency under baseline, Core-only,
// I/O-iso and IAT (with DDIO way adjustment disabled, per the paper's
// footnote 3), across packet sizes, in the two phases of the experiment.
func RunFig10(w io.Writer, o Fig10Opts) []Fig10Row {
	var points []point[Fig10Row]
	for _, size := range o.Sizes {
		for _, mode := range o.Modes {
			points = append(points, newPoint(fmt.Sprintf("fig10/pkt=%d/%s", size, mode),
				func(seed int64, tel *telemetry.Registry) (Fig10Row, *telemetry.Snapshot) {
					r, _, snap := runFig10Point(size, mode, seed, o, nil, tel)
					return r, snap
				}))
		}
	}
	rows := sweep(points)
	writeRowsTable(w, "Fig 10 — Latent Contender: container-4 X-Mem, phases 2 (WS=10MB) and 3 (DDIO=4 ways)", rows)
	return rows
}

// Fig11Sample is one time-series point of Fig. 11.
type Fig11Sample struct {
	TimeNS   float64
	C4MissPS float64
	C4Ways   cache.WayMask
	DDIOMask cache.WayMask
	BE2Ways  cache.WayMask
	BE3Ways  cache.WayMask
	State    string
}

// runFig10Point runs one cell; when series is non-nil it is filled with
// 100ms samples (Fig. 11). tel may be nil (telemetry off).
func runFig10Point(size int, mode string, seed int64, o Fig10Opts, series *[]Fig11Sample, tel *telemetry.Registry) (Fig10Row, []Fig11Sample, *telemetry.Snapshot) {
	s := newLatentScenario(o.Scale, size, seed)
	p := s.P
	if tel != nil {
		p.AttachTelemetry(tel)
	}
	var daemon *core.Daemon
	switch mode {
	case "baseline":
	case "core-only", "io-iso":
		// The paper's dynamic comparison points run as policies under
		// the same daemon. Its Tel stays unset: their telemetry holds the
		// platform's metrics only.
		d := iatDaemon(o.Scale, o.IntervalNS)
		var err error
		if d.engine, err = policy.ParseSpec(mode); err != nil {
			panic(err)
		}
		attachDaemon(p, d, nil)
	case "iat":
		// Footnote 3: DDIO way adjustment disabled to isolate the
		// shuffling mechanism.
		d := iatDaemon(o.Scale, o.IntervalNS)
		d.opts.DisableDDIOAdjust = true
		daemon = attachDaemon(p, d, tel)
	default:
		panic("unknown mode " + mode)
	}

	run := func(durNS float64) {
		if series == nil {
			p.Run(durNS)
			return
		}
		const step = 100e6
		for t := 0.0; t < durNS; t += step {
			missA := p.Hier.LLC().CoreMisses(4)
			p.Run(step)
			*series = append(*series, Fig11Sample{
				TimeNS:   p.NowNS(),
				C4MissPS: float64(p.Hier.LLC().CoreMisses(4)-missA) / (step / 1e9),
				C4Ways:   p.RDT.CLOSMask(4),
				DDIOMask: p.RDT.DDIOMask(),
				BE2Ways:  p.RDT.CLOSMask(2),
				BE3Ways:  p.RDT.CLOSMask(3),
				State:    stateOf(daemon),
			})
		}
	}

	row := Fig10Row{PktSize: size, Mode: mode}
	// Phase 1: everything at 2MB.
	run(o.Phase1NS)
	// Phase 2: container 4 grows to 10MB (L2 + 4 LLC ways, as the paper
	// puts it).
	s.C4.SetWorkingSet(10 << 20)
	run(o.Phase2NS / 2) // stabilisation
	row.P2Mops, row.P2LatNS = xmemWindowSeries(p, s, o.Phase2NS/2, run)
	// Phase 3: DDIO manually expanded to 4 ways.
	ways := p.Cfg.Hier.LLC.Ways
	if err := p.RDT.SetDDIOMask(cache.ContiguousMask(ways-4, 4)); err != nil {
		panic(err)
	}
	run(o.Phase3NS / 2)
	row.P3Mops, row.P3LatNS = xmemWindowSeries(p, s, o.Phase3NS/2, run)
	snap := tel.Snapshot(p.NowNS())
	if series != nil {
		return row, *series, snap
	}
	return row, nil, snap
}

// xmemWindowSeries measures container 4 over durNS using the provided run
// function (so Fig. 11 sampling keeps working during measurement).
func xmemWindowSeries(p *sim.Platform, s *latentScenario, durNS float64, run func(float64)) (float64, float64) {
	a := s.C4.Stats()
	cycA := p.CoreCycles(4)
	run(durNS)
	d := s.C4.Stats().Sub(a)
	cyc := p.CoreCycles(4) - cycA
	var mops float64
	if cyc > 0 {
		mops = float64(d.Ops) * p.Cfg.FreqGHz * 1e9 / float64(cyc) / 1e6
	}
	return mops, d.AvgLatCycles() / p.Cfg.FreqGHz
}

func stateOf(d *core.Daemon) string {
	if d == nil {
		return ""
	}
	return d.State().String()
}

// RunFig11 reproduces Fig. 11: the 1.5KB-packet IAT run of Fig. 10 as a
// time series of LLC way allocation and container-4 LLC misses.
func RunFig11(w io.Writer, o Fig10Opts) []Fig11Sample {
	pt := newPoint("fig11/pkt=1500/iat", func(seed int64, tel *telemetry.Registry) ([]Fig11Sample, *telemetry.Snapshot) {
		var s []Fig11Sample
		_, _, snap := runFig10Point(1500, "iat", seed, o, &s, tel)
		return s, snap
	})
	var series []Fig11Sample
	for _, s := range sweep([]point[[]Fig11Sample]{pt}) {
		series = append(series, s...)
	}
	writeRowsTable(w, "Fig 11 — IAT dynamics over time (1.5KB packets)", series)
	return series
}
