package exp

import (
	"fmt"
	"io"

	"iatsim/internal/cache"
	"iatsim/internal/nic"
	"iatsim/internal/pkt"
	"iatsim/internal/sim"
	"iatsim/internal/telemetry"
	"iatsim/internal/tgen"
	"iatsim/internal/workload"
)

// Fig3Row is one bar of Fig. 3: the RFC2544 zero-drop throughput of l3fwd
// for one Rx ring size and packet size.
type Fig3Row struct {
	PktSize  int
	RingSize int
	// MaxMpps is the zero-drop throughput in (unscaled) Mpps.
	MaxMpps float64
	// LineRateMpps is the theoretical port limit for this packet size.
	LineRateMpps float64
	Trials       int
}

// Fig3Opts parameterises the run.
type Fig3Opts struct {
	Scale     float64
	Rings     []int
	Sizes     []int
	Flows     int
	WarmNS    float64
	MeasureNS float64
	// BurstPeriodNS shapes the offered traffic: packets arrive in
	// line-rate bursts whose duty cycle realises the offered average —
	// the producer-consumer skew that makes shallow rings overflow
	// (Sec. III-A).
	BurstPeriodNS float64
	Tol           float64
}

// DefaultFig3Opts mirrors the paper: ring sizes 64..1024, 64B and 1.5KB
// packets, a 1M-flow table.
func DefaultFig3Opts() Fig3Opts {
	return Fig3Opts{
		Scale:         100,
		Rings:         []int{64, 128, 256, 512, 1024},
		Sizes:         []int{64, 1500},
		Flows:         1 << 20,
		WarmNS:        0.4e9,
		MeasureNS:     0.6e9,
		BurstPeriodNS: 5e6,
		Tol:           0.02,
	}
}

// RunFig3 reproduces Fig. 3 (the Leaky DMA motivation): RFC2544 maximum
// zero-drop throughput of single-core DPDK l3fwd as the Rx ring shrinks,
// for small and MTU packets. Shrinking the ring barely hurts large packets
// but collapses small-packet throughput — the reason ResQ-style buffer
// sizing is not a panacea.
func RunFig3(w io.Writer, o Fig3Opts) []Fig3Row {
	var points []point[Fig3Row]
	for _, size := range o.Sizes {
		for _, ring := range o.Rings {
			points = append(points, newPoint(fmt.Sprintf("fig3/pkt=%d/ring=%d", size, ring),
				func(seed int64, _ *telemetry.Registry) (Fig3Row, *telemetry.Snapshot) {
					return runFig3Point(size, ring, seed, o), nil
				}))
		}
	}
	rows := sweep(points)
	writeRowsTable(w, "Fig 3 — RFC2544 zero-drop throughput of l3fwd vs Rx ring size", rows)
	return rows
}

func runFig3Point(size, ring int, seed int64, o Fig3Opts) Fig3Row {
	line := tgen.LineRatePPS(40, size)
	trial := func(ratePPS float64) (uint64, float64) {
		p := sim.NewPlatform(sim.XeonGold6140(o.Scale))
		dev := p.AddDevice(nic.Config{Name: "nic0", RxEntries: ring, VFs: 1})
		vf := dev.VF(0)
		vf.ConsumerCore = 0
		fwd := workload.NewL3Fwd(vf, o.Flows, p.Alloc)
		mustMask(p, 1, cache.ContiguousMask(0, 2))
		mustTenant(p, &sim.Tenant{
			Name: "l3fwd", Cores: []int{0}, CLOS: 1,
			Priority: sim.PerformanceCritical, IsIO: true,
			Workers: []sim.Worker{fwd},
		})
		flows := pkt.NewFlowSet(o.Flows, 0, 7+uint64(seed))
		g := tgen.NewGenerator(p.GeneratorRate(ratePPS), size, flows, 42+seed)
		duty := ratePPS / line
		if duty < 1 {
			g.Burst = &tgen.Burst{PeriodNS: o.BurstPeriodNS, Duty: duty}
		}
		p.AttachGenerator(g, dev, 0)
		p.Run(o.WarmNS)
		dropsA := vf.Stats.RxDrops + fwd.TxDrops()
		pktsA := vf.Stats.TxPackets
		p.Run(o.MeasureNS)
		drops := vf.Stats.RxDrops + fwd.TxDrops() - dropsA
		pps := float64(vf.Stats.TxPackets-pktsA) / (o.MeasureNS / 1e9) * o.Scale
		return drops, pps
	}
	res := tgen.RFC2544Search(line, o.Tol, trial)
	return Fig3Row{
		PktSize:      size,
		RingSize:     ring,
		MaxMpps:      res.MaxRatePPS / 1e6,
		LineRateMpps: line / 1e6,
		Trials:       res.Trials,
	}
}
