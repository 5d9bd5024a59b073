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

// Fig4Row is one point of Fig. 4: X-Mem performance at one working-set size
// with its two LLC ways either dedicated or overlapping DDIO's.
type Fig4Row struct {
	WorkingSetMB int
	Overlap      bool
	// MopsPerSec is X-Mem random-read throughput (million accesses/s of
	// core time).
	MopsPerSec float64
	// AvgLatencyNS is the mean access latency in core-clock nanoseconds.
	AvgLatencyNS float64
}

// Fig4Opts parameterises the run.
type Fig4Opts struct {
	Scale       float64
	WorkingSets []int // MB
	PktSize     int
	WarmNS      float64
	MeasureNS   float64
}

// DefaultFig4Opts sweeps 4..16MB as the paper does, with MTU-size traffic
// keeping DDIO's two ways under pressure.
func DefaultFig4Opts() Fig4Opts {
	return Fig4Opts{
		Scale:       100,
		WorkingSets: []int{4, 8, 12, 16},
		PktSize:     1500,
		WarmNS:      0.6e9,
		MeasureNS:   0.6e9,
	}
}

// RunFig4 reproduces Fig. 4 (the Latent Contender motivation): an l3fwd
// container saturates one NIC while an X-Mem container with two "dedicated"
// LLC ways runs random reads. When those two ways happen to be the DDIO
// ways, the supposedly isolated X-Mem loses throughput and latency even
// though no core shares its ways.
func RunFig4(w io.Writer, o Fig4Opts) []Fig4Row {
	var points []point[Fig4Row]
	for _, ws := range o.WorkingSets {
		for _, overlap := range []bool{false, true} {
			kind := "dedicated"
			if overlap {
				kind = "ddio-ovlp"
			}
			points = append(points, newPoint(fmt.Sprintf("fig4/ws=%dMB/%s", ws, kind),
				func(seed int64, _ *telemetry.Registry) (Fig4Row, *telemetry.Snapshot) {
					return runFig4Point(ws, overlap, seed, o), nil
				}))
		}
	}
	rows := sweep(points)
	writeRowsTable(w, "Fig 4 — Latent Contender: X-Mem with dedicated vs DDIO-overlapped ways", rows)
	return rows
}

func runFig4Point(wsMB int, overlap bool, seed int64, o Fig4Opts) Fig4Row {
	p := sim.NewPlatform(sim.XeonGold6140(o.Scale))
	ways := p.Cfg.Hier.LLC.Ways

	dev := p.AddDevice(nic.Config{Name: "nic0", VFs: 1})
	vf := dev.VF(0)
	vf.ConsumerCore = 0
	fwd := workload.NewL3Fwd(vf, 1<<20, p.Alloc)
	mustMask(p, 1, cache.ContiguousMask(0, 2)) // l3fwd: ways 0-1
	mustTenant(p, &sim.Tenant{
		Name: "l3fwd", Cores: []int{0}, CLOS: 1,
		Priority: sim.PerformanceCritical, IsIO: true,
		Workers: []sim.Worker{fwd},
	})

	xmem := workload.NewXMem(p.Alloc, 16<<20, uint64(wsMB)<<20, 9+seed)
	xmask := cache.ContiguousMask(2, 2) // dedicated ways 2-3
	if overlap {
		xmask = cache.ContiguousMask(ways-2, 2) // the DDIO ways
	}
	mustMask(p, 2, xmask)
	mustTenant(p, &sim.Tenant{
		Name: "xmem", Cores: []int{1}, CLOS: 2,
		Priority: sim.PerformanceCritical,
		Workers:  []sim.Worker{xmem},
	})

	flows := pkt.NewFlowSet(1<<20, 0, 7+uint64(seed))
	g := tgen.NewGenerator(p.GeneratorRate(tgen.LineRatePPS(40, o.PktSize)), o.PktSize, flows, 42+seed)
	p.AttachGenerator(g, dev, 0)

	p.Run(o.WarmNS)
	statsA := xmem.Stats()
	win := Measure(p, o.MeasureNS)
	d := xmem.Stats().Sub(statsA)

	row := Fig4Row{WorkingSetMB: wsMB, Overlap: overlap}
	// Throughput per second of core time: ops / (cycles / freq). The
	// scaled engine gives the core 1/Scale cycles per simulated second,
	// so normalise by actual cycles, not by simulated time.
	cyc := win.Cycles(1)
	if cyc > 0 {
		// ops per core-second = ops * freqHz / cycles; report millions.
		row.MopsPerSec = float64(d.Ops) * p.Cfg.FreqGHz * 1e9 / float64(cyc) / 1e6
	}
	row.AvgLatencyNS = d.AvgLatCycles() / p.Cfg.FreqGHz
	return row
}
