package exp

import (
	"fmt"
	"io"

	"iatsim/internal/telemetry"
)

// Fig8Row is one point of Fig. 8: system behaviour for one packet size under
// one management mode.
type Fig8Row struct {
	PktSize    int
	Mode       string // "baseline" or "iat"
	DDIOHitPS  float64
	DDIOMissPS float64
	MemGBps    float64
	OVSIPC     float64
	OVSCPP     float64 // OVS cycles per switched packet
	DDIOWays   int
	FinalState string
}

// Fig8Opts parameterises the run.
type Fig8Opts struct {
	Scale      float64
	Sizes      []int
	WarmNS     float64 // time for IAT to converge before measuring
	MeasureNS  float64
	IntervalNS float64 // IAT polling interval
}

// DefaultFig8Opts returns simulation-friendly defaults: the paper's packet
// size ladder, a 200ms control interval (the thresholds are rates, so the
// algorithm is interval-independent), 2.4s of convergence and 0.8s of
// measurement per point.
func DefaultFig8Opts() Fig8Opts {
	return Fig8Opts{
		Scale:      100,
		Sizes:      []int{64, 128, 256, 512, 1024, 1500},
		WarmNS:     2.4e9,
		MeasureNS:  0.8e9,
		IntervalNS: 0.2e9,
	}
}

// RunFig8 reproduces Fig. 8 ("Solving the Leaky DMA problem"): two testpmd
// containers behind OVS, both NICs at line rate, packet size swept 64B to
// 1.5KB, baseline (static 2-way DDIO) vs IAT. Reported per point: DDIO hit
// and miss rates (Figs. 8a/8b), memory bandwidth (8c), and OVS IPC and
// cycles-per-packet (8d).
func RunFig8(w io.Writer, o Fig8Opts) []Fig8Row {
	var points []point[Fig8Row]
	for _, size := range o.Sizes {
		for _, mode := range []string{"baseline", "iat"} {
			points = append(points, newPoint(fmt.Sprintf("fig8/pkt=%d/%s", size, mode),
				func(seed int64, tel *telemetry.Registry) (Fig8Row, *telemetry.Snapshot) {
					return runFig8Point(size, mode, seed, o, tel)
				}))
		}
	}
	rows := sweep(points)
	writeRowsTable(w, "Fig 8 — Leaky DMA: 2x testpmd via OVS, line rate, baseline vs IAT", rows)
	return rows
}

// runFig8Point runs one cell. tel may be nil (telemetry off): the
// instrumentation degrades to nil handles and no snapshot is returned.
func runFig8Point(size int, mode string, seed int64, o Fig8Opts, tel *telemetry.Registry) (Fig8Row, *telemetry.Snapshot) {
	rs := rigSpec{leaky: LeakyOpts{Scale: o.Scale, PktSize: size, Seed: seed}}
	if mode == "iat" {
		rs.daemon = iatDaemon(o.Scale, o.IntervalNS)
	}
	r := newLeakyRig(rs, tel)
	win, pkts := r.measure(o.WarmNS, o.MeasureNS)

	row := Fig8Row{
		PktSize:    size,
		Mode:       mode,
		DDIOHitPS:  win.DDIOHitPS() * o.Scale,
		DDIOMissPS: win.DDIOMissPS() * o.Scale,
		MemGBps:    win.MemGBps() * o.Scale,
		OVSIPC:     win.IPC(r.OVSCores...),
		DDIOWays:   r.P.RDT.DDIOMask().Count(),
		FinalState: "static",
	}
	if pkts > 0 {
		row.OVSCPP = float64(win.Cycles(r.OVSCores...)) / float64(pkts)
	}
	if r.daemon != nil {
		row.FinalState = r.daemon.State().String()
	}
	return row, tel.Snapshot(r.P.NowNS())
}
