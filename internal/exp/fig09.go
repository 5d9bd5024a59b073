package exp

import (
	"io"

	"iatsim/internal/pkt"
	"iatsim/internal/telemetry"
)

// Fig9Row is one plateau of Fig. 9: OVS behaviour at one live flow count.
type Fig9Row struct {
	Flows     int
	Mode      string
	OVSMissPS float64 // OVS cores' LLC misses per second
	OVSIPC    float64
	OVSCPP    float64
	OVSWays   int // ways currently granted to the switch's CLOS
}

// Fig9Opts parameterises the run.
type Fig9Opts struct {
	Scale      float64
	FlowSteps  []int
	PlateauNS  float64 // time spent at each flow count before measuring
	MeasureNS  float64
	IntervalNS float64
}

// DefaultFig9Opts mirrors the paper's ramp: 64B line rate, flows growing
// from a single flow to 1M.
func DefaultFig9Opts() Fig9Opts {
	return Fig9Opts{
		Scale:      100,
		FlowSteps:  []int{1, 10, 100, 1000, 10000, 100000, 1000000},
		PlateauNS:  1.6e9,
		MeasureNS:  0.6e9,
		IntervalNS: 0.2e9,
	}
}

// RunFig9 reproduces Fig. 9 ("identifying the core's demand"): the Leaky
// DMA setup at 64B line rate while the number of flows in the traffic grows
// over time. The growing OVS flow table thrashes the switch's static two
// ways in the baseline; IAT detects the IPC drop + LLC miss growth and
// grants the software stack more ways.
func RunFig9(w io.Writer, o Fig9Opts) []Fig9Row {
	// One job per mode: each ramp is a single time series (the flow
	// steps within it are deliberately path-dependent).
	var points []point[[]Fig9Row]
	for _, mode := range []string{"baseline", "iat"} {
		points = append(points, newPoint("fig9/ramp/"+mode,
			func(seed int64, _ *telemetry.Registry) ([]Fig9Row, *telemetry.Snapshot) {
				return runFig9Ramp(mode, seed, o), nil
			}))
	}
	var rows []Fig9Row
	for _, ramp := range sweep(points) {
		rows = append(rows, ramp...)
	}
	writeRowsTable(w, "Fig 9 — flow scaling: 64B line rate through OVS, flow table ramp", rows)
	return rows
}

func runFig9Ramp(mode string, seed int64, o Fig9Opts) []Fig9Row {
	maxFlows := o.FlowSteps[len(o.FlowSteps)-1]
	rs := rigSpec{leaky: LeakyOpts{Scale: o.Scale, PktSize: 64, Flows: maxFlows, Seed: seed}}
	if mode == "iat" {
		rs.daemon = iatDaemon(o.Scale, o.IntervalNS)
	}
	r := newLeakyRig(rs, nil)
	var rows []Fig9Row
	for _, flows := range o.FlowSteps {
		r.OVS.SetFlows(2 * flows) // two NICs' flows land in one classifier
		for i, g := range r.Gens {
			g.Flows = pkt.NewFlowSet(flows, uint16(i), uint64(100+i)+uint64(seed))
		}
		win, pkts := r.measure(o.PlateauNS, o.MeasureNS)
		row := Fig9Row{
			Flows:     flows,
			Mode:      mode,
			OVSMissPS: win.LLCMissPS(r.OVSCores...) * o.Scale,
			OVSIPC:    win.IPC(r.OVSCores...),
			OVSWays:   r.P.RDT.CLOSMask(1).Count(),
		}
		if pkts > 0 {
			row.OVSCPP = float64(win.Cycles(r.OVSCores...)) / float64(pkts)
		}
		rows = append(rows, row)
	}
	return rows
}
