package exp

import (
	"fmt"
	"io"

	"iatsim/internal/faults"
	"iatsim/internal/telemetry"
)

// ChaosRow is one point of the stability-under-faults experiment: the Leaky
// DMA scenario under one fault-rate multiplier and one management mode.
type ChaosRow struct {
	FaultScale float64 // multiplier applied to the profile's rates
	Mode       string  // "baseline" (static 2-way DDIO) or "iat"

	// Injected fault counts, by layer.
	MSRFaults   uint64 // write rejections + sticky bits
	CtrGlitches uint64 // zeroed/saturated/wrapped/stale counter reads
	NICFaults   uint64 // dropped Rx descriptors + stalled Tx drains
	PollSkips   uint64 // suppressed controller polling epochs

	// Daemon self-healing activity (zero in baseline mode).
	SampleRejects uint64
	WriteRetries  uint64
	WriteFailures uint64
	Degradations  uint64
	Rearms        uint64

	// InvalidMaskWrites counts mask writes the daemon requested that no
	// real CAT/DDIO register accepts (rdt rejects them for their shape:
	// empty, not contiguous, or past the last way). The acceptance
	// criterion for the hardened daemon is zero at every fault rate.
	InvalidMaskWrites uint64

	Degraded   bool   // holding the safe static fallback at measure end
	FinalState string // FSM state ("static" for baseline)
	DDIOWays   int

	DDIOHitPS  float64
	DDIOMissPS float64
	MemGBps    float64
	OVSIPC     float64
}

// ChaosOpts parameterises the run.
type ChaosOpts struct {
	Scale      float64
	Profile    string    // fault profile (named or kind=rate spec)
	Scales     []float64 // fault-rate multipliers swept per mode
	PktSize    int
	WarmNS     float64
	MeasureNS  float64
	IntervalNS float64 // IAT polling interval
}

// DefaultChaosOpts returns simulation-friendly defaults: the default
// profile at escalating multipliers (0 = fault-free control), 1.5KB
// packets, and enough warm time for degrade/re-arm cycles to play out.
func DefaultChaosOpts() ChaosOpts {
	return ChaosOpts{
		Scale:      100,
		Profile:    "default",
		Scales:     []float64{0, 1, 4},
		PktSize:    1500,
		WarmNS:     1.6e9,
		MeasureNS:  0.8e9,
		IntervalNS: 0.2e9,
	}
}

// RunChaos runs the stability-under-faults experiment: the Fig. 8 Leaky
// DMA scenario with a deterministic fault injector armed across every
// layer (MSR accesses, NIC datapath, polling cadence), swept over
// escalating fault-rate multipliers, baseline vs the hardened IAT daemon.
// Schedules derive from the per-job seed, so rows are byte-identical at
// any -jobs value.
func RunChaos(w io.Writer, o ChaosOpts) []ChaosRow {
	base, err := faults.ProfileByName(o.Profile)
	if err != nil {
		panic(err) // cmd/experiments validates the profile before running
	}
	var points []point[ChaosRow]
	for _, scale := range o.Scales {
		for _, mode := range []string{"baseline", "iat"} {
			points = append(points, newPoint(fmt.Sprintf("chaos/%s/x%g/%s", base.Name, scale, mode),
				func(seed int64, tel *telemetry.Registry) (ChaosRow, *telemetry.Snapshot) {
					return runChaosPoint(base.Scaled(scale), scale, mode, seed, o, tel)
				}))
		}
	}
	rows := sweep(points)
	writeRowsTable(w, fmt.Sprintf("Chaos — stability under faults: profile %q, baseline vs hardened IAT", o.Profile), rows)
	return rows
}

// runChaosPoint runs one cell: the rig arms the injector after the
// scenario is assembled.
func runChaosPoint(prof faults.Profile, scale float64, mode string, seed int64, o ChaosOpts, tel *telemetry.Registry) (ChaosRow, *telemetry.Snapshot) {
	rs := rigSpec{leaky: LeakyOpts{Scale: o.Scale, PktSize: o.PktSize, Seed: seed}, faults: &prof}
	if mode == "iat" {
		rs.daemon = iatDaemon(o.Scale, o.IntervalNS)
	}
	r := newLeakyRig(rs, tel)
	win, _ := r.measure(o.WarmNS, o.MeasureNS)

	inj := r.inj
	row := ChaosRow{
		FaultScale:  scale,
		Mode:        mode,
		MSRFaults:   inj.Count(faults.MSRWriteReject) + inj.Count(faults.MSRSticky),
		CtrGlitches: inj.CounterGlitches(),
		NICFaults:   inj.Count(faults.NICDrop) + inj.Count(faults.NICStall),
		PollSkips:   inj.Count(faults.PollSkip),
		FinalState:  "static",
		DDIOWays:    r.P.RDT.DDIOMask().Count(),
		DDIOHitPS:   win.DDIOHitPS() * o.Scale,
		DDIOMissPS:  win.DDIOMissPS() * o.Scale,
		MemGBps:     win.MemGBps() * o.Scale,
		OVSIPC:      win.IPC(r.OVSCores...),
	}
	if d := r.daemon; d != nil {
		h := d.Health()
		row.SampleRejects = h.SampleRejects
		row.WriteRetries = h.WriteRetries
		row.WriteFailures = h.WriteFailures
		row.Degradations = h.Degradations
		row.Rearms = h.Rearms
		row.Degraded = h.Degraded
		row.InvalidMaskWrites = r.P.RDT.BadMaskWrites()
		row.FinalState = d.State().String()
	}
	return row, tel.Snapshot(r.P.NowNS())
}
