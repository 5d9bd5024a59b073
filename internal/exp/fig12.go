package exp

import (
	"io"
	"strings"

	"iatsim/internal/telemetry"
	"iatsim/internal/ycsb"
)

// Fig12Row is one bar group of Fig. 12: a non-networking application's
// execution time normalised to its solo run, co-running with one networking
// application, under the baseline's placement range and under IAT.
type Fig12Row struct {
	Net string
	App string
	// SoloNS is the solo execution time.
	SoloNS float64
	// BaseMin/BaseMax bound the baseline over the placement corners
	// (the paper's "randomly shuffled" range).
	BaseMin float64
	BaseMax float64
	// IAT is the normalised execution time under IAT (started from the
	// worst-case placement).
	IAT float64
}

// Fig12Opts parameterises the application study, Figs. 12-14. Fig. 14
// ignores Nets, Corners, TargetInstr and TargetOps: its cells have a fixed
// window and corners.
type Fig12Opts struct {
	Scale float64  // Figs. 12-14
	Nets  []string // Figs. 12 and 13
	// Apps are Fig. 12's non-networking apps; Figs. 13 and 14 read only
	// Apps[0] == "quick", which narrows their YCSB mixes to A and C.
	Apps []string
	// Corners are the baseline placements whose min/max bound the
	// baseline (Figs. 12 and 13).
	Corners     []Placement
	IntervalNS  float64 // Figs. 12-14
	TargetInstr uint64  // Fig. 12's SPEC apps; 0 selects the calibrated default
	TargetOps   uint64  // RocksDB, Figs. 12 and 13; 0 selects the calibrated default
}

// DefaultFig12Opts selects a representative subset of the paper's
// memory-sensitive SPEC2006 benchmarks plus RocksDB; pass AllApps for the
// complete sweep.
func DefaultFig12Opts() Fig12Opts {
	return Fig12Opts{
		Scale:      100,
		Nets:       []string{"redis", "fastclick"},
		Apps:       []string{"mcf", "omnetpp", "xalancbmk", "gcc", "rocksdb:C"},
		Corners:    []Placement{PlaceNone, PlacePC},
		IntervalNS: 0.25e9,
	}
}

// AllFig12Apps returns every application of the paper's Fig. 12.
func AllFig12Apps() []string {
	apps := []string{}
	for _, w := range []string{"A", "B", "C", "D", "E", "F"} {
		apps = append(apps, "rocksdb:"+w)
	}
	return append([]string{
		"mcf", "omnetpp", "xalancbmk", "soplex", "sphinx3", "libquantum", "milc", "lbm", "gcc",
	}, apps...)
}

// appMixCell is one bar group of Figs. 12-14: a solo run, the baseline at
// each placement corner, then IAT started from the worst corner.
type appMixCell struct {
	name    string // "fig12/redis/mcf": seeds the cell's runs and prefixes their job names
	base    AppMixOpts
	netOnly bool // the solo run is the networking side alone (Fig. 14), not the app alone
	corners []Placement
	iatFrom Placement
}

// appMixRun is one RunAppMix of a cell under its job name.
type appMixRun struct {
	name string
	opts AppMixOpts
}

// runs returns the cell's runs in order (solo, one per corner, then IAT),
// each seeded from the cell's name under the current base seed.
func (c appMixCell) runs() []appMixRun {
	base := c.base
	base.Seed = jobSeed(c.name)
	solo, iat := base, base
	solo.Solo, solo.NetOnly = !c.netOnly, c.netOnly
	iat.Placement, iat.IAT = c.iatFrom, true
	runs := []appMixRun{{c.name + "/solo", solo}}
	for _, pl := range c.corners {
		base.Placement = pl
		runs = append(runs, appMixRun{c.name + "/" + string(pl), base})
	}
	return append(runs, appMixRun{c.name + "/iat", iat})
}

// runAppMixCells runs every run of every cell as its own harness job and
// reduces each cell's (solo, corners, iat) results to a row, in cell
// order. A cell with a failed run has no row; the manifest and stderr
// name the failed run.
func runAppMixCells[R any](cells []appMixCell, reduce func(c appMixCell, solo AppMixResult, corners []AppMixResult, iat AppMixResult) R) []R {
	var points []point[AppMixResult]
	for _, c := range cells {
		for _, r := range c.runs() {
			points = append(points, point[AppMixResult]{name: r.name, seed: r.opts.Seed,
				run: func(int64, *telemetry.Registry) (AppMixResult, *telemetry.Snapshot) {
					return RunAppMix(r.opts), nil // r.opts carries the cell's seed
				}})
		}
	}
	results := sweepAt(points)
	var rows []R
	for _, c := range cells {
		n := len(c.corners) + 2
		var done []AppMixResult
		for _, r := range results[:n] {
			if r != nil {
				done = append(done, *r)
			}
		}
		if results = results[n:]; len(done) == n {
			rows = append(rows, reduce(c, done[0], done[1:n-1], done[n-1]))
		}
	}
	return rows
}

// spread returns the least and the greatest metric over the corner runs,
// (1e18, 0) with none.
func spread(corners []AppMixResult, metric func(AppMixResult) float64) (lo, hi float64) {
	lo = 1e18
	for _, r := range corners {
		v := metric(r)
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
}

// ycsbWorkloads are the YCSB mixes of Figs. 13 and 14.
func ycsbWorkloads(o Fig12Opts) []string {
	if len(o.Apps) > 0 && o.Apps[0] == "quick" {
		return []string{"A", "C"}
	}
	return []string{"A", "B", "C", "D", "E", "F"}
}

// fig12Cells is one cell per networking and non-networking app.
func fig12Cells(o Fig12Opts) (cells []appMixCell) {
	for _, net := range o.Nets {
		for _, app := range o.Apps {
			base := AppMixOpts{Scale: o.Scale, Net: net, App: app, IntervalNS: o.IntervalNS,
				TargetInstr: o.TargetInstr, TargetOps: o.TargetOps}
			cells = append(cells, appMixCell{name: "fig12/" + net + "/" + app, base: base,
				corners: o.Corners, iatFrom: PlacePC})
		}
	}
	return cells
}

// fig12Row normalises the app's execution time to its solo run.
func fig12Row(c appMixCell, solo AppMixResult, corners []AppMixResult, iat AppMixResult) Fig12Row {
	exec := func(r AppMixResult) float64 { return normalized(r.ExecNS, solo.ExecNS) }
	row := Fig12Row{Net: c.base.Net, App: c.base.App, SoloNS: solo.ExecNS, IAT: exec(iat)}
	row.BaseMin, row.BaseMax = spread(corners, exec)
	return row
}

// RunFig12 reproduces Fig. 12: normalised execution time of non-networking
// applications co-running with Redis (aggregation) or a FastClick chain
// (slicing), baseline placement range vs IAT.
func RunFig12(w io.Writer, o Fig12Opts) []Fig12Row {
	rows := runAppMixCells(fig12Cells(o), fig12Row)
	writeRowsTable(w, "Fig 12 — normalised execution time (co-run / solo)", rows)
	return rows
}

func normalized(v, solo float64) float64 {
	if solo <= 0 {
		return 0
	}
	if v <= 0 {
		return 0 // did not finish: reported as 0 to make it obvious
	}
	return v / solo
}

// Fig13Row is one YCSB workload of Fig. 13: RocksDB's normalised weighted
// average operation latency.
type Fig13Row struct {
	Net      string
	Workload string
	BaseMin  float64
	BaseMax  float64
	IAT      float64
}

// fig13Cells is one RocksDB cell per networking app and YCSB workload.
func fig13Cells(o Fig12Opts) (cells []appMixCell) {
	for _, net := range o.Nets {
		for _, wl := range ycsbWorkloads(o) {
			base := AppMixOpts{Scale: o.Scale, Net: net, App: "rocksdb:" + wl, IntervalNS: o.IntervalNS,
				TargetOps: o.TargetOps}
			cells = append(cells, appMixCell{name: "fig13/" + net + "/ycsb-" + wl, base: base,
				corners: o.Corners, iatFrom: PlacePC})
		}
	}
	return cells
}

// fig13Row normalises RocksDB's per-op latencies to its solo run.
func fig13Row(c appMixCell, solo AppMixResult, corners []AppMixResult, iat AppMixResult) Fig13Row {
	lat := func(r AppMixResult) float64 { return WeightedLatency(r.RocksHists, solo.RocksHists) }
	row := Fig13Row{Net: c.base.Net, Workload: strings.TrimPrefix(c.base.App, "rocksdb:"), IAT: lat(iat)}
	row.BaseMin, row.BaseMax = spread(corners, lat)
	return row
}

// RunFig13 reproduces Fig. 13: the normalised weighted average latency of
// RocksDB under YCSB A-F, co-running with the two networking applications.
func RunFig13(w io.Writer, o Fig12Opts) []Fig13Row {
	rows := runAppMixCells(fig13Cells(o), fig13Row)
	writeRowsTable(w, "Fig 13 — RocksDB normalised weighted latency (co-run / solo)", rows)
	return rows
}

// WeightedLatency computes the op-count-weighted mean latency across op
// types, normalised per-op against the solo histograms (the paper's
// "normalized weighted latency", Fig. 13).
func WeightedLatency(co, solo map[ycsb.Op]*ycsb.Histogram) float64 {
	var total uint64
	var acc float64
	for op, h := range co {
		sh := solo[op]
		if sh == nil || sh.Mean() == 0 || h.Count() == 0 {
			continue
		}
		acc += float64(h.Count()) * (h.Mean() / sh.Mean())
		total += h.Count()
	}
	if total == 0 {
		return 0
	}
	return acc / float64(total)
}

// Fig14Row is one YCSB workload of Fig. 14: Redis throughput and latency
// degradation under co-location.
type Fig14Row struct {
	Workload string
	// Normalised to the networking-only solo run (1.0 = no degradation).
	BaseTputMin, BaseTputMax float64
	IATTput                  float64
	BaseAvgMax               float64 // worst normalised mean latency
	IATAvg                   float64
	BaseP99Max               float64
	IATP99                   float64
}

// fig14Cells is one Redis cell per YCSB workload beside the
// non-networking trio, over a fixed window.
func fig14Cells(o Fig12Opts) (cells []appMixCell) {
	for _, wl := range ycsbWorkloads(o) {
		base := AppMixOpts{Scale: o.Scale, Net: "redis", App: "mcf", RedisWorkload: wl, IntervalNS: o.IntervalNS,
			TargetInstr: 1 << 62, // mcf runs for the whole window
			MaxNS:       3e9,     // fixed window: Redis metrics need equal spans
		}
		// The corners that matter for the networking side: no overlap vs
		// the cache-hungry X-Mem on the DDIO ways, its worst corner.
		cells = append(cells, appMixCell{name: "fig14/redis/ycsb-" + wl, base: base, netOnly: true,
			corners: []Placement{PlaceNone, PlaceBE10, PlacePC}, iatFrom: PlaceBE10})
	}
	return cells
}

// fig14Row normalises Redis's throughput and latencies to the
// networking-only solo run: min and max of throughput, max of the
// latencies.
func fig14Row(c appMixCell, solo AppMixResult, corners []AppMixResult, iat AppMixResult) Fig14Row {
	tput := func(r AppMixResult) float64 { return normalized(r.RedisOpsPS, solo.RedisOpsPS) }
	avg := func(r AppMixResult) float64 { return normalized(r.RedisMeanNS, solo.RedisMeanNS) }
	p99 := func(r AppMixResult) float64 { return normalized(r.RedisP99NS, solo.RedisP99NS) }
	row := Fig14Row{Workload: c.base.RedisWorkload, IATTput: tput(iat), IATAvg: avg(iat), IATP99: p99(iat)}
	row.BaseTputMin, row.BaseTputMax = spread(corners, tput)
	_, row.BaseAvgMax = spread(corners, avg)
	_, row.BaseP99Max = spread(corners, p99)
	return row
}

// RunFig14 reproduces Fig. 14: Redis YCSB results when co-running with the
// non-networking trio (PC app = the cache-hungry mcf), baseline placement
// range vs IAT.
func RunFig14(w io.Writer, o Fig12Opts) []Fig14Row {
	rows := runAppMixCells(fig14Cells(o), fig14Row)
	writeRowsTable(w, "Fig 14 — Redis under co-location (normalised to networking-solo)", rows)
	return rows
}
