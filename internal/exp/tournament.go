package exp

import (
	"fmt"
	"io"
	"sort"

	"iatsim/internal/faults"
	"iatsim/internal/policy"
	"iatsim/internal/telemetry"
)

// TournamentRow is one cell of the policy tournament: one allocation
// policy driving the Leaky DMA scenario under one workload mix and one
// ambient fault profile. Rank is the policy's standing within its
// (workload, faults) cell, 1 = best by I/O-core IPC — the paper's
// compute-interference headline metric.
type TournamentRow struct {
	Workload string
	Faults   string
	Policy   string
	Rank     int

	OVSIPC     float64 // ranking metric: aggregate IPC of the OVS cores
	DDIOHitPS  float64
	DDIOMissPS float64
	MemGBps    float64

	DDIOWays   int
	FinalState string
	Unstable   uint64 // reallocation iterations (mask churn)
	Degraded   bool
	Rejects    uint64 // counter samples the sanity screen discarded
}

// TournamentOpts parameterises the tournament grid.
type TournamentOpts struct {
	Scale      float64
	Policies   []string // policy specs competing (policy.ParseSpec syntax)
	Workloads  []string // fleet mix names (see fleetMixes)
	Profiles   []string // ambient fault profiles ("off" = fault-free)
	WarmNS     float64
	MeasureNS  float64
	IntervalNS float64
}

// DefaultTournamentOpts enters every shipped policy engine against the
// three fleet workload mixes across a fault-severity ladder.
func DefaultTournamentOpts() TournamentOpts {
	return TournamentOpts{
		Scale:      100,
		Policies:   []string{"iat", "static:2", "ioca", "greedy"},
		Workloads:  []string{"pkt1500", "pkt512", "flows64"},
		Profiles:   []string{"off", "light", "default"},
		WarmNS:     1.6e9,
		MeasureNS:  0.8e9,
		IntervalNS: 0.2e9,
	}
}

// mixByName resolves a fleet mix name to its LeakyOpts shape.
func mixByName(name string) (LeakyOpts, error) {
	for _, m := range fleetMixes {
		if m.name == name {
			return m.opts, nil
		}
	}
	return LeakyOpts{}, fmt.Errorf("exp: unknown workload mix %q", name)
}

// RunPolicyTournament sweeps policies × workloads × fault profiles over
// the Leaky DMA scenario and ranks the policies within each (workload,
// faults) cell by I/O-core IPC. Every cell is an independent job with a
// name-derived seed, so rows are byte-identical at any -jobs value; the
// ranking is computed after the sweep from the returned rows alone.
func RunPolicyTournament(w io.Writer, o TournamentOpts) []TournamentRow {
	var points []point[TournamentRow]
	for _, mixName := range o.Workloads {
		mix, err := mixByName(mixName)
		if err != nil {
			panic(err) // cmd/experiments validates selectors before running
		}
		for _, profName := range o.Profiles {
			prof, err := faults.ProfileByName(profName)
			if err != nil {
				panic(err)
			}
			for _, polName := range o.Policies {
				spec, err := policy.ParseSpec(polName)
				if err != nil {
					panic(err)
				}
				points = append(points, newPoint(fmt.Sprintf("tournament/%s/%s/%s", mixName, profName, polName),
					func(seed int64, tel *telemetry.Registry) (TournamentRow, *telemetry.Snapshot) {
						row, snap := runTournamentPoint(mix, prof, spec, seed, o, tel)
						row.Workload, row.Faults, row.Policy = mixName, profName, polName
						return row, snap
					}))
			}
		}
	}
	rows := sweep(points)

	// Rank within each (workload, faults) cell by OVS IPC, descending;
	// ties keep entry order (the o.Policies order), so the ranking is as
	// deterministic as the rows themselves.
	byCell := map[string][]int{}
	var cellOrder []string
	for i, r := range rows {
		k := r.Workload + "\x00" + r.Faults
		if _, ok := byCell[k]; !ok {
			cellOrder = append(cellOrder, k)
		}
		byCell[k] = append(byCell[k], i)
	}
	ranked := make([]TournamentRow, 0, len(rows))
	for _, k := range cellOrder {
		idx := byCell[k]
		sort.SliceStable(idx, func(a, b int) bool {
			return rows[idx[a]].OVSIPC > rows[idx[b]].OVSIPC
		})
		for place, i := range idx {
			r := rows[i]
			r.Rank = place + 1
			ranked = append(ranked, r)
		}
	}

	writeRowsTable(w, fmt.Sprintf("Policy tournament — %d policies × %d workloads × %d fault profiles (ranked by OVS IPC per cell)",
		len(o.Policies), len(o.Workloads), len(o.Profiles)), ranked)
	if w != nil {
		// Leaderboard: mean rank across cells, best first; ties break on
		// the o.Policies entry order via the stable sort.
		type standing struct {
			name  string
			total int
			cells int
		}
		standings := make([]standing, len(o.Policies))
		pos := map[string]int{}
		for i, p := range o.Policies {
			standings[i].name = p
			pos[p] = i
		}
		for _, r := range ranked {
			s := &standings[pos[r.Policy]]
			s.total += r.Rank
			s.cells++
		}
		sort.SliceStable(standings, func(a, b int) bool {
			return standings[a].total*standings[b].cells < standings[b].total*standings[a].cells
		})
		fmt.Fprintf(w, "leaderboard:")
		for i, s := range standings {
			mean := 0.0
			if s.cells > 0 {
				mean = float64(s.total) / float64(s.cells)
			}
			fmt.Fprintf(w, " %d. %s (mean rank %.2f)", i+1, s.name, mean)
		}
		fmt.Fprintln(w)
	}
	return ranked
}

// runTournamentPoint runs one cell: the Leaky DMA scenario with a daemon
// on the chosen policy engine and the ambient fault profile armed after
// assembly, then warm + measure.
func runTournamentPoint(mix LeakyOpts, prof faults.Profile, spec policy.Spec, seed int64, o TournamentOpts, tel *telemetry.Registry) (TournamentRow, *telemetry.Snapshot) {
	lo := mix
	lo.Scale = o.Scale
	lo.Seed = seed
	daemon := iatDaemon(o.Scale, o.IntervalNS)
	daemon.engine = spec
	r := newLeakyRig(rigSpec{leaky: lo, daemon: daemon, faults: &prof}, tel)
	win, _ := r.measure(o.WarmNS, o.MeasureNS)

	h := r.daemon.Health()
	_, unstable := r.daemon.Iterations()
	row := TournamentRow{
		OVSIPC:     win.IPC(r.OVSCores...),
		DDIOHitPS:  win.DDIOHitPS() * o.Scale,
		DDIOMissPS: win.DDIOMissPS() * o.Scale,
		MemGBps:    win.MemGBps() * o.Scale,
		DDIOWays:   r.P.RDT.DDIOMask().Count(),
		FinalState: r.daemon.State().String(),
		Unstable:   unstable,
		Degraded:   h.Degraded,
		Rejects:    h.SampleRejects,
	}
	return row, tel.Snapshot(r.P.NowNS())
}
