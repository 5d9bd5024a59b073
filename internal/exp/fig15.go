package exp

import (
	"fmt"
	"io"
	"time"

	"iatsim/internal/cache"
	"iatsim/internal/core"
	"iatsim/internal/sim"
	"iatsim/internal/telemetry"
	"iatsim/internal/workload"
)

// Fig15Row is one bar of Fig. 15: the IAT daemon's per-iteration execution
// time for one tenant-count/cores-per-tenant configuration.
type Fig15Row struct {
	Tenants        int
	CoresPerTenant int
	// StableUS is the mean wall-clock cost of a stable iteration (Poll
	// Prof Data only), in microseconds.
	StableUS float64
	// UnstableUS is the mean cost of an unstable iteration (Poll +
	// State Transition + LLC Re-alloc).
	UnstableUS float64
	Iterations int
}

// Fig15Opts parameterises the overhead measurement.
type Fig15Opts struct {
	Scale        float64
	TenantCounts []int
	CoresPer     []int
	Iterations   int
	IntervalNS   float64
}

// DefaultFig15Opts mirrors the paper: 1..17 single-core tenants and 1..8
// two-core tenants on the 18-core part.
func DefaultFig15Opts() Fig15Opts {
	return Fig15Opts{
		Scale:        100,
		TenantCounts: []int{1, 2, 4, 8, 17},
		CoresPer:     []int{1, 2},
		Iterations:   60,
		IntervalNS:   20e6,
	}
}

// RunFig15 reproduces Fig. 15 (IAT overhead): the daemon's real wall-clock
// execution time per iteration — this is the one experiment measured in
// host time, since the control-plane code path (counter reads, FSM,
// register writes) is the artifact under test, exactly as in the paper.
// Stable iterations only poll; unstable iterations (forced by toggling the
// tenants' working sets) also transition and re-allocate.
func RunFig15(w io.Writer, o Fig15Opts) []Fig15Row {
	// These points measure host wall-clock time (the daemon code path
	// is the artifact under test), so they are Exclusive: the harness
	// drains the pool and runs each alone rather than letting
	// concurrent simulations inflate the timings.
	var points []point[Fig15Row]
	for _, cper := range o.CoresPer {
		for _, n := range o.TenantCounts {
			if n*cper > 17 {
				continue // the paper is bounded by its 18 cores too
			}
			pt := newPoint(fmt.Sprintf("fig15/tenants=%d/cores=%d", n, cper),
				func(seed int64, _ *telemetry.Registry) (Fig15Row, *telemetry.Snapshot) {
					return runFig15Point(n, cper, seed, o), nil
				})
			pt.exclusive = true
			points = append(points, pt)
		}
	}
	rows := sweep(points)
	writeRowsTable(w, "Fig 15 — IAT per-iteration execution time (wall clock)", rows)
	return rows
}

// wsToggler flips X-Mem working sets every interval so the poll deltas
// always exceed THRESHOLD_STABLE, forcing unstable iterations.
type wsToggler struct {
	xs       []*workload.XMem
	interval float64
	last     float64
	flip     bool
}

func (t *wsToggler) Tick(nowNS float64) {
	if nowNS-t.last < t.interval {
		return
	}
	t.last = nowNS
	t.flip = !t.flip
	for _, x := range t.xs {
		if t.flip {
			x.SetWorkingSet(8 << 20)
		} else {
			x.SetWorkingSet(256 << 10)
		}
	}
}

func runFig15Point(tenants, coresPer int, seed int64, o Fig15Opts) Fig15Row {
	build := func(toggle bool) (*sim.Platform, *core.Daemon) {
		p := sim.NewPlatform(sim.XeonGold6140(o.Scale))
		tog := &wsToggler{interval: o.IntervalNS}
		for t := 0; t < tenants; t++ {
			clos := 1 + t%15
			mustMask(p, clos, cache.ContiguousMask(t%10, 2))
			var cores []int
			var workers []sim.Worker
			for c := 0; c < coresPer; c++ {
				id := t*coresPer + c
				x := workload.NewXMem(p.Alloc, 8<<20, 256<<10, int64(100+id)+seed)
				tog.xs = append(tog.xs, x)
				cores = append(cores, id)
				workers = append(workers, x)
			}
			mustTenant(p, &sim.Tenant{
				Name: fmt.Sprintf("t%d", t), Cores: cores, CLOS: clos,
				Priority: sim.BestEffort, Workers: workers,
			})
		}
		if toggle {
			p.AddController(tog) // runs before the daemon each epoch
		}
		return p, attachDaemon(p, iatDaemon(o.Scale, o.IntervalNS), nil)
	}

	measure := func(toggle, wantStable bool) (float64, int) {
		p, d := build(toggle)
		var total time.Duration
		n := 0
		prevIters := uint64(0)
		for i := 0; i < o.Iterations; i++ {
			p.Run(o.IntervalNS)
			iters, _ := d.Iterations()
			if iters == prevIters {
				continue // warmup iterations before deltas exist
			}
			prevIters = iters
			tm := d.Timings()
			if tm.Stable != wantStable {
				continue
			}
			if wantStable {
				total += tm.Poll
			} else {
				total += tm.Poll + tm.Transition + tm.Realloc
			}
			n++
		}
		if n == 0 {
			return 0, 0
		}
		return float64(total.Microseconds()) / float64(n), n
	}

	stable, n1 := measure(false, true)
	unstable, n2 := measure(true, false)
	return Fig15Row{
		Tenants:        tenants,
		CoresPerTenant: coresPer,
		StableUS:       stable,
		UnstableUS:     unstable,
		Iterations:     n1 + n2,
	}
}
