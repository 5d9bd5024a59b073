package exp

import (
	"reflect"
	"testing"

	"iatsim/internal/harness"
	"iatsim/internal/ycsb"
)

// TestAppMixCellRuns pins each figure's run list: the solo run, one run
// per placement corner, then IAT from its start corner, named after the
// cell and all seeded from the cell's name.
func TestAppMixCellRuns(t *testing.T) {
	t.Cleanup(func() { SetExec(Exec{}) })
	SetExec(Exec{Seed: 42})
	o := DefaultFig12Opts()
	quick := o
	quick.Apps = []string{"quick"}
	for _, tc := range []struct {
		name    string
		cells   []appMixCell
		n       int
		first   string
		netOnly bool
		corners []Placement
		iatFrom Placement
	}{
		{"fig12", fig12Cells(o), 10, "fig12/redis/mcf", false, []Placement{PlaceNone, PlacePC}, PlacePC},
		{"fig13", fig13Cells(o), 12, "fig13/redis/ycsb-A", false, []Placement{PlaceNone, PlacePC}, PlacePC},
		{"fig13-quick", fig13Cells(quick), 4, "fig13/redis/ycsb-A", false, []Placement{PlaceNone, PlacePC}, PlacePC},
		{"fig14", fig14Cells(o), 6, "fig14/redis/ycsb-A", true, []Placement{PlaceNone, PlaceBE10, PlacePC}, PlaceBE10},
		{"fig14-quick", fig14Cells(quick), 2, "fig14/redis/ycsb-A", true, []Placement{PlaceNone, PlaceBE10, PlacePC}, PlaceBE10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if len(tc.cells) != tc.n || tc.cells[0].name != tc.first {
				t.Fatalf("%d cells starting %q, want %d starting %q", len(tc.cells), tc.cells[0].name, tc.n, tc.first)
			}
			for _, c := range tc.cells {
				runs := c.runs()
				var names []string
				for _, r := range runs {
					names = append(names, r.name)
				}
				want := []string{c.name + "/solo"}
				for _, pl := range tc.corners {
					want = append(want, c.name+"/"+string(pl))
				}
				want = append(want, c.name+"/iat")
				if !reflect.DeepEqual(names, want) {
					t.Fatalf("%s: runs %v, want %v", c.name, names, want)
				}
				seed := harness.DeriveSeed(42, c.name)
				for i, r := range runs {
					last := i == len(runs)-1
					switch {
					case r.opts.Seed != seed:
						t.Errorf("%s: seed %d, want the cell's %d", r.name, r.opts.Seed, seed)
					case i == 0 && (r.opts.Solo == tc.netOnly || r.opts.NetOnly != tc.netOnly || r.opts.IAT):
						t.Errorf("%s: Solo %v NetOnly %v IAT %v, want a solo run with NetOnly %v",
							r.name, r.opts.Solo, r.opts.NetOnly, r.opts.IAT, tc.netOnly)
					case i > 0 && (r.opts.Solo || r.opts.NetOnly || r.opts.IAT != last):
						t.Errorf("%s: Solo %v NetOnly %v IAT %v, want a co-run with IAT only last",
							r.name, r.opts.Solo, r.opts.NetOnly, r.opts.IAT)
					case last && r.opts.Placement != tc.iatFrom:
						t.Errorf("%s: IAT starts from %q, want %q", r.name, r.opts.Placement, tc.iatFrom)
					case i > 0 && !last && r.opts.Placement != tc.corners[i-1]:
						t.Errorf("%s: placement %q, want %q", r.name, r.opts.Placement, tc.corners[i-1])
					}
				}
			}
		})
	}
	if c := fig14Cells(o)[0]; c.base.MaxNS != 3e9 || c.base.RedisWorkload != "A" || c.base.App != "mcf" {
		t.Fatalf("fig14 cell: MaxNS %g, workload %q, app %q; want the fixed 3 s window of Redis A beside mcf",
			c.base.MaxNS, c.base.RedisWorkload, c.base.App)
	}
}

// hists builds per-op histograms holding count samples of mean ns each.
func hists(samples map[ycsb.Op][2]float64) map[ycsb.Op]*ycsb.Histogram {
	m := map[ycsb.Op]*ycsb.Histogram{}
	for op, s := range samples {
		h := &ycsb.Histogram{}
		for i := 0; i < int(s[0]); i++ {
			h.Record(s[1])
		}
		m[op] = h
	}
	return m
}

// TestAppMixReducers runs the three reducers on synthetic results.
func TestAppMixReducers(t *testing.T) {
	exec := func(ns ...float64) (rs []AppMixResult) {
		for _, v := range ns {
			rs = append(rs, AppMixResult{ExecNS: v})
		}
		return rs
	}
	c12 := appMixCell{base: AppMixOpts{Net: "redis", App: "gcc"}}
	got12 := fig12Row(c12, exec(100)[0], exec(120, 150, 110), exec(105)[0])
	if want := (Fig12Row{Net: "redis", App: "gcc", SoloNS: 100, BaseMin: 1.1, BaseMax: 1.5, IAT: 1.05}); got12 != want {
		t.Errorf("fig12: %+v, want %+v", got12, want)
	}
	// A corner that did not finish normalises to 0, which then is the
	// minimum, as the figure has always reported it.
	if got := fig12Row(c12, exec(100)[0], exec(120, 0), exec(0)[0]); got.BaseMin != 0 || got.BaseMax != 1.2 || got.IAT != 0 {
		t.Errorf("fig12 with unfinished runs: %+v, want BaseMin 0, BaseMax 1.2, IAT 0", got)
	}
	if lo, hi := spread(nil, func(AppMixResult) float64 { return 1 }); lo != 1e18 || hi != 0 {
		t.Errorf("spread over no corners = (%g, %g), want (1e18, 0)", lo, hi)
	}

	// Update has no solo samples, so only Read is weighed.
	solo := AppMixResult{RocksHists: hists(map[ycsb.Op][2]float64{ycsb.Read: {4, 10}})}
	rocks := func(read, update float64) AppMixResult {
		return AppMixResult{RocksHists: hists(map[ycsb.Op][2]float64{ycsb.Read: {1, read}, ycsb.Update: {5, update}})}
	}
	c13 := appMixCell{base: AppMixOpts{Net: "fastclick", App: "rocksdb:A"}}
	got13 := fig13Row(c13, solo, []AppMixResult{rocks(12, 1), rocks(15, 99)}, rocks(9, 50))
	if want := (Fig13Row{Net: "fastclick", Workload: "A", BaseMin: 1.2, BaseMax: 1.5, IAT: 0.9}); got13 != want {
		t.Errorf("fig13: %+v, want %+v", got13, want)
	}

	redis := func(ops, mean, p99 float64) AppMixResult {
		return AppMixResult{RedisOpsPS: ops, RedisMeanNS: mean, RedisP99NS: p99}
	}
	c14 := appMixCell{base: AppMixOpts{RedisWorkload: "C"}}
	corners := []AppMixResult{redis(90, 11, 30), redis(80, 13, 20), redis(95, 12, 25)}
	got14 := fig14Row(c14, redis(100, 10, 20), corners, redis(98, 10.5, 22))
	want14 := Fig14Row{Workload: "C", BaseTputMin: 0.8, BaseTputMax: 0.95, IATTput: 0.98,
		BaseAvgMax: 1.3, IATAvg: 1.05, BaseP99Max: 1.5, IATP99: 1.1}
	if got14 != want14 {
		t.Errorf("fig14: %+v, want %+v", got14, want14)
	}
}

// TestAppMixCellFailedRuns runs a cell whose app is unknown: each of its
// runs panics while the scenario is built, so the cell has no row, the
// runner survives, and the manifest counts every run as failed.
func TestAppMixCellFailedRuns(t *testing.T) {
	t.Cleanup(func() { SetExec(Exec{}) })
	m := harness.NewManifest(harness.RunOptions{})
	SetExec(Exec{Jobs: 2, Manifest: m})
	bad := fig12Cells(Fig12Opts{Nets: []string{"redis"}, Apps: []string{"no-such-app"}, Corners: []Placement{PlaceNone, PlacePC}})
	if rows := runAppMixCells(bad, fig12Row); len(rows) != 0 {
		t.Fatalf("rows = %+v, want none", rows)
	}
	if m.TotalJobs != 4 || m.Failures != 4 {
		t.Fatalf("manifest: %d jobs, %d failed; want all 4 runs failed", m.TotalJobs, m.Failures)
	}
	for i, name := range []string{"solo", "none", "pc", "iat"} {
		if j := m.Jobs[i]; j.Name != "fig12/redis/no-such-app/"+name || !j.Failed() {
			t.Errorf("manifest job %d: %q failed=%v, want failed run %q", i, j.Name, j.Failed(), name)
		}
	}
}
