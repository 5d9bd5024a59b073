package exp

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"iatsim/internal/harness"
	"iatsim/internal/telemetry"
)

// seenRow records which point ran and the seed its run was handed.
type seenRow struct {
	idx  int
	seed int64
}

// rowPoint is a point whose run sleeps for delay and returns a seenRow.
func rowPoint(name string, idx int, delay time.Duration) point[seenRow] {
	return newPoint(name, func(seed int64, _ *telemetry.Registry) (seenRow, *telemetry.Snapshot) {
		time.Sleep(delay)
		return seenRow{idx, seed}, nil
	})
}

// TestSweepRowsInPointOrder makes later points finish first and checks
// that rows, job names, figure labels and seeds come back in point order,
// and that each point's seed reaches both its run and the manifest.
func TestSweepRowsInPointOrder(t *testing.T) {
	t.Cleanup(func() { SetExec(Exec{}) })
	m := harness.NewManifest(harness.RunOptions{})
	SetExec(Exec{Jobs: 4, Seed: 7, Manifest: m})
	names := []string{"figA/pkt=64", "figA/pkt=128", "abl-b/x", "solo"}
	var points []point[seenRow]
	for i, name := range names {
		points = append(points, rowPoint(name, i, time.Duration(len(names)-i)*5*time.Millisecond))
	}
	rows := sweep(points)
	if len(rows) != len(names) || len(m.Jobs) != len(names) {
		t.Fatalf("rows = %d, manifest jobs = %d, want %d each", len(rows), len(m.Jobs), len(names))
	}
	for i, name := range names {
		seed := harness.DeriveSeed(7, name)
		if points[i].seed != seed || seed == 0 {
			t.Fatalf("%s: point seed %d, want %d (nonzero)", name, points[i].seed, seed)
		}
		if rows[i] != (seenRow{i, seed}) {
			t.Errorf("row %d = %+v, want point %d run with seed %d", i, rows[i], i, seed)
		}
		figure, _, _ := strings.Cut(name, "/")
		if j := m.Jobs[i]; j.Name != name || j.Figure != figure || j.Seed != seed || j.Failed() {
			t.Errorf("manifest job %d = %+v, want %q, figure %q, seed %d", i, j, name, figure, seed)
		}
	}
}

// TestSweepSurvivesPanickingPoint: a crashed point is dropped by sweep,
// nil at its index in sweepAt, and counted as failed in the manifest.
func TestSweepSurvivesPanickingPoint(t *testing.T) {
	t.Cleanup(func() { SetExec(Exec{}) })
	m := harness.NewManifest(harness.RunOptions{})
	SetExec(Exec{Jobs: 2, Manifest: m})
	points := []point[seenRow]{
		newPoint("figA/crash", func(int64, *telemetry.Registry) (seenRow, *telemetry.Snapshot) {
			panic("simulated point crash")
		}),
		rowPoint("figA/fine", 1, 0),
	}
	if rows := sweep(points); len(rows) != 1 || rows[0].idx != 1 {
		t.Fatalf("crashed point took out the run: %+v", rows)
	}
	at := sweepAt(points)
	if len(at) != 2 || at[0] != nil || at[1] == nil || at[1].idx != 1 {
		t.Fatalf("sweepAt = %v, want [nil, the fine row]", at)
	}
	if m.TotalJobs != 4 || m.Failures != 2 {
		t.Fatalf("manifest: %d jobs, %d failed; want 4 jobs, 2 failed", m.TotalJobs, m.Failures)
	}
	for i, j := range m.Jobs {
		if failed := i%2 == 0; j.Failed() != failed || (failed && !strings.Contains(j.Err, "simulated point crash")) {
			t.Errorf("manifest job %d = %+v, want failed=%v", i, j, failed)
		}
	}
}

// TestSweepExclusiveRunsAlone: an exclusive point submitted first keeps
// its slot but runs only after every other point has finished.
func TestSweepExclusiveRunsAlone(t *testing.T) {
	t.Cleanup(func() { SetExec(Exec{}) })
	SetExec(Exec{Jobs: 4})
	var finished atomic.Int32
	excl := newPoint("figA/excl", func(int64, *telemetry.Registry) (int32, *telemetry.Snapshot) {
		return finished.Load(), nil
	})
	excl.exclusive = true
	points := []point[int32]{excl}
	for i := 0; i < 8; i++ {
		points = append(points, newPoint(fmt.Sprintf("figA/par=%d", i), func(int64, *telemetry.Registry) (int32, *telemetry.Snapshot) {
			time.Sleep(5 * time.Millisecond)
			finished.Add(1)
			return -1, nil
		}))
	}
	rows := sweep(points)
	if len(rows) != 9 || rows[0] != 8 {
		t.Fatalf("rows = %v, want the exclusive point first, run after all 8 others", rows)
	}
}

// TestSweepTelemetry: with a telemetry directory, every point gets a
// registry, a returned snapshot is written under the job's name, and a
// nil snapshot writes no file.
func TestSweepTelemetry(t *testing.T) {
	t.Cleanup(func() { SetExec(Exec{}) })
	dir := t.TempDir()
	SetExec(Exec{Jobs: 2, TelemetryDir: dir})
	got := sweep([]point[bool]{
		newPoint("figA/with", func(_ int64, tel *telemetry.Registry) (bool, *telemetry.Snapshot) {
			return tel != nil, tel.Snapshot(0)
		}),
		newPoint("figA/without", func(_ int64, tel *telemetry.Registry) (bool, *telemetry.Snapshot) {
			return tel != nil, nil
		}),
	})
	if len(got) != 2 || !got[0] || !got[1] {
		t.Fatalf("registries handed out = %v, want both", got)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !strings.HasPrefix(filepath.Base(f), "figA_with.") {
			t.Errorf("unexpected telemetry file %s", f)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "figA_with.json")); err != nil {
		t.Errorf("snapshot not written: %v", err)
	}
}

// TestParallelRowsMatchSequential is the tier-1 determinism check (run
// it under -race too): one figure at 8 workers must produce rows equal
// to the 1-worker run, with canonical and non-zero base seeds alike.
func TestParallelRowsMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	t.Cleanup(func() { SetExec(Exec{}) })
	o := DefaultFig4Opts()
	o.WorkingSets = []int{4, 8}
	o.WarmNS, o.MeasureNS = 0.2e9, 0.2e9

	for _, seed := range []int64{0, 7} {
		SetExec(Exec{Jobs: 1, Seed: seed})
		seq := RunFig4(io.Discard, o)
		SetExec(Exec{Jobs: 8, Seed: seed})
		par := RunFig4(io.Discard, o)
		if len(seq) != 4 {
			t.Fatalf("seed %d: rows = %d, want 4", seed, len(seq))
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("seed %d: jobs=8 diverged from jobs=1:\n seq: %+v\n par: %+v", seed, seq, par)
		}
	}
}
