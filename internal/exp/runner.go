package exp

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"iatsim/internal/harness"
	"iatsim/internal/telemetry"
)

// Exec is the package-wide execution policy for the figure and ablation
// runners: how many sweep points run concurrently, the base RNG seed,
// and where progress and the run manifest go. The zero value is the
// default: one worker per CPU, canonical seeds, no progress, no
// manifest. Results are identical at any worker count (each point
// builds its own platform; the harness reassembles rows in submission
// order), so callers only set this to tune speed or observability.
type Exec struct {
	// Jobs bounds the worker pool; <= 0 means runtime.GOMAXPROCS(0).
	Jobs int
	// Seed is the base RNG seed; 0 selects the canonical reproduction
	// seeds (the committed results/ CSVs).
	Seed int64
	// Retries re-runs failed sweep points.
	Retries int
	// Progress, when non-nil, receives the harness's live status line.
	Progress io.Writer
	// Manifest, when non-nil, accumulates per-job timings and
	// failures across runners.
	Manifest *harness.Manifest
	// TelemetryDir, when non-empty, collects a per-job telemetry
	// snapshot (for the points that return one) into
	// <TelemetryDir>/<job name>.{json,csv,trace.json}.
	TelemetryDir string
}

var (
	execMu  sync.RWMutex
	execCfg Exec
)

// SetExec installs the execution policy for subsequent runner calls
// (cmd/experiments sets it once from its flags).
func SetExec(e Exec) {
	execMu.Lock()
	execCfg = e
	execMu.Unlock()
}

// CurrentExec returns the installed execution policy.
func CurrentExec() Exec {
	execMu.RLock()
	defer execMu.RUnlock()
	return execCfg
}

// jobSeed derives the seed for a named sweep point under the current
// base seed (0 ⇒ 0: the scenarios use their historical constants).
func jobSeed(name string) int64 {
	return harness.DeriveSeed(CurrentExec().Seed, name)
}

// point is one sweep point: a self-contained, seeded run under a job
// name such as "fig8/pkt=64/iat". The name's prefix before the first '/'
// is the figure label. run gets the point's seed and the job's telemetry
// registry (nil when telemetry is off) and returns its row and its
// snapshot (nil when it has none).
type point[R any] struct {
	name      string
	seed      int64
	exclusive bool // measures host wall-clock: the harness runs it alone
	run       func(seed int64, tel *telemetry.Registry) (R, *telemetry.Snapshot)
}

// newPoint returns a point seeded from its name under the current base
// seed.
func newPoint[R any](name string, run func(seed int64, tel *telemetry.Registry) (R, *telemetry.Snapshot)) point[R] {
	return point[R]{name: name, seed: jobSeed(name), run: run}
}

// sweep runs the points under the current Exec policy and returns the
// surviving rows in point order: a failed point's row is skipped so one
// crashed point cannot kill the whole regeneration.
func sweep[R any](points []point[R]) []R {
	var rows []R
	for _, row := range sweepAt(points) {
		if row != nil {
			rows = append(rows, *row)
		}
	}
	return rows
}

// sweepAt runs each point as one harness job under the current Exec
// policy and returns its row at the point's index, nil where the point
// failed. Failed points are reported on stderr and in the manifest.
func sweepAt[R any](points []point[R]) []*R {
	jobs := make([]harness.Job, len(points))
	for i, pt := range points {
		figure, _, _ := strings.Cut(pt.name, "/")
		jobs[i] = harness.Job{Name: pt.name, Figure: figure, Seed: pt.seed, Exclusive: pt.exclusive,
			Fn: func(tel *telemetry.Registry) (any, *telemetry.Snapshot, error) {
				row, snap := pt.run(pt.seed, tel)
				return row, snap, nil
			}}
	}
	e := CurrentExec()
	rep := harness.Run(jobs, harness.Options{
		Workers:      e.Jobs,
		Retries:      e.Retries,
		Progress:     e.Progress,
		TelemetryDir: e.TelemetryDir,
	})
	if e.Manifest != nil {
		e.Manifest.Append(rep)
	}
	rows := make([]*R, len(rep.Results))
	for i, res := range rep.Results {
		if res.Failed() {
			fmt.Fprintf(os.Stderr, "exp: job %s failed after %d attempt(s): %s\n",
				res.Name, res.Attempts, firstLine(res.Err))
			continue
		}
		row := res.Row.(R)
		rows[i] = &row
	}
	return rows
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
