package exp

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"iatsim/internal/harness"
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
	// snapshot (for runners migrated to harness.Job.TelFn) into
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

// runJobs executes a job set under the current Exec policy and
// collects the surviving rows in submission order. A job may return an
// R or a []R (time-series runners); a failed job's row is skipped so one
// crashed point cannot kill the whole regeneration.
func runJobs[R any](jobs []harness.Job) []R {
	var rows []R
	for _, row := range runJobsAt(jobs) {
		if v, ok := row.(R); ok {
			rows = append(rows, v)
		} else if vs, ok := row.([]R); ok {
			rows = append(rows, vs...)
		}
	}
	return rows
}

// runJobsAt executes a job set under the current Exec policy and returns
// each job's row at its submission index, nil where the job failed.
// Failed jobs are reported on stderr and in the manifest.
func runJobsAt(jobs []harness.Job) []any {
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
	rows := make([]any, len(rep.Results))
	for i, res := range rep.Results {
		if res.Failed() {
			fmt.Fprintf(os.Stderr, "exp: job %s failed after %d attempt(s): %s\n",
				res.Name, res.Attempts, firstLine(res.Err))
		}
		rows[i] = res.Row // nil when the job failed
	}
	return rows
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
