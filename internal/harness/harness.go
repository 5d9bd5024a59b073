// Package harness executes experiment sweeps in parallel without
// changing their results.
//
// Every sweep point of the paper's evaluation is independent: it builds
// its own platform, runs it, and returns one typed row. The harness
// turns each point into a self-contained Job and executes job sets on a
// bounded worker pool, reassembling results in submission order — so a
// run's output is bit-for-bit identical to the sequential run at any
// worker count.
//
// The harness also owns the cross-cutting concerns of a regeneration
// run that the figure runners should not: per-job wall-time and retry
// accounting, panic capture (a crashed simulation point becomes a
// reported job failure instead of killing the whole regeneration), a
// live progress line, and the per-run JSON manifest (manifest.go).
package harness

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"iatsim/internal/telemetry"
)

// Job is one self-contained simulation point.
type Job struct {
	// Name uniquely identifies the point within a run, e.g.
	// "fig8/pkt=64/iat". It keys the manifest and seed derivation.
	Name string
	// Figure is the experiment the point belongs to ("fig8").
	Figure string
	// Seed is the point's RNG seed, recorded in the manifest. The
	// harness does not interpret it; the closure bakes it into the
	// scenario it builds.
	Seed int64
	// Exclusive marks a job that measures host wall-clock time (the
	// Fig. 15 daemon-overhead points): it must not share the machine
	// with other jobs, so the pool drains and runs it alone.
	Exclusive bool
	// Fn computes the point's row (or row slice) and, optionally, its
	// telemetry snapshot. It must be self-contained: build its own
	// platform and share no mutable state with other jobs. The harness
	// hands it a private registry when Options.TelemetryDir is set and
	// nil otherwise — nil flows through telemetry's nil-safe handles, so
	// the function wires it unconditionally and pays nothing when
	// telemetry is off. A nil snapshot writes no file.
	Fn func(tel *telemetry.Registry) (row any, snap *telemetry.Snapshot, err error)
}

// Result is the outcome of one job.
type Result struct {
	Name   string `json:"name"`
	Figure string `json:"figure,omitempty"`
	Seed   int64  `json:"seed"`
	// Row is the job's return value (nil on failure). It is not part
	// of the manifest.
	Row any `json:"-"`
	// Err is the final attempt's failure ("" on success). Panics are
	// captured here with their stack.
	Err string `json:"error,omitempty"`
	// Attempts counts executions (1 = no retries needed).
	Attempts int     `json:"attempts"`
	WallMS   float64 `json:"wall_ms"`
	// Snapshot is the path of the job's telemetry snapshot JSON ("" when
	// telemetry was off or the job produced none).
	Snapshot string `json:"snapshot,omitempty"`
}

// Failed reports whether the job exhausted its attempts.
func (r Result) Failed() bool { return r.Err != "" }

// Options configures a Run.
type Options struct {
	// Workers bounds the pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Retries is the number of re-executions after a failed attempt.
	Retries int
	// Progress, when non-nil, receives a live single-line status
	// (completed/total, elapsed, ETA) as jobs finish.
	Progress io.Writer
	// Label prefixes the progress line; defaults to the first job's
	// Figure.
	Label string
	// TelemetryDir, when non-empty, gives every job a private
	// telemetry registry and writes its returned snapshot to
	// <TelemetryDir>/<SnapshotBase(job name)>.{json,csv,trace.json}.
	TelemetryDir string
}

// Report is the outcome of a Run.
type Report struct {
	// Results holds one entry per job, in submission order,
	// regardless of completion order or worker count.
	Results  []Result
	Failures int
	WallMS   float64
}

// Run executes jobs on a bounded worker pool and returns their results
// in submission order. Exclusive jobs run after the pool drains, one at
// a time. Run never panics because of a job: a panicking Fn is captured
// as that job's failure.
func Run(jobs []Job, o Options) *Report {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rep := &Report{Results: make([]Result, len(jobs))}
	start := time.Now()
	prog := newProgress(o, jobs)

	var parallel, exclusive []int
	for i, j := range jobs {
		if j.Exclusive {
			exclusive = append(exclusive, i)
		} else {
			parallel = append(parallel, i)
		}
	}

	// Result slots are disjoint per job, so workers write without a
	// lock; the WaitGroup is the only synchronisation point.
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers && w < len(parallel); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				rep.Results[i] = execute(jobs[i], o)
				prog.completed(rep.Results[i])
			}
		}()
	}
	for _, i := range parallel {
		idx <- i
	}
	close(idx)
	wg.Wait()

	// Wall-clock-measured jobs get the machine to themselves.
	for _, i := range exclusive {
		rep.Results[i] = execute(jobs[i], o)
		prog.completed(rep.Results[i])
	}

	prog.finish()
	for i := range rep.Results {
		if rep.Results[i].Failed() {
			rep.Failures++
		}
	}
	rep.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	return rep
}

// execute runs one job to completion, retrying failed attempts. A
// telemetry snapshot that cannot be persisted fails the attempt: the
// caller asked for telemetry, so silently dropping it would misreport
// the run.
func execute(j Job, o Options) Result {
	res := Result{Name: j.Name, Figure: j.Figure, Seed: j.Seed}
	t0 := time.Now()
	for a := 0; a <= o.Retries; a++ {
		res.Attempts = a + 1
		row, snap, err := capture(j, o.TelemetryDir != "")
		if err == nil && snap != nil && o.TelemetryDir != "" {
			res.Snapshot, err = writeSnapshot(o.TelemetryDir, j.Name, snap)
		}
		if err == nil {
			res.Row, res.Err = row, ""
			break
		}
		res.Err = err.Error()
	}
	res.WallMS = float64(time.Since(t0)) / float64(time.Millisecond)
	return res
}

// capture invokes the job's function, converting a panic into an error
// carrying the stack trace. The job gets a fresh registry when telemetry
// collection is on.
func capture(j Job, wantTel bool) (row any, snap *telemetry.Snapshot, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	var reg *telemetry.Registry
	if wantTel {
		reg = telemetry.NewRegistry()
	}
	return j.Fn(reg)
}

// progress renders the live status line. All methods are safe on a nil
// receiver (no Progress writer configured).
type progress struct {
	mu    sync.Mutex
	w     io.Writer
	label string
	total int
	done  int
	fails int
	start time.Time
}

func newProgress(o Options, jobs []Job) *progress {
	if o.Progress == nil || len(jobs) == 0 {
		return nil
	}
	label := o.Label
	if label == "" {
		label = jobs[0].Figure
	}
	if label == "" {
		label = "run"
	}
	return &progress{w: o.Progress, label: label, total: len(jobs), start: time.Now()}
}

func (p *progress) completed(r Result) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	if r.Failed() {
		p.fails++
	}
	elapsed := time.Since(p.start)
	line := fmt.Sprintf("\r%s: %d/%d jobs", p.label, p.done, p.total)
	if p.fails > 0 {
		line += fmt.Sprintf(" (%d failed)", p.fails)
	}
	if p.done < p.total {
		eta := time.Duration(float64(elapsed) / float64(p.done) * float64(p.total-p.done))
		line += fmt.Sprintf(", %.1fs elapsed, ETA %.1fs", elapsed.Seconds(), eta.Seconds())
	} else {
		line += fmt.Sprintf(" in %.1fs", elapsed.Seconds())
	}
	fmt.Fprintf(p.w, "%-79s", line)
}

func (p *progress) finish() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintln(p.w)
}
