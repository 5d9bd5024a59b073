// Command perfbench is the simulator's benchmark. It runs one of three
// closed workloads (a fixed simulated span at a fixed seed) over and over
// for a wall-clock window, checks every iteration's simulated output
// against a digest, and prints the metrics by name with their units. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"run_s": {"value": 0.81, "unit": "s"}, ...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) report the per-layer metrics, measured by wrapping the
// simulator's public entry points and profiling the benchmark's own
// process. README.md lists every metric.
//
// Usage (from the repository root, see run.sh):
//
//	perfbench --workload leaky-dma|appmix-kv|fleet-canary|all --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"iatsim/internal/exp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, measures the selected workloads and writes their
// reports; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 0, "workload seed (0 = the simulator's canonical seeds)")
	seconds := fs.Float64("seconds", 20, "wall-clock measurement window per workload")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload W --seed N --seconds S (> 0) --trace 0|1")
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (valid: %s, all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}

	// One core: one harness worker steps the fleet's hosts one at a time,
	// and the collector shares that core with the simulation instead of
	// racing it from another one, so its pacing, and with it the heap's
	// peak, does not depend on how busy the machine's other core is.
	runtime.GOMAXPROCS(1)
	exp.SetExec(exp.Exec{Jobs: 1})
	window := time.Duration(*seconds * float64(time.Second))
	for _, w := range selected {
		rep := measure(w, options{
			seed: *seed, window: window, traced: *trace == 1,
			want: recordedDigests[w.name][*seed], minIterations: 3,
		})
		rep.writeTable(stdout)
		// An incorrect result is still a result: the line says so.
		if err := rep.writeJSON(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of measuring one workload.
type report struct {
	Workload  string
	Seed      int64
	Traced    bool
	Attempted int
	Failed    int
	Correct   bool
	Digest    string
	Recorded  bool // Digest was compared against a recorded one
	Notes     []string
	Metrics   map[string]value
}

// writeJSON prints the machine-readable result line.
func (r *report) writeJSON(w io.Writer) error {
	data, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// writeTable prints the human-readable summary: every metric with its
// unit, in catalogue order, plus the failure fraction.
func (r *report) writeTable(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	check := "self-consistent (seed not recorded)"
	if r.Recorded {
		check = "matches recorded digest"
	}
	if !r.Correct {
		check = "FAILED"
	}
	fmt.Fprintf(w, "# %s seed %d (%s): %d iterations, %d failed, digest %s, %s\n",
		r.Workload, r.Seed, mode, r.Attempted, r.Failed, r.Digest, check)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "#   %s\n", n)
	}
	fmt.Fprintf(w, "  %-28s %14.4f %s\n", "failed_frac", float64(r.Failed)/float64(max(r.Attempted, 1)), "frac")
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return catalogueIndex(names[i]) < catalogueIndex(names[j]) })
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}
