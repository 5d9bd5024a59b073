package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"iatsim/internal/exp"
)

func init() {
	// Tests run from the benchmark's directory, one below the root.
	baselinePath = "../" + baselinePath
	exp.SetExec(exp.Exec{Jobs: 1})
}

// quick measures one iteration per phase.
func quick(w workload, traced bool, want string) *report {
	return measure(w, options{traced: traced, want: want, minIterations: 1})
}

// TestEveryMetricEmitted runs each workload once untraced and once
// traced: every catalogue metric must be emitted with its unit, and the
// traced iterations must reproduce the untraced digest.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := quick(w, false, recordedDigests[w.name][0])
			if !plain.Correct || plain.Digest == "" {
				t.Fatalf("untraced run failed: %+v", plain.Notes)
			}
			wantMetrics(t, plain, endToEnd)

			traced := quick(w, true, plain.Digest)
			if !traced.Correct {
				t.Fatalf("traced digests differ from the untraced %s: %v", plain.Digest, traced.Notes)
			}
			wantMetrics(t, traced, perLayer)
			if s := traced.Metrics["cache.private.share"].Value; s <= 0 || s > 1 {
				t.Errorf("cache.private.share = %v, want a share of the profile", s)
			}
		})
	}
}

func wantMetrics(t *testing.T, r *report, defs []metricDef) {
	t.Helper()
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, want %d", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		if v, ok := r.Metrics[d.name]; !ok || v.Unit != d.unit {
			t.Errorf("metric %s = %+v, want unit %q", d.name, v, d.unit)
		}
	}
}

// TestPerturbedDigestFails checks that an output that does not match
// the recorded digest counts as a failed iteration.
func TestPerturbedDigestFails(t *testing.T) {
	r := quick(workloads[0], false, "0123456789abcdef")
	if r.Correct || r.Failed == 0 || r.Failed != r.Attempted {
		t.Fatalf("perturbed digest: correct=%v failed=%d/%d", r.Correct, r.Failed, r.Attempted)
	}
}

// TestFleetMatchesRunFleet checks that the benchmark's step-by-step
// fleet assembly simulates exactly what exp.RunFleet does.
func TestFleetMatchesRunFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fleet twice")
	}
	inst, err := newFleet(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.run(); err != nil {
		t.Fatal(err)
	}
	got, err := inst.digest()
	if err != nil {
		t.Fatal(err)
	}
	rep, hosts, err := exp.RunFleet(nil, fleetOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	ref := &fleetRun{cfg: inst.(*fleetRun).cfg, rep: rep}
	ref.cfg.Hosts = hosts
	want, err := ref.digest()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("benchmark fleet digest %s, RunFleet %s", got, want)
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json, the metric
// catalogue and the workload table in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %+v, here %s: %s", i, w, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%d metrics in BENCHMARK.json, %d in the catalogue", len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			d := c.defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("BENCHMARK.json %+v, catalogue %+v", m, d)
			}
		}
	}
}

// TestREADMENamesEveryMetric keeps the benchmark's doc complete.
func TestREADMENamesEveryMetric(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range catalogue {
		if !bytes.Contains(data, []byte("`"+d.name+"`")) {
			t.Errorf("README.md does not describe %s", d.name)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "leaky-dma", "--trace", "2"},
		{"--workload", "leaky-dma", "--seconds", "0"},
		{"--workload", "leaky-dma", "extra"},
	} {
		var out, errs strings.Builder
		if code := run(args, &out, &errs); code != 2 || out.Len() > 0 {
			t.Errorf("run(%q) = %d with output %q, want 2 and none", args, code, out.String())
		}
	}
}
