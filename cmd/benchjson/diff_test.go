package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mkReport builds a report from (name, ns/op, allocs/op) triples, all at
// procs=8.
func mkReport(rows ...[3]any) *Report {
	rep := &Report{}
	for _, r := range rows {
		rep.Benchmarks = append(rep.Benchmarks, Benchmark{
			Name: r[0].(string), Procs: 8, Iterations: 100,
			Metrics: map[string]float64{
				"ns/op":     r[1].(float64),
				"allocs/op": r[2].(float64),
			},
		})
	}
	return rep
}

func TestDiffWithinTolerance(t *testing.T) {
	base := mkReport([3]any{"A", 100.0, 0.0}, [3]any{"B", 1000.0, 2.0})
	head := mkReport([3]any{"A", 110.0, 0.0}, [3]any{"B", 900.0, 2.0})
	rows, added := Diff(base, head, 15)
	if len(rows) != 2 || len(added) != 0 {
		t.Fatalf("rows=%d added=%d", len(rows), len(added))
	}
	for _, r := range rows {
		if r.Reason != "" {
			t.Fatalf("%s flagged: %s", r.Name, r.Reason)
		}
	}
	if rows[0].DeltaPct < 9.9 || rows[0].DeltaPct > 10.1 {
		t.Fatalf("A delta = %.2f%%, want ~+10%%", rows[0].DeltaPct)
	}
}

func TestDiffNsOpRegression(t *testing.T) {
	base := mkReport([3]any{"A", 100000.0, 0.0})
	head := mkReport([3]any{"A", 120000.0, 0.0})
	rows, _ := Diff(base, head, 15)
	if rows[0].Reason == "" {
		t.Fatal("+20% ns/op not flagged at 15% tolerance")
	}
	// The same delta passes at a looser tolerance.
	rows, _ = Diff(base, head, 25)
	if rows[0].Reason != "" {
		t.Fatalf("+20%% flagged at 25%% tolerance: %s", rows[0].Reason)
	}
}

// TestDiffSubMicrosecondNsNotGated: below nsGateFloorNs the percentage
// gate does not apply — timer jitter on a 70ns loop swamps any usable
// tolerance — but the allocs/op gate still does.
func TestDiffSubMicrosecondNsNotGated(t *testing.T) {
	rows, _ := Diff(mkReport([3]any{"A", 70.0, 0.0}), mkReport([3]any{"A", 95.0, 0.0}), 15)
	if rows[0].Reason != "" {
		t.Fatalf("+36%% on a 70ns bench flagged: %q", rows[0].Reason)
	}
	rows, _ = Diff(mkReport([3]any{"A", 70.0, 0.0}), mkReport([3]any{"A", 95.0, 1.0}), 15)
	if !strings.Contains(rows[0].Reason, "allocs/op") {
		t.Fatalf("alloc regression on a sub-µs bench not flagged: %q", rows[0].Reason)
	}
	// At and above the floor the percentage gate is live.
	rows, _ = Diff(mkReport([3]any{"A", 1000.0, 0.0}), mkReport([3]any{"A", 1300.0, 0.0}), 15)
	if rows[0].Reason == "" {
		t.Fatal("+30% at 1µs/op not flagged")
	}
}

// TestDiffAllocRegressionHasNoTolerance: allocs/op gates exactly — one
// new allocation per op is a regression even when ns/op improved.
func TestDiffAllocRegressionHasNoTolerance(t *testing.T) {
	base := mkReport([3]any{"A", 100.0, 0.0})
	head := mkReport([3]any{"A", 50.0, 1.0})
	rows, _ := Diff(base, head, 15)
	if !strings.Contains(rows[0].Reason, "allocs/op") {
		t.Fatalf("alloc regression not flagged: %q", rows[0].Reason)
	}
	// Fewer allocations is an improvement, not a regression.
	rows, _ = Diff(mkReport([3]any{"A", 100.0, 3.0}), mkReport([3]any{"A", 100.0, 1.0}), 15)
	if rows[0].Reason != "" {
		t.Fatalf("alloc improvement flagged: %q", rows[0].Reason)
	}
	// A baseline that already allocates gets 1% slack for b.N-dependent
	// amortization flap — but nothing more.
	rows, _ = Diff(mkReport([3]any{"A", 100.0, 4233.0}), mkReport([3]any{"A", 100.0, 4235.0}), 15)
	if rows[0].Reason != "" {
		t.Fatalf("+2 of 4233 allocs flagged: %q", rows[0].Reason)
	}
	rows, _ = Diff(mkReport([3]any{"A", 100.0, 4233.0}), mkReport([3]any{"A", 100.0, 4500.0}), 15)
	if !strings.Contains(rows[0].Reason, "allocs/op") {
		t.Fatalf("+6%% allocs not flagged: %q", rows[0].Reason)
	}
}

// TestDiffBytesRegression: B/op gates like allocs/op — exactly at a
// zero baseline, with 1% slack where the baseline already allocates.
func TestDiffBytesRegression(t *testing.T) {
	withBytes := func(ns, allocs, bytes float64) *Report {
		rep := mkReport([3]any{"A", ns, allocs})
		rep.Benchmarks[0].Metrics["B/op"] = bytes
		return rep
	}
	cases := []struct {
		name      string
		old, head *Report
		regressed bool
	}{
		{"zero stays zero", withBytes(100, 0, 0), withBytes(100, 0, 0), false},
		{"first byte at a zero baseline", withBytes(100, 0, 0), withBytes(100, 0, 8), true},
		{"fewer bytes", withBytes(100, 10, 34e6), withBytes(100, 10, 25e6), false},
		{"within 1% of an allocating baseline", withBytes(100, 10, 34e6), withBytes(100, 10, 34.3e6), false},
		{"beyond 1% of an allocating baseline", withBytes(100, 10, 34e6), withBytes(100, 10, 34.5e6), true},
		{"flagged even when ns/op improved", withBytes(1e6, 10, 1000), withBytes(5e5, 10, 2000), true},
		{"reports without B/op", mkReport([3]any{"A", 100.0, 0.0}), mkReport([3]any{"A", 100.0, 0.0}), false},
	}
	for _, c := range cases {
		rows, _ := Diff(c.old, c.head, 15)
		if got := strings.Contains(rows[0].Reason, "B/op"); got != c.regressed {
			t.Errorf("%s: B/op regression = %v (reason %q), want %v", c.name, got, rows[0].Reason, c.regressed)
		}
	}
}

// TestDiffMissingAndAdded: a baseline benchmark missing from the new
// report is a regression (a gated bench cannot silently disappear); a
// brand-new benchmark is reported but not gated.
func TestDiffMissingAndAdded(t *testing.T) {
	base := mkReport([3]any{"Gone", 100.0, 0.0})
	head := mkReport([3]any{"Fresh", 100.0, 0.0})
	rows, added := Diff(base, head, 15)
	if !strings.Contains(rows[0].Reason, "missing") {
		t.Fatalf("missing bench not flagged: %q", rows[0].Reason)
	}
	if len(added) != 1 || added[0] != "Fresh" {
		t.Fatalf("added = %v", added)
	}
}

// TestDiffProcsKeyed: the same name at a different GOMAXPROCS is a
// different measurement, not a match.
func TestDiffProcsKeyed(t *testing.T) {
	base := mkReport([3]any{"A", 100.0, 0.0})
	head := mkReport([3]any{"A", 100.0, 0.0})
	head.Benchmarks[0].Procs = 4
	rows, added := Diff(base, head, 15)
	if !strings.Contains(rows[0].Reason, "missing") || len(added) != 1 {
		t.Fatalf("procs mismatch treated as a match: rows=%+v added=%v", rows, added)
	}
}

// TestCollapseBest: a -count=3 suite folds to one entry per benchmark
// with each metric's minimum, in first-appearance order.
func TestCollapseBest(t *testing.T) {
	rep := mkReport(
		[3]any{"A", 120.0, 1.0},
		[3]any{"B", 50.0, 0.0},
		[3]any{"A", 100.0, 2.0},
		[3]any{"A", 110.0, 1.0},
		[3]any{"B", 55.0, 0.0},
	)
	rep.Benchmarks[2].Iterations = 500
	got := CollapseBest(rep)
	if len(got.Benchmarks) != 2 {
		t.Fatalf("collapsed to %d entries", len(got.Benchmarks))
	}
	a := got.Benchmarks[0]
	if a.Name != "A" || a.Metrics["ns/op"] != 100 || a.Metrics["allocs/op"] != 1 || a.Iterations != 500 {
		t.Fatalf("A = %+v", a)
	}
	if b := got.Benchmarks[1]; b.Name != "B" || b.Metrics["ns/op"] != 50 {
		t.Fatalf("B = %+v", b)
	}
	// The input report is untouched (the collapse copies).
	if rep.Benchmarks[0].Metrics["ns/op"] != 120 {
		t.Fatal("CollapseBest mutated its input")
	}
}

// TestCollapseBestKeepsProcsDistinct: the same name at different
// GOMAXPROCS stays two entries.
func TestCollapseBestKeepsProcsDistinct(t *testing.T) {
	rep := mkReport([3]any{"A", 100.0, 0.0}, [3]any{"A", 90.0, 0.0})
	rep.Benchmarks[1].Procs = 4
	if got := CollapseBest(rep); len(got.Benchmarks) != 2 {
		t.Fatalf("distinct procs collapsed: %+v", got.Benchmarks)
	}
}

func TestRunDiffOutput(t *testing.T) {
	dir := t.TempDir()
	writeReport := func(name string, rep *Report) string {
		path := filepath.Join(dir, name)
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := writeReport("old.json", mkReport([3]any{"A", 100000.0, 0.0}, [3]any{"B", 100000.0, 0.0}))
	newPath := writeReport("new.json", mkReport([3]any{"A", 100000.0, 0.0}, [3]any{"B", 200000.0, 0.0}))
	var out strings.Builder
	regressed, err := runDiff(oldPath, newPath, 15, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatalf("no regression reported; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") || !strings.Contains(out.String(), "1 of 2") {
		t.Fatalf("output:\n%s", out.String())
	}
}
