package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// DiffRow is the comparison of one benchmark between a baseline report
// and a new report. A benchmark is keyed by name + GOMAXPROCS suffix:
// the same bench at a different -cpu count is a different timing. When
// the new report has the name only at another suffix, the row still
// compares allocs/op and B/op, which do not depend on the core count.
type DiffRow struct {
	Name string
	// ProcsDiffer marks a row matched by name across GOMAXPROCS
	// suffixes: its ns/op is shown but not gated.
	ProcsDiffer bool
	OldNs       float64
	NewNs       float64
	DeltaPct    float64 // ns/op change in percent; positive = slower
	OldAllocs   float64
	NewAllocs   float64
	OldBytes    float64 // B/op
	NewBytes    float64
	// Reason is non-empty when the row is a regression: ns/op past the
	// tolerance, allocs/op or B/op past countRegressed, or the benchmark
	// missing from the new report (a gated bench cannot silently
	// disappear).
	Reason string
}

// nsGateFloorNs bounds which benchmarks the ns/op percentage gate
// applies to. Below ~1µs per op, run-to-run timer jitter and host-speed
// drift on shared CI machines routinely exceed any tolerance worth
// gating at (a 10ns wobble on a 70ns loop is +14%), so sub-µs
// micro-benches are gated on allocs/op and B/op only — which are exact
// at a zero-alloc baseline, the property the hot-loop pass actually
// guarantees. Their ns/op deltas are still printed for information.
const nsGateFloorNs = 1000.0

// Diff compares every baseline benchmark against the new report.
// tolerancePct bounds the allowed ns/op growth (15 = +15%) for
// benchmarks whose baseline is at least nsGateFloorNs; allocs/op and
// B/op gate per countRegressed — exactly at a zero baseline, with 1%
// slack where the baseline already allocates. A baseline benchmark the
// new report has only at other GOMAXPROCS suffixes is matched to the
// first of them by name, with ns/op left ungated. Rows come back in
// baseline order; added names are new-report benchmarks matched by no
// baseline row (informational, never gated).
func Diff(base, head *Report, tolerancePct float64) (rows []DiffRow, added []string) {
	key := func(b Benchmark) string { return fmt.Sprintf("%s-%d", b.Name, b.Procs) }
	newBy := make(map[string]Benchmark, len(head.Benchmarks))
	firstByName := make(map[string]Benchmark, len(head.Benchmarks))
	for _, b := range head.Benchmarks {
		newBy[key(b)] = b
		if _, ok := firstByName[b.Name]; !ok {
			firstByName[b.Name] = b
		}
	}
	matched := make(map[string]bool, len(base.Benchmarks))
	for _, ob := range base.Benchmarks {
		row := DiffRow{
			Name:      ob.Name,
			OldNs:     ob.Metrics["ns/op"],
			OldAllocs: ob.Metrics["allocs/op"],
			OldBytes:  ob.Metrics["B/op"],
		}
		nb, ok := newBy[key(ob)]
		if !ok {
			nb, ok = firstByName[ob.Name]
			row.ProcsDiffer = ok
		}
		if !ok {
			row.Reason = "missing from new report"
			rows = append(rows, row)
			continue
		}
		matched[key(nb)] = true
		row.NewNs = nb.Metrics["ns/op"]
		row.NewAllocs = nb.Metrics["allocs/op"]
		row.NewBytes = nb.Metrics["B/op"]
		if row.OldNs > 0 {
			row.DeltaPct = (row.NewNs - row.OldNs) / row.OldNs * 100
		}
		switch {
		case countRegressed(row.OldAllocs, row.NewAllocs):
			row.Reason = fmt.Sprintf("allocs/op %.0f -> %.0f", row.OldAllocs, row.NewAllocs)
		case countRegressed(row.OldBytes, row.NewBytes):
			row.Reason = fmt.Sprintf("B/op %.0f -> %.0f", row.OldBytes, row.NewBytes)
		case row.DeltaPct > tolerancePct && row.OldNs >= nsGateFloorNs && !row.ProcsDiffer:
			row.Reason = fmt.Sprintf("ns/op +%.1f%% exceeds +%.1f%% tolerance", row.DeltaPct, tolerancePct)
		}
		rows = append(rows, row)
	}
	for _, nb := range head.Benchmarks {
		if !matched[key(nb)] {
			added = append(added, nb.Name)
		}
	}
	return rows, added
}

// countRegressed applies the allocs/op and B/op gates. A zero baseline
// is an exact property — the first heap allocation sneaking back into a
// hot loop fails, no tolerance. A baseline that already allocates gets
// 1% slack: large per-op counts flap a little run-to-run (b.N-dependent
// amortization of map growth and pool warmup), while any real new
// allocation in an inner loop moves the count by whole multiples of the
// op's iteration depth.
func countRegressed(base, head float64) bool {
	if head <= base {
		return false
	}
	return base == 0 || (head-base)/base > 0.01
}

// CollapseBest folds repeated runs of the same benchmark (a -count=N
// suite) into one entry per benchmark, keeping each metric's minimum.
// Best-of-N is the standard noise reducer for regression gating: the
// fastest run is the one least disturbed by the host, and allocs/op
// flapping from amortized growth collapses to its steady floor.
// Entries keep first-appearance order; Iterations is the largest b.N.
func CollapseBest(rep *Report) *Report {
	out := &Report{Goos: rep.Goos, Goarch: rep.Goarch, Pkg: rep.Pkg, CPU: rep.CPU}
	index := map[string]int{}
	for _, b := range rep.Benchmarks {
		k := fmt.Sprintf("%s-%d", b.Name, b.Procs)
		i, ok := index[k]
		if !ok {
			index[k] = len(out.Benchmarks)
			cp := b
			cp.Metrics = make(map[string]float64, len(b.Metrics))
			for u, v := range b.Metrics {
				cp.Metrics[u] = v
			}
			out.Benchmarks = append(out.Benchmarks, cp)
			continue
		}
		best := &out.Benchmarks[i]
		if b.Iterations > best.Iterations {
			best.Iterations = b.Iterations
		}
		for u, v := range b.Metrics {
			if prev, ok := best.Metrics[u]; !ok || v < prev {
				best.Metrics[u] = v
			}
		}
	}
	return out
}

// runDiff is the -diff entry point: load both reports, compare best-of-N
// per side, print the table, and report whether any row regressed.
func runDiff(oldPath, newPath string, tolerancePct float64, w io.Writer) (regressed bool, err error) {
	base, err := readReport(oldPath)
	if err != nil {
		return false, err
	}
	head, err := readReport(newPath)
	if err != nil {
		return false, err
	}
	rows, added := Diff(CollapseBest(base), CollapseBest(head), tolerancePct)
	fmt.Fprintf(w, "%-28s %14s %14s %8s %13s %21s  %s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "allocs/op", "B/op", "verdict")
	n := 0
	for _, r := range rows {
		verdict := "ok"
		switch {
		case r.Reason != "":
			verdict = "REGRESSION: " + r.Reason
			n++
		case r.ProcsDiffer:
			verdict = "ok (procs differ: ns/op not gated)"
		case r.DeltaPct > tolerancePct && r.OldNs < nsGateFloorNs:
			verdict = "ok (sub-µs bench, ns/op not gated)"
		}
		fmt.Fprintf(w, "%-28s %14.1f %14.1f %+7.1f%% %6.0f -> %-4.0f %9.0f -> %-9.0f %s\n",
			r.Name, r.OldNs, r.NewNs, r.DeltaPct, r.OldAllocs, r.NewAllocs, r.OldBytes, r.NewBytes, verdict)
	}
	for _, name := range added {
		fmt.Fprintf(w, "%-28s (new benchmark, not in baseline — not gated)\n", name)
	}
	if n > 0 {
		fmt.Fprintf(w, "benchjson: %d of %d benchmark(s) regressed vs %s (tolerance +%.1f%% ns/op at >=1µs/op; allocs/op and B/op exact at a zero baseline)\n",
			n, len(rows), oldPath, tolerancePct)
		return true, nil
	}
	fmt.Fprintf(w, "benchjson: %d benchmark(s) within tolerance of %s\n", len(rows), oldPath)
	return false, nil
}

// readReport loads a benchjson-produced JSON report.
func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in report", path)
	}
	return rep, nil
}
