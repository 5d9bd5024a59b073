package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{4, 1, 3, 2}, 1.75, 2.5, 3.25},
		{[]float64{5, 1, 4, 2, 3}, 2, 3, 4},
	} {
		q1, med, q3 := Quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %g, %g, %g; want %g, %g, %g", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

// TestAB pairs runs by their order on each side, matches names with the
// GOMAXPROCS suffix, and lists the benchmarks one side lacks.
func TestAB(t *testing.T) {
	base := `BenchmarkA-2 10 100 ns/op
BenchmarkOld-2 10 5 ns/op
BenchmarkA-2 10 120 ns/op
BenchmarkA-2 10 90 ns/op
`
	head := `BenchmarkA-2 10 110 ns/op
BenchmarkA-2 10 100 ns/op
BenchmarkNew-2 10 7 ns/op
BenchmarkA-2 10 80 ns/op
`
	dir := t.TempDir()
	bp, hp := filepath.Join(dir, "base.txt"), filepath.Join(dir, "head.txt")
	if err := os.WriteFile(bp, []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(hp, []byte(head), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runAB(bp, hp, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("want a header, one row and two unmatched names:\n%s", out.String())
	}
	// Pairs: 100/110 lost, 120/100 won, 90/80 won.
	if f := strings.Fields(lines[1]); f[0] != "A-2" || f[1] != "100" || f[4] != "100" || f[7] != "1.000" || f[8] != "2/3" {
		t.Errorf("row = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "Old-2 (base only)") || !strings.HasPrefix(lines[3], "New-2 (head only)") {
		t.Errorf("unmatched = %q, %q", lines[2], lines[3])
	}
	if err := runAB(bp, filepath.Join(dir, "none.txt"), &out); err == nil {
		t.Error("a missing file must fail")
	}
}
