package main

import (
	"fmt"
	"io"
	"os"
	"sort"
)

// ABRow is one benchmark's ns/op over alternating runs of a base and a
// head build: run k of each side forms pair k.
type ABRow struct {
	Name       string // name with the -P GOMAXPROCS suffix
	Base, Head []float64
}

// Quartiles returns the lower quartile, the median and the upper
// quartile of xs, interpolating linearly between order statistics.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// Wins returns in how many pairs the head ran faster than the base, and
// how many pairs there are (the shorter side's run count).
func (r ABRow) Wins() (wins, pairs int) {
	pairs = min(len(r.Base), len(r.Head))
	for k := 0; k < pairs; k++ {
		if r.Head[k] < r.Base[k] {
			wins++
		}
	}
	return wins, pairs
}

// AB pairs the runs of every benchmark that both reports hold, in the
// base report's order; each report is the concatenated output of the
// same number of one-count suites. only lists the names one side lacks.
func AB(base, head *Report) (rows []ABRow, only []string) {
	runs := func(rep *Report) (order []string, ns map[string][]float64) {
		ns = map[string][]float64{}
		for _, b := range rep.Benchmarks {
			k := fmt.Sprintf("%s-%d", b.Name, b.Procs)
			if _, ok := ns[k]; !ok {
				order = append(order, k)
			}
			ns[k] = append(ns[k], b.Metrics["ns/op"])
		}
		return order, ns
	}
	baseOrder, baseNs := runs(base)
	headOrder, headNs := runs(head)
	for _, k := range baseOrder {
		if h, ok := headNs[k]; ok {
			rows = append(rows, ABRow{Name: k, Base: baseNs[k], Head: h})
		} else {
			only = append(only, k+" (base only)")
		}
	}
	for _, k := range headOrder {
		if _, ok := baseNs[k]; !ok {
			only = append(only, k+" (head only)")
		}
	}
	return rows, only
}

// runAB is the -ab entry point: pair the runs of two bench text files
// and print each benchmark's median and quartiles on both sides, the
// ratio of the medians and the head's pair wins. It reports; it gates
// nothing.
func runAB(basePath, headPath string, w io.Writer) error {
	var reps [2]*Report
	for i, path := range []string{basePath, headPath} {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		reps[i], err = Parse(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	rows, only := AB(reps[0], reps[1])
	if len(rows) == 0 {
		return fmt.Errorf("benchjson: %s and %s share no benchmark", basePath, headPath)
	}
	fmt.Fprintf(w, "%-32s %-38s %-38s %9s %6s\n", "benchmark (ns/op)", "base median [q1, q3]", "head median [q1, q3]", "head/base", "wins")
	side := func(xs []float64) (string, float64) {
		q1, med, q3 := Quartiles(xs)
		return fmt.Sprintf("%.5g [%.5g, %.5g]", med, q1, q3), med
	}
	for _, r := range rows {
		b, bm := side(r.Base)
		h, hm := side(r.Head)
		wins, pairs := r.Wins()
		fmt.Fprintf(w, "%-32s %-38s %-38s %9.3f %3d/%d\n", r.Name, b, h, hm/bm, wins, pairs)
	}
	for _, name := range only {
		fmt.Fprintf(w, "%-32s not compared\n", name)
	}
	return nil
}
