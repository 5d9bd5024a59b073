// Command benchjson converts `go test -bench` text output into a stable
// JSON document, so benchmark runs can be committed (results/bench.json),
// diffed, and consumed by tooling without re-parsing the bench text
// format everywhere.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | benchjson > results/bench.json
//	benchjson -in bench.txt -out results/bench.json
//	benchjson -diff -tolerance 15 results/bench-baseline.json new.json
//	benchjson -ab base.txt head.txt
//
// The output is deterministic for a given input: benchmarks appear in
// input order and metric keys are sorted by encoding/json.
//
// -diff compares two converted reports (`make bench-diff` is the CI
// entry point): it exits 1 when any baseline benchmark got more than
// -tolerance percent slower in ns/op (gated only at baselines of 1µs/op
// and up — sub-µs micro-benches drown in timer jitter and are gated on
// allocations alone), regressed in allocs/op or B/op (exactly at a zero
// baseline, beyond 1% otherwise), or disappeared.
// Benchmarks only present in the new report are listed but never gated. Both sides are collapsed best-of-N first, so
// feeding it `-count=N` suites damps scheduler noise; -best applies the
// same collapse when converting (used for the committed baseline).
//
// -ab reads two bench text files that hold the runs of a base and a head
// build, alternated in pairs (`make bench-ab` writes them), and prints
// each benchmark's ns/op median and quartiles on both sides and in how
// many pairs the head was faster. It only reports: it exits 0 whatever
// the numbers say.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the benchmark's name without the "Benchmark" prefix and
	// the -P GOMAXPROCS suffix.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix (1 when absent).
	Procs int `json:"procs"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit -> value for every "value unit" pair on the
	// line: ns/op, B/op, allocs/op, and any b.ReportMetric custom units.
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the whole converted run.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// benchLine matches "BenchmarkName-8   123   456 ns/op   7 B/op ...".
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-(\d+))?\s+(\d+)\s+(.+)$`)

func main() {
	inPath := flag.String("in", "", "read bench text from this file instead of stdin")
	outPath := flag.String("out", "", "write JSON to this file instead of stdout")
	diff := flag.Bool("diff", false, "compare two JSON reports: benchjson -diff [-tolerance pct] old.json new.json")
	tolerance := flag.Float64("tolerance", 15, "allowed ns/op growth in percent for -diff, applied at baselines >= 1µs/op (allocs/op and B/op gate exactly at a zero baseline, 1% otherwise)")
	ab := flag.Bool("ab", false, "pair the runs of two bench text files: benchjson -ab base.txt head.txt")
	best := flag.Bool("best", false, "collapse repeated runs (-count=N bench output) into one entry per benchmark, keeping each metric's minimum")
	flag.Parse()

	if *ab {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -ab needs exactly two bench text paths (base.txt head.txt)")
			os.Exit(2)
		}
		if err := runAB(flag.Arg(0), flag.Arg(1), os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff needs exactly two report paths (old.json new.json)")
			os.Exit(2)
		}
		if *tolerance < 0 {
			fmt.Fprintf(os.Stderr, "benchjson: -tolerance must be >= 0 (got %g)\n", *tolerance)
			os.Exit(2)
		}
		regressed, err := runDiff(flag.Arg(0), flag.Arg(1), *tolerance, os.Stdout)
		if err != nil {
			log.Fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	in := io.Reader(os.Stdin)
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	rep, err := Parse(in)
	if err != nil {
		log.Fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		log.Fatal("benchjson: no benchmark lines in input")
	}
	if *best {
		rep = CollapseBest(rep)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	out = append(out, '\n')
	if *outPath != "" {
		if err := os.WriteFile(*outPath, out, 0o644); err != nil {
			log.Fatal(err)
		}
		return
	}
	os.Stdout.Write(out)
}

// Parse reads `go test -bench` output and collects the header fields and
// every benchmark result line. Unrecognised lines (PASS, ok, coverage)
// are ignored.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if k, v, ok := strings.Cut(line, ": "); ok && !strings.HasPrefix(line, "Benchmark") {
			switch k {
			case "goos":
				rep.Goos = v
			case "goarch":
				rep.Goarch = v
			case "pkg":
				rep.Pkg = v
			case "cpu":
				rep.CPU = v
			}
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		b := Benchmark{Name: m[1], Procs: 1, Metrics: map[string]float64{}}
		if m[2] != "" {
			p, err := strconv.Atoi(m[2])
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad procs suffix in %q", line)
			}
			b.Procs = p
		}
		n, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad iteration count in %q", line)
		}
		b.Iterations = n
		fields := strings.Fields(m[4])
		if len(fields)%2 != 0 {
			return nil, fmt.Errorf("benchjson: odd value/unit fields in %q", line)
		}
		for i := 0; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad metric value %q in %q", fields[i], line)
			}
			b.Metrics[fields[i+1]] = v
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}
