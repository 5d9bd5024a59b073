// Command rfc2544 runs a standalone RFC 2544 zero-drop throughput search
// for single-core DPDK l3fwd on the simulated platform — the tool behind
// the paper's Fig. 3.
//
// Usage:
//
//	rfc2544 -ring 512 -size 64 -flows 1048576
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"iatsim/internal/cli"
	"iatsim/internal/exp"
	"iatsim/internal/nic"
)

// The upper bounds keep a run within the host's memory and the simulated
// address space. maxRing: every entry costs host memory (its descriptor
// slot and two pool buffers), and real NIC rings stop at 4096 entries.
// maxFlows: the flow table takes one 64 B line per flow, 4 GiB at the
// bound, far below cache.MaxAddr.
const (
	maxRing  = 1 << 16
	maxFlows = 1 << 26
)

func main() {
	os.Exit(cli.Exit("rfc2544", os.Stderr, run(os.Args[1:], os.Stdout, os.Stderr)))
}

// parseFlags parses and validates the command line into the search's
// options, one ring size and one packet size; a syntax error and the
// usage go to stderr. It runs no simulation.
func parseFlags(args []string, stderr io.Writer) (exp.Fig3Opts, error) {
	fs := flag.NewFlagSet("rfc2544", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ring := fs.Int("ring", 1024, "Rx ring entries")
	size := fs.Int("size", 64, "packet size in bytes")
	flows := fs.Int("flows", 1<<20, "distinct flows in the traffic / flow table")
	scale := fs.Float64("scale", 100, "simulation scale factor")
	warm := fs.Float64("warm", 0, "warmup per trial in simulated seconds (0 = default sweep setting)")
	measure := fs.Float64("measure", 0, "measurement per trial in simulated seconds (0 = default sweep setting)")
	if err := cli.Parse(fs, args); err != nil {
		return exp.Fig3Opts{}, err
	}
	switch {
	case *ring < 1 || *ring > maxRing:
		return exp.Fig3Opts{}, cli.Usagef("-ring must be in [1, %d] (got %d)", maxRing, *ring)
	case *size < 64 || *size > nic.BufSize:
		return exp.Fig3Opts{}, cli.Usagef("-size must be in [64, %d] bytes (got %d)", nic.BufSize, *size)
	case *flows < 1 || *flows > maxFlows:
		return exp.Fig3Opts{}, cli.Usagef("-flows must be in [1, %d] (got %d)", maxFlows, *flows)
	case !cli.PositiveFinite(*scale, 1):
		return exp.Fig3Opts{}, cli.Usagef("-scale must be positive and finite (got %g)", *scale)
	case !(*warm >= 0) || math.IsInf(*warm, 1):
		return exp.Fig3Opts{}, cli.Usagef("-warm must be >= 0 and finite (got %g)", *warm)
	case !(*measure >= 0) || math.IsInf(*measure, 1):
		return exp.Fig3Opts{}, cli.Usagef("-measure must be >= 0 and finite (got %g)", *measure)
	}

	o := exp.DefaultFig3Opts()
	o.Scale = *scale
	o.Flows = *flows
	o.Rings = []int{*ring}
	o.Sizes = []int{*size}
	if *warm > 0 {
		o.WarmNS = *warm * 1e9
	}
	if *measure > 0 {
		o.MeasureNS = *measure * 1e9
	}
	return o, nil
}

// run is the testable body of the CLI: one deterministic RFC 2544 search
// for the given ring/packet-size/flow-count point.
func run(args []string, stdout, stderr io.Writer) error {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	rows := exp.RunFig3(nil, o)
	if len(rows) == 0 {
		return fmt.Errorf("the search for a %dB packet, %d-entry ring returned no result", o.Sizes[0], o.Rings[0])
	}
	r := rows[0]
	fmt.Fprintf(stdout, "l3fwd, %dB packets, %d-entry ring, %d flows:\n", r.PktSize, r.RingSize, o.Flows)
	fmt.Fprintf(stdout, "  max zero-drop rate: %.2f Mpps (line rate %.2f Mpps, %d trials)\n",
		r.MaxMpps, r.LineRateMpps, r.Trials)
	return nil
}
