// Command rfc2544 runs a standalone RFC 2544 zero-drop throughput search
// for single-core DPDK l3fwd on the simulated platform — the tool behind
// the paper's Fig. 3.
//
// Usage:
//
//	rfc2544 -ring 512 -size 64 -flows 1048576
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"

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

// usageError marks a bad invocation (a flag syntax error or an invalid
// value): main reports it on one line and exits 2, like flag.ErrHelp,
// instead of the exit-1 runtime-failure path.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		var ue usageError
		if errors.As(err, &ue) {
			fmt.Fprintf(os.Stderr, "rfc2544: %v\n", err)
			os.Exit(2)
		}
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// parseFlags parses and validates the command line into the search's
// options, one ring size and one packet size. It runs no simulation.
func parseFlags(args []string) (exp.Fig3Opts, error) {
	fs := flag.NewFlagSet("rfc2544", flag.ContinueOnError)
	ring := fs.Int("ring", 1024, "Rx ring entries")
	size := fs.Int("size", 64, "packet size in bytes")
	flows := fs.Int("flows", 1<<20, "distinct flows in the traffic / flow table")
	scale := fs.Float64("scale", 100, "simulation scale factor")
	warm := fs.Float64("warm", 0, "warmup per trial in simulated seconds (0 = default sweep setting)")
	measure := fs.Float64("measure", 0, "measurement per trial in simulated seconds (0 = default sweep setting)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return exp.Fig3Opts{}, err
		}
		return exp.Fig3Opts{}, usageError{err.Error()}
	}
	switch {
	case *ring < 1 || *ring > maxRing:
		return exp.Fig3Opts{}, usageError{fmt.Sprintf("-ring must be in [1, %d] (got %d)", maxRing, *ring)}
	case *size < 64 || *size > nic.BufSize:
		return exp.Fig3Opts{}, usageError{fmt.Sprintf("-size must be in [64, %d] bytes (got %d)", nic.BufSize, *size)}
	case *flows < 1 || *flows > maxFlows:
		return exp.Fig3Opts{}, usageError{fmt.Sprintf("-flows must be in [1, %d] (got %d)", maxFlows, *flows)}
	case !(*scale > 0) || math.IsInf(*scale, 1):
		return exp.Fig3Opts{}, usageError{fmt.Sprintf("-scale must be positive and finite (got %g)", *scale)}
	case !(*warm >= 0) || math.IsInf(*warm, 1):
		return exp.Fig3Opts{}, usageError{fmt.Sprintf("-warm must be >= 0 and finite (got %g)", *warm)}
	case !(*measure >= 0) || math.IsInf(*measure, 1):
		return exp.Fig3Opts{}, usageError{fmt.Sprintf("-measure must be >= 0 and finite (got %g)", *measure)}
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
func run(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	rows := exp.RunFig3(nil, o)
	if len(rows) == 0 {
		return fmt.Errorf("rfc2544: the search for a %dB packet, %d-entry ring returned no result", o.Sizes[0], o.Rings[0])
	}
	r := rows[0]
	fmt.Fprintf(stdout, "l3fwd, %dB packets, %d-entry ring, %d flows:\n", r.PktSize, r.RingSize, o.Flows)
	fmt.Fprintf(stdout, "  max zero-drop rate: %.2f Mpps (line rate %.2f Mpps, %d trials)\n",
		r.MaxMpps, r.LineRateMpps, r.Trials)
	return nil
}
