// Package faults is the deterministic fault-injection layer of the chaos
// harness: a seeded Injector that perturbs the MSR register file (write
// rejections, sticky bits), the uncore counter reads (zeroed, saturated,
// wrapped, and stale samples), the NIC datapath (descriptor drops, transmit
// stalls), and the management-plane polling cadence (skipped epochs).
//
// The production systems the paper targets see all of these: wrmsr can fail
// transiently under SMM interference, uncore counters glitch and wrap, and
// the daemon's 1s sleep is at the scheduler's mercy. The simulator is
// perfectly reliable, so robustness claims about the IAT daemon are vacuous
// unless the platform is made to misbehave on purpose — deterministically,
// so a failure found under `-chaos` reproduces byte-for-byte.
//
// Every decision comes from a private splitmix64 stream seeded per run (no
// wall clock, no global rand — the same determinism regime detlint enforces
// on every other internal package), and every injected fault is counted and
// optionally published through internal/telemetry.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the injectable fault classes.
//
//simlint:enum
type Kind int

// Fault kinds. The order is part of the profile-spec format (rates are
// stored per kind) but not of any on-disk format.
const (
	// MSRWriteReject fails a wrmsr outright: the register keeps its old
	// value and the caller sees an error (what a real EIO from the msr
	// driver looks like).
	MSRWriteReject Kind = iota
	// MSRSticky lets a wrmsr "succeed" while one set bit of the old
	// value refuses to clear — the silent partial-write failure mode
	// that only read-back verification can catch.
	MSRSticky
	// CounterZero serves a zero in place of a cumulative counter value.
	CounterZero
	// CounterSaturate serves an all-ones (2^CounterBits-1) value.
	CounterSaturate
	// CounterWrap pushes a counter to just below its modular boundary so
	// subsequent reads wrap through zero, exercising the 48-bit modular
	// delta arithmetic in internal/rdt.
	CounterWrap
	// CounterStale re-serves the previously read value (a latched or
	// delayed uncore read).
	CounterStale
	// NICDrop drops one inbound packet at the descriptor stage.
	NICDrop
	// NICStall makes one transmit-drain call do no work (a stalled DMA
	// engine for that microtick).
	NICStall
	// PollSkip suppresses one controller polling epoch (scheduling
	// jitter: the daemon's sleep overran the interval).
	PollSkip
	// HostCrash kills a host's control daemon: the host drops out of the
	// fleet for a seeded number of rounds, and all in-memory daemon state
	// is lost unless a checkpoint was taken.
	HostCrash
	// HostRestart bounces a host's control daemon in place: the process
	// dies and immediately comes back, resuming from its last checkpoint
	// (or cold-starting when none exists).
	HostRestart

	// NumKinds is the number of fault kinds.
	NumKinds int = iota
)

var kindNames = [NumKinds]string{
	"msr-reject", "msr-sticky",
	"counter-zero", "counter-saturate", "counter-wrap", "counter-stale",
	"nic-drop", "nic-stall", "poll-skip",
	"host-crash", "host-restart",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k >= 0 && int(k) < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Profile is a fault-rate vector: Rates[k] is the Bernoulli probability of
// injecting kind k at each opportunity (one wrmsr, one counter rdmsr, one
// packet arrival, one drain call, one polling epoch).
type Profile struct {
	Name  string
	Rates [NumKinds]float64
}

// Named profiles. "default" is the chaos experiment's acceptance profile:
// frequent enough that every fault kind fires in a short run, mild enough
// that a hardened daemon should keep (or recover) a valid allocation.
var namedProfiles = map[string]Profile{
	"off": {Name: "off"},
	"light": {Name: "light", Rates: [NumKinds]float64{
		MSRWriteReject: 0.02, MSRSticky: 0.01,
		CounterZero: 0.005, CounterSaturate: 0.005, CounterWrap: 0.002, CounterStale: 0.01,
		NICDrop: 0.0005, NICStall: 0.001, PollSkip: 0.02,
	}},
	"default": {Name: "default", Rates: [NumKinds]float64{
		MSRWriteReject: 0.05, MSRSticky: 0.02,
		CounterZero: 0.01, CounterSaturate: 0.01, CounterWrap: 0.005, CounterStale: 0.02,
		NICDrop: 0.002, NICStall: 0.005, PollSkip: 0.05,
	}},
	"heavy": {Name: "heavy", Rates: [NumKinds]float64{
		MSRWriteReject: 0.2, MSRSticky: 0.1,
		CounterZero: 0.05, CounterSaturate: 0.05, CounterWrap: 0.02, CounterStale: 0.08,
		NICDrop: 0.01, NICStall: 0.02, PollSkip: 0.15,
		HostCrash: 0.06, HostRestart: 0.12,
	}},
}

// ProfileNames returns the built-in profile names, sorted.
func ProfileNames() []string {
	names := make([]string, 0, len(namedProfiles))
	for n := range namedProfiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ProfileByName resolves a -chaos argument: a built-in profile name, or a
// custom "kind=rate,kind=rate" spec (kinds as printed by Kind.String,
// rates in [0,1]; unlisted kinds default to 0).
func ProfileByName(spec string) (Profile, error) {
	if p, ok := namedProfiles[spec]; ok {
		return p, nil
	}
	if !strings.Contains(spec, "=") {
		return Profile{}, fmt.Errorf("faults: unknown profile %q (valid: %s, or kind=rate,...)",
			spec, strings.Join(ProfileNames(), ", "))
	}
	p := Profile{Name: spec}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		kv := strings.SplitN(field, "=", 2)
		if len(kv) != 2 {
			return Profile{}, fmt.Errorf("faults: bad spec field %q (want kind=rate)", field)
		}
		k, err := kindByName(strings.TrimSpace(kv[0]))
		if err != nil {
			return Profile{}, err
		}
		rate, err := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
		if err != nil || rate < 0 || rate > 1 {
			return Profile{}, fmt.Errorf("faults: rate %q for %s out of [0,1]", kv[1], k)
		}
		p.Rates[k] = rate
	}
	return p, nil
}

func kindByName(name string) (Kind, error) {
	for k := 0; k < NumKinds; k++ {
		if kindNames[k] == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("faults: unknown fault kind %q (valid: %s)",
		name, strings.Join(kindNames[:], ", "))
}

// Scaled returns the profile with every rate multiplied by f (clamped to
// 1), for escalating-fault-rate sweeps. Scaling by 0 yields "off" behaviour
// under the original name.
func (p Profile) Scaled(f float64) Profile {
	out := Profile{Name: p.Name}
	if f != 1 {
		out.Name = fmt.Sprintf("%s*%g", p.Name, f)
	}
	for k := range p.Rates {
		r := p.Rates[k] * f
		if r > 1 {
			r = 1
		}
		out.Rates[k] = r
	}
	return out
}

// Active reports whether any fault kind has a non-zero rate.
func (p Profile) Active() bool {
	for _, r := range p.Rates {
		if r > 0 {
			return true
		}
	}
	return false
}
