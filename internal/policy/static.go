package policy

import "fmt"

// DefaultStaticWays is the DDIO way count of a bare "static" spec — the
// hardware default of two DDIO ways the paper's motivation experiments
// run against.
const DefaultStaticWays = 2

// Static is the no-op baseline manager: it pins DDIO to a fixed way count
// (clamped into the configured bounds) and never moves tenant
// allocations. Against it, every adaptive policy's wins and losses are
// measured — it is also what a fleet effectively runs before any I/O-aware
// daemon is deployed.
type Static struct {
	ways int
	name string
	snap staticState // AppendSnapshot's scratch form
}

// NewStatic returns a fixed-allocation policy holding ways DDIO ways.
func NewStatic(ways int) *Static {
	if ways < 1 {
		ways = DefaultStaticWays
	}
	return &Static{ways: ways, name: fmt.Sprintf("static:%d", ways)}
}

// Name implements Policy.
func (p *Static) Name() string { return p.name }

// Reset implements Policy (stateless beyond the target).
func (p *Static) Reset() {}

// Decide implements Policy: converge to the fixed target, then hold.
func (p *Static) Decide(s Sample) Actions {
	target := p.ways
	if target < s.Limits.DDIOWaysMin {
		target = s.Limits.DDIOWaysMin
	}
	if target > s.Limits.DDIOWaysMax {
		target = s.Limits.DDIOWaysMax
	}
	if !s.Limits.DisableDDIOAdjust && target != s.DDIOWays {
		return Actions{State: LowKeep, DDIOWays: target, Desc: desc(descStatic, target)}
	}
	return Actions{Stable: true, State: LowKeep, DDIOWays: s.DDIOWays, Desc: desc(descStable, 0)}
}
