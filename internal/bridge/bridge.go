// Package bridge connects the IAT daemon (internal/core) to the simulated
// platform (internal/sim): it implements core.System over the platform's
// RDT controller and tenant registry, exactly the role the pqos library +
// msr kernel module + tenant file play in the paper's real deployment.
package bridge

import (
	"iatsim/internal/cache"
	"iatsim/internal/core"
	"iatsim/internal/rdt"
	"iatsim/internal/sim"
)

// System adapts a sim.Platform to core.System.
type System struct {
	p *sim.Platform
}

var _ core.System = (*System)(nil)

// NewSystem wraps p.
func NewSystem(p *sim.Platform) *System { return &System{p: p} }

// Tenants implements core.System.
func (s *System) Tenants() []core.TenantInfo {
	ts := s.p.Tenants()
	out := make([]core.TenantInfo, 0, len(ts))
	for _, t := range ts {
		out = append(out, core.TenantInfo{
			Name:     t.Name,
			Cores:    append([]int(nil), t.Cores...),
			CLOS:     t.CLOS,
			IO:       t.IsIO,
			Priority: priority(t.Priority),
		})
	}
	return out
}

func priority(p sim.Priority) core.Priority {
	switch p {
	case sim.PerformanceCritical:
		return core.PC
	case sim.Stack:
		return core.Stack
	default:
		return core.BE
	}
}

// NumWays implements core.System.
func (s *System) NumWays() int { return s.p.RDT.NumWays() }

// ReadCore implements core.System.
func (s *System) ReadCore(c int) rdt.CoreCounters { return s.p.RDT.ReadCore(c) }

// ReadDDIO implements core.System.
func (s *System) ReadDDIO() rdt.DDIOCounters { return s.p.RDT.ReadDDIO() }

// CLOSMask implements core.System.
func (s *System) CLOSMask(clos int) cache.WayMask { return s.p.RDT.CLOSMask(clos) }

// SetCLOSMask implements core.System.
func (s *System) SetCLOSMask(clos int, m cache.WayMask) error { return s.p.RDT.SetCLOSMask(clos, m) }

// DDIOMask implements core.System.
func (s *System) DDIOMask() cache.WayMask { return s.p.RDT.DDIOMask() }

// SetDDIOMask implements core.System.
func (s *System) SetDDIOMask(m cache.WayMask) error { return s.p.RDT.SetDDIOMask(m) }

// ScaledParams is Table II at a control interval of intervalNS (Table
// II's 1 s when intervalNS is not positive) on a platform compressed by
// scale. The miss-rate threshold and the sanity screen's rate ceiling
// are defined against real time, and the platform's scale shrinks every
// event rate by the same factor, so both are divided by it.
func ScaledParams(scale, intervalNS float64) core.Params {
	p := core.DefaultParams()
	if intervalNS > 0 {
		p.IntervalNS = intervalNS
	}
	p.ThresholdMissLowPerSec /= scale
	p.SaneRateMax /= scale
	return p
}

// NewIAT builds an IAT daemon bound to the platform and registers it as a
// platform controller. It returns the daemon for tracing and inspection.
func NewIAT(p *sim.Platform, params core.Params, opts core.Options) (*core.Daemon, error) {
	d, err := core.NewDaemon(NewSystem(p), params, opts)
	if err != nil {
		return nil, err
	}
	p.AddController(d)
	return d, nil
}
