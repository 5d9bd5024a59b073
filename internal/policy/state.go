package policy

import "fmt"

// State is the Mealy FSM state of the paper's Fig. 6. It lives in the
// policy package because the allocation policy owns the control FSM; the
// daemon (internal/core) commits and reports it. Policies other than IAT
// reuse the same vocabulary where it fits (LowKeep for "holding",
// IODemand for "granting I/O ways", CoreDemand for "granting a tenant
// way", Reclaim for "taking ways back") so mixed-policy fleets aggregate
// on one state column.
//
//simlint:enum
type State int

// FSM states.
const (
	// LowKeep: I/O traffic is not pressing the LLC; DDIO ways stay at
	// the minimum.
	LowKeep State = iota
	// IODemand: intensive I/O traffic; write allocates overflow the DDIO
	// ways — grow them.
	IODemand
	// CoreDemand: a memory-intensive I/O application's cores are
	// evicting the Rx buffers — grow the tenant's ways.
	CoreDemand
	// HighKeep: DDIO holds its maximum allocation; hold.
	HighKeep
	// Reclaim: I/O pressure receded with a mid-level allocation —
	// reclaim a way per iteration from DDIO or an over-provisioned
	// tenant.
	Reclaim
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case LowKeep:
		return "LowKeep"
	case IODemand:
		return "IODemand"
	case CoreDemand:
		return "CoreDemand"
	case HighKeep:
		return "HighKeep"
	case Reclaim:
		return "Reclaim"
	}
	return fmt.Sprintf("State(%d)", int(s))
}
