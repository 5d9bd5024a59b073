package policy

import "strconv"

// descKind selects the body text of a Desc.
type descKind uint8

// Desc bodies. Kinds carrying a number render it where the %d / %.2f
// sits in the comment.
const (
	descNone             descKind = iota // ""
	descStable                           // stable
	descHold                             // hold
	descIPCOnly                          // ipc-only: ignored
	descCoreDemandOff                    // core-demand (tenant adjust disabled)
	descCase2Grow                        // case2: +1 way for clos %d
	descCase2None                        // case2: no action
	descShuffled                         // case3: shuffled
	descDDIOOff                          // (ddio adjust disabled)
	descDDIOMax                          // ddio=%d (max, ->HighKeep)
	descDDIO                             // ddio=%d
	descTenantOff                        // (tenant adjust disabled)
	descGrowCLOS                         // +1 way clos %d
	descNoGrow                           // no grow candidate
	descShrinkCLOS                       // -1 way clos %d
	descNothing                          // nothing to reclaim
	descStatic                           // static: ddio=%d
	descIOCAHot                          // ioca: contended (miss ratio %.2f) ddio=%d
	descIOCACold                         // ioca: quiet (miss ratio %.2f) ddio=%d
	descGreedyDDIO                       // greedy: ddio=%d
	descGreedyDDIOFull                   // greedy: ddio saturated
	descGreedyGrow                       // greedy: +1 way clos %d
	descGreedyTenantFull                 // greedy: tenants saturated
	descRepack                           // repacked below ddio
	descNoIdleWay                        // no idle way
)

// descText holds the fixed text of each kind: the whole body for kinds
// without a number, the part before the number otherwise.
var descText = [...]string{
	descNone:             "",
	descStable:           "stable",
	descHold:             "hold",
	descIPCOnly:          "ipc-only: ignored",
	descCoreDemandOff:    "core-demand (tenant adjust disabled)",
	descCase2Grow:        "case2: +1 way for clos ",
	descCase2None:        "case2: no action",
	descShuffled:         "case3: shuffled",
	descDDIOOff:          "(ddio adjust disabled)",
	descDDIOMax:          "ddio=",
	descDDIO:             "ddio=",
	descTenantOff:        "(tenant adjust disabled)",
	descGrowCLOS:         "+1 way clos ",
	descNoGrow:           "no grow candidate",
	descShrinkCLOS:       "-1 way clos ",
	descNothing:          "nothing to reclaim",
	descStatic:           "static: ddio=",
	descIOCAHot:          "ioca: contended (miss ratio ",
	descIOCACold:         "ioca: quiet (miss ratio ",
	descGreedyDDIO:       "greedy: ddio=",
	descGreedyDDIOFull:   "greedy: ddio saturated",
	descGreedyGrow:       "greedy: +1 way clos ",
	descGreedyTenantFull: "greedy: tenants saturated",
	descRepack:           "repacked below ddio",
	descNoIdleWay:        "no idle way",
}

// Desc is a decision's human-readable description (the daemon's emitted
// action string) held as a fixed-size record: deciding fills it in
// without formatting anything, and String renders the text only when
// a trace or telemetry sink reads it.
type Desc struct {
	kind descKind
	// n is the way count or CLOS id the body names.
	n int
	// ratio is IOCAStyle's DDIO miss ratio.
	ratio float64
	// from/to, when fsm is set, prefix the body with "From->To ".
	from, to State
	fsm      bool
	// cont prefixes "continue: " (a directional state's progression).
	cont bool
	// lowKeep appends " ->LowKeep" (a reclaim that reached the minimum).
	lowKeep bool
}

// desc returns a Desc of kind k naming n.
func desc(k descKind, n int) Desc { return Desc{kind: k, n: n} }

// String renders the description.
func (d Desc) String() string {
	var buf [96]byte
	return string(d.appendTo(buf[:0]))
}

// appendTo appends the rendered description to b.
func (d Desc) appendTo(b []byte) []byte {
	if d.cont {
		b = append(b, "continue: "...)
	}
	if d.fsm {
		b = append(b, d.from.String()...)
		b = append(b, "->"...)
		b = append(b, d.to.String()...)
		b = append(b, ' ')
	}
	b = append(b, descText[d.kind]...)
	switch d.kind {
	case descCase2Grow, descDDIO, descGrowCLOS, descShrinkCLOS, descStatic, descGreedyDDIO, descGreedyGrow:
		b = strconv.AppendInt(b, int64(d.n), 10)
	case descDDIOMax:
		b = strconv.AppendInt(b, int64(d.n), 10)
		b = append(b, " (max, ->HighKeep)"...)
	case descIOCAHot, descIOCACold:
		b = strconv.AppendFloat(b, d.ratio, 'f', 2, 64)
		b = append(b, ") ddio="...)
		b = strconv.AppendInt(b, int64(d.n), 10)
	}
	if d.lowKeep {
		b = append(b, " ->LowKeep"...)
	}
	return b
}
