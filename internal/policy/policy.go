// Package policy is the pluggable LLC-allocation decision engine. The
// daemon (internal/core) owns the mechanism — polling counters,
// sanity-screening samples, self-healing, packing and programming masks —
// and delegates *what to do* to a Policy: each iteration it hands the
// policy one sanity-screened Sample and executes the Actions the policy
// returns. The paper's IAT FSM is one Policy (the default); the paper's
// Core-only and I/O-iso comparison points (Baseline), Static, IOCAStyle
// (after IOCA, arXiv:2007.04552) and Greedy are alternative managers that
// run on identical deterministic inputs, either as the active policy or
// as shadows (see Evaluator) computing counterfactual decisions beside
// the active one.
//
// Policies are pure, deterministic state machines over the samples they
// Decide on: no wall clock, no global randomness, no goroutines — the same
// sample sequence always yields the same action sequence, which is what
// makes shadow evaluation and policy tournaments byte-reproducible.
package policy

import (
	"fmt"
	"strconv"
	"strings"

	"iatsim/internal/cache"
)

// Kind identifies a policy implementation.
//
//simlint:enum
type Kind int

// Policy kinds.
const (
	// KindIAT is the paper's Mealy-FSM daemon logic (the default).
	KindIAT Kind = iota
	// KindStatic holds a fixed DDIO way count and never moves tenants.
	KindStatic
	// KindIOCA is a miss-rate-threshold contention detector with
	// hysteresis, in the style of IOCA (arXiv:2007.04552).
	KindIOCA
	// KindGreedy always grants one way to the largest demander.
	KindGreedy
	// KindCoreOnly is the paper's Core-only comparison point: an
	// I/O-unaware dynamic tenant allocator (Sec. VI-B, footnote 4).
	KindCoreOnly
	// KindIOIso is the paper's I/O-iso comparison point: Core-only with
	// the DDIO ways excluded from every tenant mask.
	KindIOIso
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindIAT:
		return "iat"
	case KindStatic:
		return "static"
	case KindIOCA:
		return "ioca"
	case KindGreedy:
		return "greedy"
	case KindCoreOnly:
		return "core-only"
	case KindIOIso:
		return "io-iso"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Limits carries the active parameter set and isolation switches into a
// Sample. The daemon copies them from its Params/Options every tick, so a
// SetParams rollout propagates to the policy (and every shadow) on the
// next sample without any re-plumbing.
type Limits struct {
	// ThresholdStable is the relative per-event delta below which the
	// system is considered unchanged.
	ThresholdStable float64
	// ThresholdMissLowPerSec is the DDIO write-allocate rate above which
	// the I/O is considered to be pressing the LLC.
	ThresholdMissLowPerSec float64
	// DDIOWaysMin / DDIOWaysMax bound the DDIO way allocation.
	DDIOWaysMin int
	DDIOWaysMax int
	// UCPGrowth selects the utility-style 1-3 way increment instead of
	// one way per iteration.
	UCPGrowth bool

	// Isolation switches (core.Options): a policy must not request an
	// adjustment class that is disabled, and the daemon enforces it again
	// at execution time.
	DisableDDIOAdjust   bool
	DisableShuffle      bool
	DisableTenantAdjust bool
}

// GroupView is one allocation group's slice of a Sample, in daemon
// registration order: identity, current layout, and the interval rates.
type GroupView struct {
	CLOS       int
	IO         bool
	Stack      bool
	BestEffort bool
	Width      int
	Mask       cache.WayMask
	IPC        float64
	RefsPS     float64
	MissPS     float64
	MissRate   float64
}

// Sample is one sanity-screened interval observation, everything a policy
// may base a decision on. Groups appear in daemon registration order —
// tie-breaks on that order are part of the decision contract.
type Sample struct {
	NowNS float64
	// State is the FSM state as of the last committed decision (the
	// daemon owns the commit; see Actions.State).
	State    State
	NumWays  int
	DDIOWays int
	DDIOMask cache.WayMask
	Limits   Limits
	Groups   []GroupView

	DDIOHitPS   float64
	DDIOMissPS  float64
	TotalRefsPS float64
}

// keep copies s into *dst, reusing dst's Groups array. The daemon
// refills the array it hands to Decide on its next poll, so a policy
// that retains a sample must retain its own copy.
func keep(dst *Sample, s Sample) {
	groups := dst.Groups
	*dst = s
	if s.Groups != nil {
		dst.Groups = append(groups[:0], s.Groups...)
	}
}

// group returns the view for a CLOS id (nil when absent).
func (s *Sample) group(clos int) *GroupView {
	for i := range s.Groups {
		if s.Groups[i].CLOS == clos {
			return &s.Groups[i]
		}
	}
	return nil
}

// totalWidth sums the group widths.
func (s *Sample) totalWidth() int {
	t := 0
	for i := range s.Groups {
		t += s.Groups[i].Width
	}
	return t
}

// GroupRef names the one allocation group an action widens or narrows
// by a way. The zero GroupRef names none.
type GroupRef struct {
	CLOS int
	Set  bool
}

// Ref returns the GroupRef naming clos.
func Ref(clos int) GroupRef { return GroupRef{CLOS: clos, Set: true} }

// Actions is one decision: the next FSM state, a human-readable
// description (the daemon's emitted action string), and the re-allocation
// operations to execute. The daemon applies the operations, resolves
// TryShuffle, and commits State — the policy never mutates the machine.
type Actions struct {
	// State is the state to commit after executing this decision.
	State State
	// Desc describes the decision in the iteration trace.
	Desc Desc

	// Warmup marks a baseline-adoption tick: the daemon skips the
	// iteration count, the trace emit, and all operations.
	Warmup bool
	// Stable marks a no-change iteration (emitted as a stable trace row).
	Stable bool
	// Continue marks a progression tick of a directional state (I/O
	// Demand / Reclaim keep moving while counters are stable).
	Continue bool

	// DDIOWays is the target DDIO way count (equal to the sample's for
	// "no change"). The daemon programs the delta.
	DDIOWays int
	// Grow / Shrink name the group to widen / narrow by one way.
	Grow   GroupRef
	Shrink GroupRef

	// TryShuffle asks the daemon to re-run the layout (best-effort
	// re-ordering against DDIO). If the shuffle writes no register, the
	// daemon executes Fallback instead (the paper's case-3 fall-through).
	// Fallback points into the policy and is valid until its next Decide.
	TryShuffle bool
	Fallback   *Actions

	// Masks, when set, is the full tenant layout: one mask per sample
	// group, in the sample's group order. The daemon programs it as is
	// instead of re-running its own layout pass, and moves no DDIO ways
	// for such a decision. Grow / Shrink still name the groups it widens
	// or narrows, for shadow accounting. Masks points into the
	// policy and is valid until its next Decide.
	Masks []cache.WayMask
}

// Classify names the decision class of a — the agreement unit of shadow
// evaluation and the one classifier of a decision. prevDDIO is the DDIO
// way count the decision was made against.
func Classify(a Actions, prevDDIO int) string {
	switch {
	case a.Warmup:
		return "warmup"
	case a.Stable:
		return "stable"
	case a.TryShuffle:
		return "shuffle"
	case a.DDIOWays > prevDDIO:
		return "grow-ddio"
	case a.DDIOWays < prevDDIO:
		return "shrink-ddio"
	case a.Grow.Set:
		return "grow-tenant"
	case a.Shrink.Set:
		return "shrink-tenant"
	}
	return "hold"
}

// Policy is one LLC-allocation decision engine. The daemon calls Decide
// once per accepted iteration; Reset clears all internal baselines (tenant
// change, degradation, or policy switch — old deltas are meaningless
// afterward).
type Policy interface {
	// Name identifies the instance (e.g. "iat", "static:2") — used as
	// the telemetry scope and in tournament rows.
	Name() string
	// Reset drops all internal state (comparison baselines, hysteresis
	// counters). The next Decide after a Reset is free to warm up.
	Reset()
	// Decide returns the decision for sample s. The policy must copy
	// whatever of s it keeps (see keep): the daemon refills s.Groups on
	// its next poll.
	Decide(s Sample) Actions
	// AppendSnapshot appends the policy's serialised internal state
	// (baselines, hysteresis streaks) to dst, for checkpointing.
	// Deterministic: identical state yields identical bytes.
	AppendSnapshot(dst []byte) ([]byte, error)
	// Restore rewinds the policy to a snapshot taken from an instance
	// with the same Name. A failed restore leaves the policy unchanged
	// and returns a typed error — never panics.
	Restore(data []byte) error
}

// Spec is a parsed policy specification — the flag/rollout-level
// description from which per-daemon Policy instances are built (policies
// are stateful, so every daemon needs its own instance via New).
type Spec struct {
	Kind Kind
	// StaticWays is the fixed DDIO way count of a KindStatic spec.
	StaticWays int
}

// String renders the spec in ParseSpec syntax.
func (sp Spec) String() string {
	if sp.Kind == KindStatic {
		return fmt.Sprintf("static:%d", sp.StaticWays)
	}
	return sp.Kind.String()
}

// New builds a fresh policy instance for the spec.
func (sp Spec) New() Policy {
	switch sp.Kind {
	case KindStatic:
		return NewStatic(sp.StaticWays)
	case KindIOCA:
		return NewIOCAStyle()
	case KindGreedy:
		return NewGreedy()
	case KindCoreOnly:
		return NewCoreOnly()
	case KindIOIso:
		return NewIOIso()
	default:
		return NewIAT()
	}
}

// SpecNames lists the valid -policy flag syntaxes.
func SpecNames() []string {
	return []string{"iat", "static[:WAYS]", "ioca", "greedy", "core-only", "io-iso"}
}

// ParseSpec parses a -policy flag value: "iat", "static" (2 ways),
// "static:N", "ioca", "greedy", "core-only" or "io-iso".
func ParseSpec(text string) (Spec, error) {
	switch {
	case text == "iat":
		return Spec{Kind: KindIAT}, nil
	case text == "static":
		return Spec{Kind: KindStatic, StaticWays: DefaultStaticWays}, nil
	case strings.HasPrefix(text, "static:"):
		n, err := strconv.Atoi(strings.TrimPrefix(text, "static:"))
		if err != nil || n < 1 || n > 32 {
			return Spec{}, fmt.Errorf("policy: bad static way count in %q (want static:N, 1 <= N <= 32)", text)
		}
		return Spec{Kind: KindStatic, StaticWays: n}, nil
	case text == "ioca":
		return Spec{Kind: KindIOCA}, nil
	case text == "greedy":
		return Spec{Kind: KindGreedy}, nil
	case text == "core-only":
		return Spec{Kind: KindCoreOnly}, nil
	case text == "io-iso":
		return Spec{Kind: KindIOIso}, nil
	}
	return Spec{}, fmt.Errorf("policy: unknown policy %q (valid: %s)", text, strings.Join(SpecNames(), ", "))
}

// ParseShadowSpecs parses a -shadow flag value: a comma-separated list of
// ParseSpec syntaxes ("" parses to none). Duplicate names are rejected —
// shadow telemetry and CSV rows are keyed by policy name.
func ParseShadowSpecs(text string) ([]Spec, error) {
	if strings.TrimSpace(text) == "" {
		return nil, nil
	}
	var specs []Spec
	seen := map[string]bool{}
	for _, part := range strings.Split(text, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		sp, err := ParseSpec(part)
		if err != nil {
			return nil, err
		}
		if seen[sp.String()] {
			return nil, fmt.Errorf("policy: duplicate shadow %q", sp.String())
		}
		seen[sp.String()] = true
		specs = append(specs, sp)
	}
	return specs, nil
}
