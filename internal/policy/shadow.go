package policy

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"iatsim/internal/cache"
	"iatsim/internal/jsonbuf"
	"iatsim/internal/telemetry"
)

// DefaultMaxRows bounds the per-tick divergence log of an Evaluator so an
// unbounded run cannot grow memory without limit; overflow rows are
// counted in Dropped() instead of silently lost.
const DefaultMaxRows = 100000

// DivergenceRow is one shadow's counterfactual decision on one tick,
// compared with the active policy's applied decision.
type DivergenceRow struct {
	TimeNS      float64
	Policy      string
	ActiveClass string // Classify() of the applied decision
	ShadowClass string // Classify() of the counterfactual decision
	Agree       bool   // same decision class
	ActiveDDIO  int    // DDIO ways after the applied decision
	ShadowDDIO  int    // DDIO ways in the shadow's counterfactual machine
	Hamming     int    // bit distance between applied and shadow DDIO masks
	ShadowDesc  Desc
}

// ShadowSummary aggregates one shadow policy over a run.
type ShadowSummary struct {
	Name              string
	Ticks             uint64
	Agreements        uint64
	WouldGrowDDIO     uint64
	WouldShrinkDDIO   uint64
	WouldGrowTenant   uint64
	WouldShrinkTenant uint64
	HammingTotal      uint64
	FinalDDIO         int
}

// AgreeRate is the decision-agreement fraction (1 when no ticks ran).
func (s ShadowSummary) AgreeRate() float64 {
	if s.Ticks == 0 {
		return 1
	}
	return float64(s.Agreements) / float64(s.Ticks)
}

// MeanHamming is the mean DDIO-mask bit distance per tick.
func (s ShadowSummary) MeanHamming() float64 {
	if s.Ticks == 0 {
		return 0
	}
	return float64(s.HammingTotal) / float64(s.Ticks)
}

// shadowState is one shadow policy plus its counterfactual machine: the
// allocation state the system WOULD hold had this policy been active from
// the first tick. Only bookkeeping — no register is ever programmed from
// here.
type shadowState struct {
	pol   Policy
	init  bool
	state State
	ddio  int
	// widths holds each group's counterfactual width, keyed by CLOS.
	widths jsonbuf.IntMap[int]
	// groups is rebase's reused view array (policies copy what they keep).
	groups []GroupView
	sum    ShadowSummary
}

// width returns the index of clos in sh.widths, or -1.
func (sh *shadowState) width(clos int) int {
	for i := range sh.widths {
		if sh.widths[i].Key == clos {
			return i
		}
	}
	return -1
}

// Evaluator runs N candidate policies side-by-side on the active daemon's
// sample stream. Each accepted sample is re-based into every shadow's
// counterfactual allocation state (its own DDIO way count, its own tenant
// widths, contiguously repacked masks), the shadow decides, the decision
// is committed to the counterfactual machine only, and the divergence
// from the applied decision is recorded — per-tick rows, running
// summaries, and policy/* telemetry counters. The evaluator is driven
// synchronously from the daemon's iteration, so it inherits the daemon's
// determinism: same seed, same shadows, same rows.
type Evaluator struct {
	// Tel, when set, receives policy/* counters and gauges per shadow
	// (scope = shadow policy name).
	Tel telemetry.Sink

	shadows []*shadowState
	rows    []DivergenceRow
	maxRows int
	dropped uint64
	snap    evaluatorState // AppendSnapshot's scratch form
}

// NewEvaluator builds an evaluator running one shadow per spec.
func NewEvaluator(specs []Spec) *Evaluator {
	e := &Evaluator{maxRows: DefaultMaxRows}
	for _, sp := range specs {
		sh := &shadowState{pol: sp.New()}
		sh.sum.Name = sh.pol.Name()
		e.shadows = append(e.shadows, sh)
	}
	return e
}

// Empty reports whether the evaluator has no shadows.
func (e *Evaluator) Empty() bool { return e == nil || len(e.shadows) == 0 }

// Reset forwards a daemon reset (tenant change, degradation) to every
// shadow: counterfactual layouts re-adopt the machine state on the next
// tick and the policies drop their baselines. Summaries and rows persist.
func (e *Evaluator) Reset() {
	for _, sh := range e.shadows {
		sh.init = false
		sh.pol.Reset()
	}
}

// Tick evaluates every shadow against sample s. active is the decision the
// daemon executed and appliedDDIO the DDIO mask programmed after it; both
// are only read, never re-applied.
func (e *Evaluator) Tick(s Sample, active Actions, appliedDDIO cache.WayMask) {
	activeClass := Classify(active, s.DDIOWays)
	for _, sh := range e.shadows {
		if !sh.init {
			// Adopt the machine's real allocation as the counterfactual
			// starting point.
			sh.state = s.State
			sh.ddio = s.DDIOWays
			sh.widths = sh.widths[:0]
			for i := range s.Groups {
				sh.widths = append(sh.widths, jsonbuf.IntEntry[int]{Key: s.Groups[i].CLOS, Val: s.Groups[i].Width})
			}
			sh.init = true
		}
		cs := e.rebase(s, sh)
		a := sh.pol.Decide(cs)
		e.commit(sh, cs, a)

		shadowClass := Classify(a, cs.DDIOWays)
		agree := shadowClass == activeClass
		shadowMask := cache.ContiguousMask(s.NumWays-sh.ddio, sh.ddio)
		hamming := bits.OnesCount32(uint32(appliedDDIO ^ shadowMask))

		sh.sum.Ticks++
		if agree {
			sh.sum.Agreements++
		}
		if a.DDIOWays > cs.DDIOWays {
			sh.sum.WouldGrowDDIO++
		}
		if a.DDIOWays < cs.DDIOWays {
			sh.sum.WouldShrinkDDIO++
		}
		if a.Grow.Set {
			sh.sum.WouldGrowTenant++
		}
		if a.Shrink.Set {
			sh.sum.WouldShrinkTenant++
		}
		sh.sum.HammingTotal += uint64(hamming)
		sh.sum.FinalDDIO = sh.ddio

		if e.Tel != nil {
			name := sh.pol.Name()
			e.Tel.Counter("policy", name, "shadow_ticks").Inc()
			if agree {
				e.Tel.Counter("policy", name, "shadow_agreements").Inc()
			}
			if a.DDIOWays > cs.DDIOWays {
				e.Tel.Counter("policy", name, "shadow_would_grow_ddio").Inc()
			}
			if a.DDIOWays < cs.DDIOWays {
				e.Tel.Counter("policy", name, "shadow_would_shrink_ddio").Inc()
			}
			if a.Grow.Set {
				e.Tel.Counter("policy", name, "shadow_would_grow_tenant").Inc()
			}
			if a.Shrink.Set {
				e.Tel.Counter("policy", name, "shadow_would_shrink_tenant").Inc()
			}
			e.Tel.Counter("policy", name, "shadow_hamming_total").Add(uint64(hamming))
			e.Tel.Gauge("policy", name, "shadow_ddio_ways").Set(float64(sh.ddio))
		}

		if len(e.rows) < e.maxRows {
			e.rows = append(e.rows, DivergenceRow{
				TimeNS:      s.NowNS,
				Policy:      sh.pol.Name(),
				ActiveClass: activeClass,
				ShadowClass: shadowClass,
				Agree:       agree,
				ActiveDDIO:  active.DDIOWays,
				ShadowDDIO:  sh.ddio,
				Hamming:     hamming,
				ShadowDesc:  a.Desc,
			})
		} else {
			e.dropped++
		}
	}
}

// rebase rewrites sample s into shadow sh's counterfactual allocation:
// the shadow's FSM state, DDIO ways/mask, and tenant widths with masks
// repacked contiguously bottom-up in registration order (an approximation
// of the daemon's priority packing — shadow masks only feed overlap
// checks and Hamming distances, no register).
func (e *Evaluator) rebase(s Sample, sh *shadowState) Sample {
	cs := s
	cs.State = sh.state
	cs.DDIOWays = sh.ddio
	cs.DDIOMask = cache.ContiguousMask(s.NumWays-sh.ddio, sh.ddio)
	if sh.groups == nil {
		// Non-nil even with no groups: the shadow's retained sample
		// encodes its groups as [], never null.
		sh.groups = make([]GroupView, 0, len(s.Groups))
	}
	sh.groups = append(sh.groups[:0], s.Groups...)
	cs.Groups = sh.groups
	lo := 0
	for i := range cs.Groups {
		g := &cs.Groups[i]
		k := sh.width(g.CLOS)
		if k < 0 {
			// A group registered after adoption (tenant add without the
			// daemon-level Reset firing first): take its machine width.
			k = len(sh.widths)
			sh.widths = append(sh.widths, jsonbuf.IntEntry[int]{Key: g.CLOS, Val: g.Width})
		}
		w := sh.widths[k].Val
		if w < 1 {
			w = 1
		}
		if lo+w > s.NumWays {
			w = s.NumWays - lo
			if w < 1 {
				w = 1
			}
		}
		g.Width = w
		g.Mask = cache.ContiguousMask(lo, w)
		lo += w
	}
	return cs
}

// commit applies decision a to the shadow's counterfactual machine,
// mirroring the daemon's execution semantics: a shuffle is assumed to
// succeed (its fallback never runs), grow/shrink are capacity-bounded,
// and the DDIO target is clamped to the physical way range.
func (e *Evaluator) commit(sh *shadowState, cs Sample, a Actions) {
	sh.state = a.State
	if a.Warmup || a.Stable || a.TryShuffle {
		return
	}
	L := cs.Limits
	if !L.DisableTenantAdjust {
		if a.Grow.Set {
			if k := sh.width(a.Grow.CLOS); k >= 0 && cs.totalWidth()+1 <= cs.NumWays {
				sh.widths[k].Val++
			}
		}
		if a.Shrink.Set {
			if k := sh.width(a.Shrink.CLOS); k >= 0 && sh.widths[k].Val > 1 {
				sh.widths[k].Val--
			}
		}
	}
	if !L.DisableDDIOAdjust {
		t := a.DDIOWays
		if t < 1 {
			t = 1
		}
		if t > cs.NumWays {
			t = cs.NumWays
		}
		sh.ddio = t
	}
}

// evaluatorState is the Evaluator's serialised form: one entry per
// shadow, in registration order. The bounded per-tick row log is
// deliberately excluded — it is an observability artefact, not decision
// state, and would dominate the checkpoint size.
type evaluatorState struct {
	Shadows []shadowSnap `json:"shadows"`
}

// shadowSnap is one shadow's serialised counterfactual machine.
type shadowSnap struct {
	Name     string              `json:"name"`
	PolState []byte              `json:"pol_state"`
	Init     bool                `json:"init"`
	State    State               `json:"state"`
	DDIO     int                 `json:"ddio"`
	Width    jsonbuf.IntMap[int] `json:"width,omitempty"`
	Sum      ShadowSummary       `json:"sum"`
}

// AppendSnapshot appends every shadow's serialised policy state,
// counterfactual machine, and running summary to dst, for
// checkpointing. A nil or empty evaluator snapshots to an empty state
// that Restore accepts.
func (e *Evaluator) AppendSnapshot(dst []byte) ([]byte, error) {
	if e == nil {
		return jsonbuf.Append(dst, &evaluatorState{})
	}
	n := len(e.shadows)
	if n == 0 {
		e.snap.Shadows = nil
	} else {
		e.snap.Shadows = slices.Grow(e.snap.Shadows[:0], n)[:n]
	}
	for i, sh := range e.shadows {
		ss := &e.snap.Shadows[i]
		ps, err := sh.pol.AppendSnapshot(ss.PolState[:0])
		if err != nil {
			return dst, fmt.Errorf("policy: snapshot shadow %s: %w", sh.pol.Name(), err)
		}
		*ss = shadowSnap{
			Name: sh.pol.Name(), PolState: ps,
			Init: sh.init, State: sh.state, DDIO: sh.ddio,
			Width: sh.widths, Sum: sh.sum,
		}
	}
	return jsonbuf.Append(dst, &e.snap)
}

// Restore rewinds the evaluator to a Snapshot. The shadow set is matched
// by name in order — a snapshot taken under a different -shadow
// configuration is rejected with a typed error and the evaluator is left
// unchanged.
func (e *Evaluator) Restore(data []byte) error {
	var st evaluatorState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: restore evaluator: %w", err)
	}
	n := 0
	if e != nil {
		n = len(e.shadows)
	}
	if len(st.Shadows) != n {
		return fmt.Errorf("policy: restore evaluator: snapshot has %d shadows, evaluator has %d", len(st.Shadows), n)
	}
	for i, sh := range st.Shadows {
		if got := e.shadows[i].pol.Name(); got != sh.Name {
			return fmt.Errorf("policy: restore evaluator: shadow %d is %q in snapshot, %q here", i, sh.Name, got)
		}
	}
	for i, snap := range st.Shadows {
		sh := e.shadows[i]
		if err := sh.pol.Restore(snap.PolState); err != nil {
			return err
		}
		sh.init = snap.Init
		sh.state = snap.State
		sh.ddio = snap.DDIO
		sh.widths = append(sh.widths[:0], snap.Width...)
		sh.sum = snap.Sum
	}
	return nil
}

// Restart is a cold start: the evaluator behaves as if the process had
// just launched — policies reset, counterfactual machines dropped,
// summaries and the divergence log zeroed. Used when a daemon restarts
// without (or failing) a checkpoint restore.
func (e *Evaluator) Restart() {
	if e == nil {
		return
	}
	for _, sh := range e.shadows {
		sh.pol.Reset()
		sh.init = false
		sh.state = 0
		sh.ddio = 0
		sh.widths = sh.widths[:0]
		sh.sum = ShadowSummary{Name: sh.pol.Name()}
	}
	e.rows = nil
	e.dropped = 0
}

// Rows returns the recorded divergence rows (shared slice; do not mutate).
func (e *Evaluator) Rows() []DivergenceRow { return e.rows }

// Dropped returns how many rows overflowed the bound.
func (e *Evaluator) Dropped() uint64 { return e.dropped }

// Summaries returns one aggregate per shadow, in shadow registration
// order (the -shadow flag's order).
func (e *Evaluator) Summaries() []ShadowSummary {
	out := make([]ShadowSummary, 0, len(e.shadows))
	for _, sh := range e.shadows {
		out = append(out, sh.sum)
	}
	return out
}

// WriteCSV writes the per-tick divergence log.
func (e *Evaluator) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "time_ns,policy,active_class,shadow_class,agree,active_ddio,shadow_ddio,hamming,shadow_desc"); err != nil {
		return err
	}
	for _, r := range e.rows {
		agree := 0
		if r.Agree {
			agree = 1
		}
		if _, err := fmt.Fprintf(w, "%.0f,%s,%s,%s,%d,%d,%d,%d,%s\n",
			r.TimeNS, r.Policy, r.ActiveClass, r.ShadowClass, agree,
			r.ActiveDDIO, r.ShadowDDIO, r.Hamming, r.ShadowDesc); err != nil {
			return err
		}
	}
	return nil
}
