package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"iatsim/internal/cache"
	"iatsim/internal/policy"
	"iatsim/internal/rdt"
	"iatsim/internal/telemetry"
)

// groupRates are one interval's derived metrics for a group.
type groupRates struct {
	IPC      float64
	RefsPS   float64
	MissPS   float64
	MissRate float64
}

// intervalSample is one interval's derived metrics for the whole system.
// perGroup runs parallel to the daemon's groups and is refilled by the
// next poll.
type intervalSample struct {
	perGroup    []groupRates
	ddioHitPS   float64
	ddioMissPS  float64
	totalRefsPS float64
}

// IterationInfo describes one daemon iteration, for tracing (Fig. 11's time
// series) and the iatd log output.
type IterationInfo struct {
	NowNS      float64
	State      policy.State
	Stable     bool
	Action     string
	DDIOWays   int
	DDIOMask   cache.WayMask
	Masks      []GroupMask // one per group, ascending CLOS
	DDIOHitPS  float64
	DDIOMissPS float64
	// Degraded reports the safe-static-fallback mode (see Daemon.Health).
	Degraded bool
}

// GroupMask is one group's programmed CLOS mask.
type GroupMask struct {
	CLOS int
	Mask cache.WayMask
}

// MaskOf returns the mask reported for clos (0 when absent).
func (it IterationInfo) MaskOf(clos int) cache.WayMask {
	for _, m := range it.Masks {
		if m.CLOS == clos {
			return m.Mask
		}
	}
	return 0
}

// StepTimings are the wall-clock costs of the last iteration's steps,
// measured exactly as the paper's Fig. 15 does: Poll Prof Data separately
// from State Transition + LLC Re-alloc.
type StepTimings struct {
	Poll       time.Duration
	Transition time.Duration
	Realloc    time.Duration
	Stable     bool
}

// Daemon is the IAT daemon: the mechanism half of the control loop. It
// polls and sanity-screens counters, self-heals, packs and programs masks
// — and delegates the decision half (what to re-allocate) to a
// policy.Policy, by default the paper's IAT FSM (policy.NewIAT, byte-for-
// byte the pre-extraction behaviour). Construct with NewDaemon, then call
// Tick periodically (the simulated platform polls it every epoch; it
// iterates once per Params.IntervalNS). Not safe for concurrent use.
type Daemon struct {
	sys  System
	P    Params
	Opts Options

	state    policy.State
	needInfo bool

	// Per-group state is dense, indexed like groups (registration
	// order); closOrder lists group indices by ascending CLOS, the order
	// of every float sum and register write whose result is recorded.
	groups    []*Group
	cores     [][]int // member cores
	closOrder []int
	nWays     int
	ddioWays  int
	topCLOS   int // group currently (candidate for) sharing with DDIO

	lastIterNS  float64
	prevCumTime float64
	prevCum     []rdt.CoreCounters
	prevDDIO    rdt.DDIOCounters
	havePrevCum bool

	// Buffers each iteration refills: poll's counter reads and rates,
	// sampleFor's group views (policies copy what they keep), and
	// apply's packing order and layout.
	cum    []rdt.CoreCounters
	rates  []groupRates
	views  []policy.GroupView
	order  []*Group
	layout []cache.WayMask

	// pol decides; shadows (optional) evaluate candidate policies on the
	// same accepted samples without touching any register.
	pol     policy.Policy
	shadows *policy.Evaluator

	timings  StepTimings
	iters    uint64
	unstable uint64

	// Self-healing state (see health.go): consecutive bad iterations,
	// consecutive sane samples while degraded, the degraded flag, the
	// backoff-scaled re-arm requirement, the clean-iteration streak that
	// unwinds it, and the per-iteration write-failure marker.
	health          HealthStats
	consecBad       int
	saneStreak      int
	degraded        bool
	rearmNeed       int
	cleanStreak     int
	writeFailedIter bool

	// OnIteration, when set, is invoked at the end of every iteration.
	OnIteration func(IterationInfo)

	// Tel, when set, receives the daemon's event stream: state
	// transitions (info), mask reprogramming (debug), and one
	// "iteration" event per completed iteration (debug) whose Data
	// payload is the IterationInfo — internal/trace renders Fig. 11
	// from exactly that stream.
	Tel telemetry.Sink

	telState policy.State // last state announced by emit (published when Tel is set)
	nowNS    float64      // current iteration's sim time, for apply()-time events
}

// NewDaemon builds a daemon over sys running the default IAT policy. It
// performs the Get Tenant Info and LLC Alloc steps on the first Tick.
func NewDaemon(sys System, p Params, opts Options) (*Daemon, error) {
	if err := p.Validate(sys.NumWays()); err != nil {
		return nil, err
	}
	return &Daemon{
		sys:        sys,
		P:          p,
		Opts:       opts,
		state:      policy.LowKeep,
		needInfo:   true,
		nWays:      sys.NumWays(),
		topCLOS:    -1,
		lastIterNS: -1e18,
		pol:        policy.NewIAT(),
	}, nil
}

// SetParams applies a new parameter set to a running daemon — the
// control-plane path for policy rollouts (internal/fleet): the set is
// validated exactly as at construction and replaces P between iterations
// on success. The current DDIO allocation is clamped into the new
// [DDIOWaysMin, DDIOWaysMax] bounds — reprogramming the register when the
// clamp changes it — and the FSM keeps its state, so an in-flight
// adaptation simply continues under the new limits. On error the old
// parameters stay in force.
func (d *Daemon) SetParams(p Params) error {
	if err := p.Validate(d.nWays); err != nil {
		return err
	}
	d.P = p
	// ddioWays is 0 until the first Tick runs Get Tenant Info; the initial
	// layout adopts the programmed mask then, so there is nothing to clamp.
	if d.ddioWays > 0 {
		clamped := min(max(d.ddioWays, p.DDIOWaysMin), p.DDIOWaysMax)
		if clamped != d.ddioWays {
			d.ddioWays = clamped
			if !d.Opts.DisableDDIOAdjust {
				d.programDDIO(cache.ContiguousMask(d.nWays-d.ddioWays, d.ddioWays))
			}
		}
	}
	d.emitHealth(telemetry.SevInfo, "params_update",
		fmt.Sprintf("ddio=[%d,%d] interval=%gns missLow=%.3g/s", p.DDIOWaysMin, p.DDIOWaysMax, p.IntervalNS, p.ThresholdMissLowPerSec))
	return nil
}

// SetPolicy replaces the decision policy of a running daemon between
// iterations — the control-plane path for staging a policy (not just
// parameter) rollout. The new policy starts from a fresh baseline (its
// first decision warms up) and the FSM restarts in LowKeep; the
// currently programmed masks stay in force until the new policy's first
// non-warmup decision moves them.
func (d *Daemon) SetPolicy(p policy.Policy) error {
	if p == nil {
		return fmt.Errorf("core: SetPolicy(nil)")
	}
	p.Reset()
	d.pol = p
	d.state = policy.LowKeep
	d.emitHealth(telemetry.SevInfo, "policy_update", p.Name())
	return nil
}

// Policy returns the active decision policy.
func (d *Daemon) Policy() policy.Policy { return d.pol }

// AttachShadows attaches a shadow evaluator: every sample the daemon
// accepts (sanity-screened, not degraded) is also fed to ev alongside the
// decision actually executed. Pass nil to detach.
func (d *Daemon) AttachShadows(ev *policy.Evaluator) { d.shadows = ev }

// Shadows returns the attached shadow evaluator (nil when none).
func (d *Daemon) Shadows() *policy.Evaluator { return d.shadows }

// State returns the FSM state.
func (d *Daemon) State() policy.State { return d.state }

// DDIOWays returns the daemon's view of the DDIO way count.
func (d *Daemon) DDIOWays() int { return d.ddioWays }

// Timings returns the wall-clock step costs of the last iteration.
func (d *Daemon) Timings() StepTimings { return d.timings }

// Iterations returns (total, unstable) iteration counts.
func (d *Daemon) Iterations() (total, unstable uint64) { return d.iters, d.unstable }

// NotifyTenantsChanged makes the next iteration re-run Get Tenant Info and
// LLC Alloc (tenant addition/removal, Sec. IV-E).
func (d *Daemon) NotifyTenantsChanged() { d.needInfo = true }

// Tick drives the daemon from the platform's epoch loop; it iterates once
// per IntervalNS of simulated time.
func (d *Daemon) Tick(nowNS float64) {
	if nowNS-d.lastIterNS < d.P.IntervalNS {
		return
	}
	d.lastIterNS = nowNS
	d.iterate(nowNS)
}

// getTenantInfo implements the Get Tenant Info + LLC Alloc steps: it builds
// the allocation groups (tenants sharing a CLOS form one group) and adopts
// the currently programmed masks as the initial allocation.
func (d *Daemon) getTenantInfo() {
	tenants := d.sys.Tenants()
	d.groups = d.groups[:0]
	d.cores = d.cores[:0]
	for _, t := range tenants {
		i := d.groupIndex(t.CLOS)
		if i < 0 {
			i = len(d.groups)
			d.groups = append(d.groups, &Group{CLOS: t.CLOS, Priority: t.Priority})
			d.cores = append(d.cores, nil)
		}
		g := d.groups[i]
		g.Names = append(g.Names, t.Name)
		if t.IO {
			g.IO = true
		}
		if t.Priority == Stack {
			g.Priority = Stack
		} else if t.Priority == PC && g.Priority != Stack {
			g.Priority = PC
		}
		d.cores[i] = append(d.cores[i], t.Cores...)
	}
	for _, g := range d.groups {
		g.Width = d.sys.CLOSMask(g.CLOS).Count()
	}
	d.reindex()
	d.ddioWays = d.sys.DDIOMask().Count()
	// Reset sampling state: new tenants mean old deltas are meaningless —
	// for the policy and every shadow alike.
	d.havePrevCum = false
	d.pol.Reset()
	if d.shadows != nil {
		d.shadows.Reset()
	}
	d.needInfo = false
}

// groupIndex returns the index of the group holding clos, or -1.
func (d *Daemon) groupIndex(clos int) int {
	for i, g := range d.groups {
		if g.CLOS == clos {
			return i
		}
	}
	return -1
}

// reindex sizes the per-group state to the current group list and
// rebuilds closOrder. It runs only when the groups change.
func (d *Daemon) reindex() {
	n := len(d.groups)
	d.prevCum = make([]rdt.CoreCounters, n)
	d.cum = make([]rdt.CoreCounters, n)
	d.rates = make([]groupRates, n)
	d.closOrder = d.closOrder[:0]
	for i := range d.groups {
		d.closOrder = append(d.closOrder, i)
	}
	slices.SortFunc(d.closOrder, func(a, b int) int { return cmp.Compare(d.groups[a].CLOS, d.groups[b].CLOS) })
}

// poll reads all counters and derives the interval sample. It returns
// (sample, true) or (zero, false) when this is the first (baseline) read.
func (d *Daemon) poll(nowNS float64) (intervalSample, bool) {
	for i := range d.groups {
		var c rdt.CoreCounters
		for _, core := range d.cores[i] {
			c.Add(d.sys.ReadCore(core))
		}
		d.cum[i] = c
	}
	ddio := d.sys.ReadDDIO()
	// Track externally applied DDIO way changes (e.g. the Fig. 10
	// experiment flips the register manually while DDIO adjustment is
	// disabled).
	d.ddioWays = d.sys.DDIOMask().Count()

	if !d.havePrevCum {
		d.prevCum, d.cum = d.cum, d.prevCum
		d.prevDDIO, d.prevCumTime = ddio, nowNS
		d.havePrevCum = true
		return intervalSample{}, false
	}
	dt := (nowNS - d.prevCumTime) / 1e9
	if dt <= 0 {
		dt = 1
	}
	s := intervalSample{perGroup: d.rates}
	// Sum in ascending CLOS order: totalRefsPS is a float sum, FP
	// addition is not associative, and the recorded rates must not
	// depend on the order tenants registered in.
	for _, i := range d.closOrder {
		dd := d.cum[i].Sub(d.prevCum[i])
		gr := groupRates{
			IPC:      dd.IPC(),
			RefsPS:   float64(dd.LLCRefs) / dt,
			MissPS:   float64(dd.LLCMisses) / dt,
			MissRate: dd.MissRate(),
		}
		s.perGroup[i] = gr
		s.totalRefsPS += gr.RefsPS
		g := d.groups[i]
		g.RefsPerSec = gr.RefsPS
		g.MissPerSec = gr.MissPS
		g.MissRate = gr.MissRate
	}
	dd := ddio.Sub(d.prevDDIO)
	s.ddioHitPS = float64(dd.Hits) / dt
	s.ddioMissPS = float64(dd.Misses) / dt
	d.prevCum, d.cum = d.cum, d.prevCum
	d.prevDDIO, d.prevCumTime = ddio, nowNS
	return s, true
}

// sampleFor renders one accepted interval sample into the policy's view:
// the committed FSM state, the current layout (groups in registration
// order — policy tie-breaks depend on it), the active limits, and the
// interval rates.
func (d *Daemon) sampleFor(nowNS float64, cur intervalSample) policy.Sample {
	s := policy.Sample{
		NowNS:    nowNS,
		State:    d.state,
		NumWays:  d.nWays,
		DDIOWays: d.ddioWays,
		DDIOMask: d.sys.DDIOMask(),
		Limits: policy.Limits{
			ThresholdStable:        d.P.ThresholdStable,
			ThresholdMissLowPerSec: d.P.ThresholdMissLowPerSec,
			DDIOWaysMin:            d.P.DDIOWaysMin,
			DDIOWaysMax:            d.P.DDIOWaysMax,
			UCPGrowth:              d.P.Growth == GrowUCP,
			DisableDDIOAdjust:      d.Opts.DisableDDIOAdjust,
			DisableShuffle:         d.Opts.DisableShuffle,
			DisableTenantAdjust:    d.Opts.DisableTenantAdjust,
		},
		DDIOHitPS:   cur.ddioHitPS,
		DDIOMissPS:  cur.ddioMissPS,
		TotalRefsPS: cur.totalRefsPS,
	}
	if d.views == nil {
		// Non-nil even with no groups: a retained sample encodes its
		// groups as [], never null.
		d.views = make([]policy.GroupView, 0, len(d.groups))
	}
	s.Groups = d.views[:0]
	for i, g := range d.groups {
		gr := cur.perGroup[i]
		s.Groups = append(s.Groups, policy.GroupView{
			CLOS:       g.CLOS,
			IO:         g.IO,
			Stack:      g.Priority == Stack,
			BestEffort: g.Priority == BE,
			Width:      g.Width,
			Mask:       d.sys.CLOSMask(g.CLOS),
			IPC:        gr.IPC,
			RefsPS:     gr.RefsPS,
			MissPS:     gr.MissPS,
			MissRate:   gr.MissRate,
		})
	}
	d.views = s.Groups
	return s
}

// iterate is one Poll Prof Data -> State Transition -> LLC Re-alloc pass:
// poll and screen the counters, hand the sample to the policy, execute
// whatever it decided, then feed the shadows.
func (d *Daemon) iterate(nowNS float64) {
	d.nowNS = nowNS
	if d.needInfo {
		d.getTenantInfo()
	}
	t0 := time.Now() //simlint:ignore detlint Fig. 15 measures the daemon's real per-iteration cost; timings never feed simulated state
	cur, ok := d.poll(nowNS)
	t1 := time.Now() //simlint:ignore detlint Fig. 15 poll-phase boundary; wall clock only reaches StepTimings
	d.timings = StepTimings{Poll: t1.Sub(t0), Stable: true}
	if !ok {
		return
	}
	// Sanity-screen the sample before it can steer the policy or become a
	// comparison baseline; glitched samples advance the degradation
	// streak instead. Rejected and degraded samples reach neither the
	// policy nor the shadows.
	if reason := d.sampleInsane(cur); reason != "" {
		d.rejectSample(nowNS, cur, reason)
		return
	}
	if d.degraded {
		d.degradedTick(nowNS, cur)
		return
	}
	s := d.sampleFor(nowNS, cur)
	a := d.pol.Decide(s)
	if a.Warmup {
		// Baseline adoption: silent, uncounted, no re-allocation.
		d.state = a.State
		d.shadowTick(s, a)
		return
	}
	d.iters++
	d.writeFailedIter = false
	if a.Stable {
		d.state = a.State
		d.finishIter()
		d.emitDecision(nowNS, cur, true, a.Desc)
		d.shadowTick(s, a)
		return
	}
	d.unstable++
	d.timings.Stable = false
	if a.Continue {
		chosen := d.execute(a)
		d.state = chosen.State
		d.timings.Realloc = time.Since(t1) //simlint:ignore detlint Fig. 15 re-alloc cost of a continue action; wall clock only reaches StepTimings
		d.finishIter()
		d.emitDecision(nowNS, cur, false, chosen.Desc)
		d.shadowTick(s, chosen)
		return
	}
	chosen := d.execute(a)
	d.state = chosen.State
	t2 := time.Now() //simlint:ignore detlint Fig. 15 transition-phase boundary; wall clock only reaches StepTimings
	d.timings.Transition = t2.Sub(t1)
	d.timings.Realloc = time.Since(t2) //simlint:ignore detlint Fig. 15 re-alloc cost; wall clock only reaches StepTimings
	d.finishIter()
	d.emitDecision(nowNS, cur, false, chosen.Desc)
	d.shadowTick(s, chosen)
}

// execute performs the policy's re-allocation operations against the
// machine and returns the decision that actually took effect (a
// TryShuffle whose layout pass wrote nothing resolves to its Fallback).
// The isolation switches are enforced here again, so a misbehaving policy
// cannot bypass them.
func (d *Daemon) execute(a policy.Actions) policy.Actions {
	if a.TryShuffle {
		if !d.Opts.DisableShuffle && d.apply() {
			return a
		}
		if a.Fallback != nil {
			return d.execute(*a.Fallback)
		}
		return a
	}
	if a.Masks != nil {
		// The policy laid out every group itself: program its layout in
		// ascending CLOS order with apply()'s retry and read-back.
		if !d.Opts.DisableTenantAdjust && len(a.Masks) == len(d.groups) {
			for _, i := range d.closOrder {
				g, m := d.groups[i], a.Masks[i]
				g.Width = m.Count()
				if d.sys.CLOSMask(g.CLOS) != m && d.programCLOS(g.CLOS, m) && d.Tel != nil {
					d.emitMask(fmt.Sprintf("clos%d=%v", g.CLOS, m))
				}
			}
		}
		return a
	}
	changed := false
	if !d.Opts.DisableTenantAdjust {
		if a.Grow.Set {
			if i := d.groupIndex(a.Grow.CLOS); i >= 0 && d.growGroup(d.groups[i]) {
				changed = true
			}
		}
		if a.Shrink.Set {
			if i := d.groupIndex(a.Shrink.CLOS); i >= 0 && d.groups[i].Width > 1 {
				d.groups[i].Width--
				changed = true
			}
		}
	}
	if !d.Opts.DisableDDIOAdjust && a.DDIOWays != d.ddioWays {
		if t := min(max(a.DDIOWays, 1), d.nWays); t != d.ddioWays {
			d.ddioWays = t
			changed = true
		}
	}
	if changed {
		d.apply()
	}
	return a
}

// shadowTick feeds one accepted sample plus the executed decision to the
// shadow evaluator, if one is attached.
func (d *Daemon) shadowTick(s policy.Sample, chosen policy.Actions) {
	if d.shadows != nil && !d.shadows.Empty() {
		d.shadows.Tick(s, chosen, d.sys.DDIOMask())
	}
}

// growGroup widens a group by one way if total capacity allows.
func (d *Daemon) growGroup(g *Group) bool {
	if TotalWidth(d.groups)+1 > d.nWays {
		return false
	}
	g.Width++
	return true
}

// apply recomputes the layout and programs every mask that changed. It
// returns true when at least one register was written.
func (d *Daemon) apply() bool {
	if d.Opts.DisableShuffle {
		d.order = OrderGroups(d.order[:0], d.groups, -1, 0) // priority order, no refs sort hysteresis
	} else {
		d.order = OrderGroups(d.order[:0], d.groups, d.topCLOS, shuffleMargin)
	}
	layout, err := PackBottomUp(d.layout[:0], d.nWays, d.order)
	if err != nil {
		return false
	}
	d.layout = layout
	wrote := false
	// Ascending CLOS order: the register writes commute, but the
	// telemetry events they emit must appear in a run-independent order.
	for _, i := range d.closOrder {
		g := d.groups[i]
		m := layout[slices.Index(d.order, g)]
		if d.sys.CLOSMask(g.CLOS) != m {
			if d.programCLOS(g.CLOS, m) {
				wrote = true
				if d.Tel != nil {
					d.emitMask(fmt.Sprintf("clos%d=%v", g.CLOS, m))
				}
			}
		}
	}
	if !d.Opts.DisableDDIOAdjust {
		dm := cache.ContiguousMask(d.nWays-d.ddioWays, d.ddioWays)
		if d.sys.DDIOMask() != dm {
			if d.programDDIO(dm) {
				wrote = true
				if d.Tel != nil {
					d.emitMask(fmt.Sprintf("ddio=%v", dm))
				}
			}
		}
	}
	if n := len(d.order); n > 0 {
		top := d.order[n-1]
		if top.Priority == BE {
			d.topCLOS = top.CLOS
		}
	}
	return wrote
}

// emitMask publishes one mask-reprogramming event (a register write the
// daemon actually performed) to the attached sink.
func (d *Daemon) emitMask(detail string) {
	d.Tel.Emit(telemetry.Event{
		TimeNS: d.nowNS, Sev: telemetry.SevDebug,
		Subsystem: "daemon", Name: "mask_write", Detail: detail,
	})
}

// emitDecision is emit for a policy decision: the description is
// rendered only when an iteration hook or sink will read it.
func (d *Daemon) emitDecision(nowNS float64, cur intervalSample, stable bool, desc policy.Desc) {
	action := ""
	if d.OnIteration != nil || d.Tel != nil {
		action = desc.String()
	}
	d.emit(nowNS, cur, stable, action)
}

// emit publishes the iteration trace to OnIteration and the telemetry
// event stream.
func (d *Daemon) emit(nowNS float64, cur intervalSample, stable bool, action string) {
	if d.state != d.telState {
		// telState advances even with no sink attached: it is part of
		// the checkpointed daemon state, and a checkpoint written by a
		// sink-less run must byte-match a replay that happens to carry
		// -trace/-telemetry (and vice versa).
		if d.Tel != nil {
			d.Tel.Emit(telemetry.Event{
				TimeNS: nowNS, Sev: telemetry.SevInfo,
				Subsystem: "daemon", Name: "state",
				Detail: d.telState.String() + "->" + d.state.String(),
			})
		}
		d.telState = d.state
	}
	if d.OnIteration == nil && d.Tel == nil {
		return
	}
	// A fresh slice each time: sinks keep the IterationInfo.
	masks := make([]GroupMask, len(d.closOrder))
	for k, i := range d.closOrder {
		clos := d.groups[i].CLOS
		masks[k] = GroupMask{CLOS: clos, Mask: d.sys.CLOSMask(clos)}
	}
	info := IterationInfo{
		NowNS:      nowNS,
		State:      d.state,
		Stable:     stable,
		Action:     action,
		DDIOWays:   d.ddioWays,
		DDIOMask:   d.sys.DDIOMask(),
		Masks:      masks,
		DDIOHitPS:  cur.ddioHitPS,
		DDIOMissPS: cur.ddioMissPS,
		Degraded:   d.degraded,
	}
	if d.Tel != nil {
		d.Tel.Emit(telemetry.Event{
			TimeNS: nowNS, Sev: telemetry.SevDebug,
			Subsystem: "daemon", Name: "iteration", Detail: action,
			Data: info,
		})
	}
	if d.OnIteration != nil {
		d.OnIteration(info)
	}
}
