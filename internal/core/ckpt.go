package core

import (
	"errors"
	"fmt"
	"slices"

	"iatsim/internal/jsonbuf"
	"iatsim/internal/policy"
	"iatsim/internal/rdt"
)

// Checkpoint/restore of the daemon's control-plane state. SnapshotState
// captures everything the daemon accumulated since its first Tick — FSM
// state, group layout, counter baselines, watchdog/backoff state, policy
// and shadow-evaluator state — so a killed daemon process resumed from a
// checkpoint continues byte-identically. Configuration (Params, Options,
// the System binding) and wall-clock artefacts (StepTimings) are
// deliberately excluded: the former is re-supplied by whoever constructs
// the resumed daemon, the latter is not simulation state.

// ErrStateMismatch is returned by RestoreState when a checkpoint does not
// fit the daemon it is being restored into (different policy, different
// cache geometry). Callers should treat it as "cold start instead".
var ErrStateMismatch = errors.New("core: checkpoint does not match daemon configuration")

// GroupState is one allocation group's serialised form.
type GroupState struct {
	CLOS       int      `json:"clos"`
	Names      []string `json:"names"`
	Priority   Priority `json:"priority"`
	IO         bool     `json:"io"`
	Width      int      `json:"width"`
	RefsPerSec float64  `json:"refs_per_sec"`
	MissPerSec float64  `json:"miss_per_sec"`
	MissRate   float64  `json:"miss_rate"`
	Cores      []int    `json:"cores"`
}

// DaemonState is the daemon's serialised control-plane state. All fields
// are exported scalars, slices in registration order, or int-keyed
// members that encode in encoding/json's sorted map-key order, so
// identical daemon state always serialises to identical bytes.
type DaemonState struct {
	State    policy.State `json:"state"`
	NeedInfo bool         `json:"need_info"`
	Groups   []GroupState `json:"groups"`
	NWays    int          `json:"n_ways"`
	DDIOWays int          `json:"ddio_ways"`
	TopCLOS  int          `json:"top_clos"`

	LastIterNS  float64                          `json:"last_iter_ns"`
	PrevCumTime float64                          `json:"prev_cum_time"`
	PrevCum     jsonbuf.IntMap[rdt.CoreCounters] `json:"prev_cum,omitempty"`
	PrevDDIO    rdt.DDIOCounters                 `json:"prev_ddio"`
	HavePrevCum bool                             `json:"have_prev_cum"`

	PolicyName  string `json:"policy_name"`
	PolicyState []byte `json:"policy_state"`
	ShadowState []byte `json:"shadow_state,omitempty"`

	Iters    uint64      `json:"iters"`
	Unstable uint64      `json:"unstable"`
	Health   HealthStats `json:"health"`

	ConsecBad       int          `json:"consec_bad"`
	SaneStreak      int          `json:"sane_streak"`
	Degraded        bool         `json:"degraded"`
	RearmNeed       int          `json:"rearm_need"`
	CleanStreak     int          `json:"clean_streak"`
	WriteFailedIter bool         `json:"write_failed_iter"`
	TelState        policy.State `json:"tel_state"`
}

// SnapshotState captures the daemon's control-plane state between
// iterations into st, reusing the slices st already holds: a caller that
// checkpoints repeatedly keeps one DaemonState and allocates nothing.
func (d *Daemon) SnapshotState(st *DaemonState) error {
	ps, err := d.pol.AppendSnapshot(st.PolicyState[:0])
	if err != nil {
		return fmt.Errorf("core: snapshot policy %s: %w", d.pol.Name(), err)
	}
	ss := st.ShadowState[:0]
	if d.shadows != nil && !d.shadows.Empty() {
		if ss, err = d.shadows.AppendSnapshot(ss); err != nil {
			return err
		}
	}
	groups, prevCum := st.Groups, st.PrevCum[:0]
	*st = DaemonState{
		State:    d.state,
		NeedInfo: d.needInfo,
		NWays:    d.nWays,
		DDIOWays: d.ddioWays,
		TopCLOS:  d.topCLOS,

		LastIterNS:  d.lastIterNS,
		PrevCumTime: d.prevCumTime,
		PrevDDIO:    d.prevDDIO,
		HavePrevCum: d.havePrevCum,

		PolicyName:  d.pol.Name(),
		PolicyState: ps,
		ShadowState: ss,

		Iters:    d.iters,
		Unstable: d.unstable,
		Health:   d.health,

		ConsecBad:       d.consecBad,
		SaneStreak:      d.saneStreak,
		Degraded:        d.degraded,
		RearmNeed:       d.rearmNeed,
		CleanStreak:     d.cleanStreak,
		WriteFailedIter: d.writeFailedIter,
		TelState:        d.telState,
	}
	if n := len(d.groups); n > 0 {
		st.Groups = slices.Grow(groups[:0], n)[:n]
	}
	for i, g := range d.groups {
		gs := &st.Groups[i]
		names, cores := gs.Names, gs.Cores
		*gs = GroupState{
			CLOS: g.CLOS, Names: refill(names, g.Names),
			Priority: g.Priority, IO: g.IO, Width: g.Width,
			RefsPerSec: g.RefsPerSec, MissPerSec: g.MissPerSec, MissRate: g.MissRate,
			Cores: refill(cores, d.cores[i]),
		}
	}
	st.PrevCum = prevCum
	if d.havePrevCum {
		for i, g := range d.groups {
			st.PrevCum = append(st.PrevCum, jsonbuf.IntEntry[rdt.CoreCounters]{Key: g.CLOS, Val: d.prevCum[i]})
		}
	}
	return nil
}

// refill copies src into dst's array. An empty src yields nil, which
// encodes as null, as a fresh copy of it would.
func refill[T any](dst, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	return append(dst[:0], src...)
}

// RestoreState rewinds the daemon to a checkpointed state. The checkpoint
// must have been taken from a daemon with the same cache geometry and the
// same active policy (by Name); mismatches return ErrStateMismatch. On
// any error the caller should fall back to Restart() — the daemon (and
// its policy) may be partially restored.
func (d *Daemon) RestoreState(st DaemonState) error {
	if st.NWays != d.nWays {
		return fmt.Errorf("%w: checkpoint has %d ways, daemon has %d", ErrStateMismatch, st.NWays, d.nWays)
	}
	if st.PolicyName != d.pol.Name() {
		return fmt.Errorf("%w: checkpoint policy %q, daemon runs %q", ErrStateMismatch, st.PolicyName, d.pol.Name())
	}
	if err := d.pol.Restore(st.PolicyState); err != nil {
		return err
	}
	if len(st.ShadowState) > 0 || (d.shadows != nil && !d.shadows.Empty()) {
		shadowBytes := st.ShadowState
		if len(shadowBytes) == 0 {
			return fmt.Errorf("%w: checkpoint has no shadow state, daemon has shadows attached", ErrStateMismatch)
		}
		if err := d.shadows.Restore(shadowBytes); err != nil {
			return err
		}
	}

	d.state = st.State
	d.needInfo = st.NeedInfo
	d.nWays = st.NWays
	d.ddioWays = st.DDIOWays
	d.topCLOS = st.TopCLOS

	d.lastIterNS = st.LastIterNS
	d.prevCumTime = st.PrevCumTime
	d.prevDDIO = st.PrevDDIO
	d.havePrevCum = st.HavePrevCum

	d.groups = d.groups[:0]
	d.cores = d.cores[:0]
	for _, gs := range st.Groups {
		d.groups = append(d.groups, &Group{
			CLOS: gs.CLOS, Names: append([]string(nil), gs.Names...),
			Priority: gs.Priority, IO: gs.IO, Width: gs.Width,
			RefsPerSec: gs.RefsPerSec, MissPerSec: gs.MissPerSec, MissRate: gs.MissRate,
		})
		d.cores = append(d.cores, append([]int(nil), gs.Cores...))
	}
	d.reindex()
	// Baselines of CLOS ids without a group are dropped; groups without
	// a baseline start from zero.
	for _, e := range st.PrevCum {
		if i := d.groupIndex(e.Key); i >= 0 {
			d.prevCum[i] = e.Val
		}
	}

	d.iters = st.Iters
	d.unstable = st.Unstable
	// st.Health is the raw internal struct: its Degraded field is derived
	// (overlaid by Health() from d.degraded on read) and must round-trip
	// verbatim, or a restore-while-degraded would pin it true forever.
	d.health = st.Health

	d.consecBad = st.ConsecBad
	d.saneStreak = st.SaneStreak
	d.degraded = st.Degraded
	d.rearmNeed = st.RearmNeed
	d.cleanStreak = st.CleanStreak
	d.writeFailedIter = st.WriteFailedIter
	d.telState = st.TelState
	return nil
}

// Restart is a cold start after an unplanned daemon death without (or
// failing) a checkpoint restore: all accumulated control-plane state is
// dropped, exactly as if the process had been relaunched over the same
// platform. The hardware keeps whatever masks were programmed — the
// first Tick re-runs Get Tenant Info and adopts them, like a freshly
// booted daemon does. The policy instance survives but is Reset (its
// decision baselines are dropped); an attached shadow evaluator cold
// starts too.
func (d *Daemon) Restart() {
	d.state = policy.LowKeep
	d.needInfo = true
	d.groups = d.groups[:0]
	d.cores = d.cores[:0]
	d.reindex()
	d.ddioWays = 0
	d.topCLOS = -1
	d.lastIterNS = -1e18
	d.prevCumTime = 0
	d.prevDDIO = rdt.DDIOCounters{}
	d.havePrevCum = false
	d.pol.Reset()
	if d.shadows != nil {
		d.shadows.Restart()
	}
	d.timings = StepTimings{}
	d.iters = 0
	d.unstable = 0
	d.health = HealthStats{}
	d.consecBad = 0
	d.saneStreak = 0
	d.degraded = false
	d.rearmNeed = 0
	d.cleanStreak = 0
	d.writeFailedIter = false
	d.telState = policy.LowKeep
}
