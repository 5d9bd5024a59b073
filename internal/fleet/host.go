package fleet

import (
	"fmt"

	"iatsim/internal/ckpt"
	"iatsim/internal/core"
	"iatsim/internal/faults"
	"iatsim/internal/sim"
	"iatsim/internal/telemetry"
)

// HostSpec describes one host joining the fleet. The caller assembles
// the platform, daemon and workload mix (internal/exp knows how);
// NewHost only wires the fleet-side bookkeeping around them.
type HostSpec struct {
	// ID is the host's fleet-wide index. Config.Hosts must be sorted by
	// strictly increasing ID — aggregation iterates hosts in slice
	// order, so the ordering is part of the determinism contract.
	ID int
	// Mix labels the host's workload mix (e.g. "pkt1500").
	Mix string
	// Seed is the host's base seed, recorded in harness results and
	// used to derive ambient fault schedules.
	Seed int64
	// Platform is the host's fully assembled machine.
	Platform *sim.Platform
	// Daemon is the host's IAT daemon, already registered as a platform
	// controller. Policies are applied through Daemon.SetParams.
	Daemon *core.Daemon
	// Tel is the host's private telemetry registry (nil = none).
	Tel *telemetry.Registry
	// IOCores are the cores whose IPC defines the host's health signal
	// (the I/O-processing cores, e.g. the OVS cores).
	IOCores []int
	// Faults is the host's own ambient fault profile; an inactive
	// profile arms nothing.
	Faults faults.Profile
}

// Host is one fleet member: a full simulated platform plus its IAT
// daemon, fault plumbing, applied-policy history and the counter
// baselines the per-round observations are derived from. Hosts are
// stepped exclusively by Run — one harness job per host per round, each
// job touching only its own host, which is what makes fleet stepping
// race-clean and byte-identical at any worker count.
type Host struct {
	ID   int
	Name string
	Mix  string
	Seed int64

	P       *sim.Platform
	Daemon  *core.Daemon
	Tel     *telemetry.Registry
	IOCores []int

	baseInj *faults.Injector // ambient profile injector (nil when inactive)
	storm   *faults.Injector // non-nil while a storm is armed on this host
	retired uint64           // faults injected by storms since disarmed

	policy  Policy
	history []string

	// Crash/restart state. A crashed host's control daemon is dead and
	// its clock frozen for downRounds rounds; lastCkpt is the in-memory
	// copy of its last written checkpoint — what survives the crash.
	down         bool
	downRounds   int
	lastCkpt     []byte
	restores     uint64
	restoreFails uint64

	// ckpt and spare are Checkpoint's reused state and encode buffer.
	ckpt  ckpt.Checkpoint
	spare []byte

	prev hostCounters
}

// NewHost wires a fleet host around an assembled platform. The ambient
// fault profile (if active) is armed immediately with a schedule derived
// from the host seed, and the observation baseline is captured, so the
// first round's deltas start from here.
func NewHost(s HostSpec) *Host {
	h := &Host{
		ID:      s.ID,
		Name:    fmt.Sprintf("host-%03d", s.ID),
		Mix:     s.Mix,
		Seed:    s.Seed,
		P:       s.Platform,
		Daemon:  s.Daemon,
		Tel:     s.Tel,
		IOCores: append([]int(nil), s.IOCores...),
	}
	if s.Faults.Active() {
		h.baseInj = faults.NewInjector(s.Faults, s.Seed+1)
		h.arm(h.baseInj)
	}
	h.prev = h.counters()
	return h
}

// arm points every fault surface of the platform at inj; nil disarms
// them all (passed as an untyped nil so no layer ends up calling into a
// typed-nil interface).
func (h *Host) arm(inj *faults.Injector) {
	if inj == nil {
		h.P.SetFaults(nil)
		return
	}
	h.P.SetFaults(inj)
}

// injTotal is Injector.Total for a possibly-absent injector.
func injTotal(in *faults.Injector) uint64 {
	if in == nil {
		return 0
	}
	return in.Total()
}

// ArmStorm overlays a correlated-storm injector on the host: the storm
// replaces the ambient profile for its duration (a storm is the dominant
// fault source while it lasts) and DisarmStorm restores the ambient
// injector, whose schedule state persists across the storm.
func (h *Host) ArmStorm(inj *faults.Injector) {
	h.retired += injTotal(h.storm) // replacing an armed storm keeps its count
	h.storm = inj
	h.arm(inj)
}

// DisarmStorm removes the storm injector and re-arms the ambient one.
// The storm's injected-fault count is retired into h.retired so the
// host's cumulative fault counter stays monotone — otherwise the first
// post-storm round's delta would underflow.
func (h *Host) DisarmStorm() {
	h.retired += injTotal(h.storm)
	h.storm = nil
	h.arm(h.baseInj) // nil baseInj disarms everything
}

// StormActive reports whether a storm is currently armed on the host.
func (h *Host) StormActive() bool { return h.storm != nil }

// Down reports whether the host is currently crash-down (its daemon dead
// and its clock frozen until it rejoins).
func (h *Host) Down() bool { return h.down }

// crashInjector is the injector whose control stream decides this host's
// crash/restart fate: the storm while one is armed, else the ambient
// profile (nil when the host has neither).
func (h *Host) crashInjector() *faults.Injector {
	if h.storm != nil {
		return h.storm
	}
	return h.baseInj
}

// Checkpoint serialises the daemon's control-plane state into the host's
// in-memory checkpoint slot — the state a later Relaunch restores. The
// fault injectors are environmental here (they model the outside world,
// which a daemon death does not reset), so only the daemon state is
// captured.
func (h *Host) Checkpoint() error {
	if err := h.Daemon.SnapshotState(&h.ckpt.Daemon); err != nil {
		return fmt.Errorf("fleet: %s: checkpoint: %w", h.Name, err)
	}
	h.ckpt.Iteration, _ = h.Daemon.Iterations()
	h.ckpt.SimTimeNS = h.P.NowNS()
	data, err := ckpt.AppendMarshal(h.spare[:0], &h.ckpt)
	if err != nil {
		return fmt.Errorf("fleet: %s: checkpoint: %w", h.Name, err)
	}
	// The previous checkpoint's bytes become the next encode buffer.
	h.spare, h.lastCkpt = h.lastCkpt, data
	if h.Tel != nil {
		h.Tel.Counter("ckpt", "", "writes").Inc()
	}
	return nil
}

// CheckpointBytes returns a copy of the host's current in-memory
// checkpoint (nil when none has been taken).
func (h *Host) CheckpointBytes() []byte { return append([]byte(nil), h.lastCkpt...) }

// SetCheckpointBytes primes the host's in-memory checkpoint (e.g. one
// restored from external storage); the next Relaunch restores from it.
func (h *Host) SetCheckpointBytes(data []byte) { h.lastCkpt = append([]byte(nil), data...) }

// RestoreStats reports how many daemon relaunches restored from a
// checkpoint and how many fell back to a cold start because the
// checkpoint was absent, corrupt, or from a different configuration.
func (h *Host) RestoreStats() (restores, failures uint64) { return h.restores, h.restoreFails }

// Relaunch bounces the host's control daemon: the process cold-starts,
// then restores the last checkpoint if one decodes and matches the
// daemon's configuration. A missing checkpoint is a plain cold start; a
// bad one additionally counts as a restore failure — never an error, the
// fleet keeps running either way.
func (h *Host) Relaunch() {
	h.Daemon.Restart()
	if len(h.lastCkpt) > 0 {
		c, err := ckpt.Unmarshal(h.lastCkpt)
		if err == nil {
			err = h.Daemon.RestoreState(c.Daemon)
		}
		if err != nil {
			// Shed any partial restore; the daemon stays cold.
			h.Daemon.Restart()
			h.restoreFails++
			if h.Tel != nil {
				h.Tel.Counter("ckpt", "", "restore_failures").Inc()
			}
		} else {
			h.restores++
			if h.Tel != nil {
				h.Tel.Counter("ckpt", "", "restores").Inc()
			}
		}
	}
	// Re-anchor the daemon-derived observation baselines: the relaunched
	// daemon's counters rewound (to the checkpoint or to zero), and the
	// next round's deltas must not underflow.
	_, h.prev.unstable = h.Daemon.Iterations()
	h.prev.health = h.Daemon.Health()
}

// ApplyPolicy switches the host's daemon to pol and records it in the
// policy history. A non-nil Spec also swaps the daemon's decision
// engine; a nil Spec leaves the current engine running.
func (h *Host) ApplyPolicy(pol Policy) error {
	if err := h.Daemon.SetParams(pol.Params); err != nil {
		return fmt.Errorf("fleet: %s: apply policy %q: %w", h.Name, pol.Name, err)
	}
	if pol.Spec != nil {
		if err := h.Daemon.SetPolicy(pol.Spec.New()); err != nil {
			return fmt.Errorf("fleet: %s: apply policy %q: %w", h.Name, pol.Name, err)
		}
	}
	h.policy = pol
	h.history = append(h.history, pol.Name)
	return nil
}

// Policy returns the name of the currently applied policy.
func (h *Host) Policy() string { return h.policy.Name }

// PolicyHistory returns the names of every policy applied, in order.
func (h *Host) PolicyHistory() []string { return append([]string(nil), h.history...) }

// Snapshot cuts the host's telemetry snapshot at its current sim time
// (nil when the host is uninstrumented).
func (h *Host) Snapshot() *telemetry.Snapshot { return h.Tel.Snapshot(h.P.NowNS()) }

// hostCounters is the cumulative-counter baseline one observation
// window is differenced against.
type hostCounters struct {
	timeNS     float64
	instr      uint64
	cycles     uint64
	ddioHits   uint64
	ddioMisses uint64
	memBytes   uint64
	unstable   uint64
	health     core.HealthStats
	faults     uint64
}

func (h *Host) counters() hostCounters {
	llc := h.P.Hier.LLC().TotalStats()
	c := hostCounters{
		timeNS:     h.P.NowNS(),
		ddioHits:   llc.DDIOHits,
		ddioMisses: llc.DDIOMisses,
		memBytes:   h.P.Mem.Stats().Total(),
		health:     h.Daemon.Health(),
		faults:     injTotal(h.baseInj) + injTotal(h.storm) + h.retired,
	}
	_, c.unstable = h.Daemon.Iterations()
	for _, core := range h.IOCores {
		c.instr += h.P.CoreInstr(core)
		c.cycles += h.P.CoreCycles(core)
	}
	return c
}

// HostObs is one host's observation for one round: rates are reported
// in paper-world units (scaled back by the platform's Scale), counts
// are deltas over the round.
type HostObs struct {
	Host       int
	Policy     string
	Down       bool    // host was crash-down this round; all rates are zero
	IPC        float64 // aggregate IPC of the IOCores
	DDIOHitPS  float64 // delivered-throughput proxy: DDIO write updates/s
	DDIOMissPS float64
	MemGBps    float64
	MaskChurn  uint64 // unstable daemon iterations (re-allocations)
	Degraded   bool   // holding the safe static fallback at round end
	Rejects    uint64 // counter samples the daemon's sanity screen discarded
	Faults     uint64 // injected faults (ambient + storm)
}

// step advances the host by durNS and returns the round observation.
// It is the body of the per-host harness job; it must touch nothing
// outside its own host.
func (h *Host) step(durNS float64) HostObs {
	h.P.Run(durNS)
	cur := h.counters()
	prev := h.prev
	h.prev = cur

	scale := h.P.Cfg.Scale
	secs := (cur.timeNS - prev.timeNS) / 1e9
	if secs <= 0 {
		secs = 1
	}
	obs := HostObs{
		Host:       h.ID,
		Policy:     h.policy.Name,
		DDIOHitPS:  float64(cur.ddioHits-prev.ddioHits) / secs * scale,
		DDIOMissPS: float64(cur.ddioMisses-prev.ddioMisses) / secs * scale,
		MemGBps:    float64(cur.memBytes-prev.memBytes) / (cur.timeNS - prev.timeNS) * scale,
		MaskChurn:  cur.unstable - prev.unstable,
		Degraded:   cur.health.Degraded,
		Rejects:    cur.health.SampleRejects - prev.health.SampleRejects,
		Faults:     cur.faults - prev.faults,
	}
	if dc := cur.cycles - prev.cycles; dc > 0 {
		obs.IPC = float64(cur.instr-prev.instr) / float64(dc)
	}
	return obs
}
