package cache

import (
	"iatsim/internal/mem"
)

// Hierarchy ties together the per-core private caches, the shared LLC and
// the memory controller, and translates every demand access into a latency
// in core cycles — the quantity the simulation's timing model charges
// against a core's cycle budget.
type Hierarchy struct {
	cfg HierarchyConfig
	l1  []*private // per core; nil until the core's first Access
	l2  []*private // per core; nil until the core's first Access
	llc *LLC
	mem *mem.Controller

	// cyclesPerNS converts memory latencies (ns) into core cycles.
	cyclesPerNS float64

	// remote marks cores that live on a second socket: every access
	// they make below their private caches crosses the socket
	// interconnect (Sec. VII of the paper: DDIO injects inbound data
	// into the device's local socket only, so remote consumers pay UPI
	// latency to reach it).
	remote    []bool
	upiCycles int64
}

// NewHierarchy builds the full hierarchy for cfg.Cores cores running at
// freqGHz, with memory behind mc.
func NewHierarchy(cfg HierarchyConfig, freqGHz float64, mc *mem.Controller) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{
		cfg:         cfg,
		l1:          make([]*private, cfg.Cores),
		l2:          make([]*private, cfg.Cores),
		llc:         NewLLC(cfg.LLC, cfg.Cores),
		mem:         mc,
		cyclesPerNS: freqGHz,
	}
	h.remote = make([]bool, cfg.Cores)
	return h
}

// SetRemote marks core as residing on a remote socket, upiNS away from the
// socket holding the LLC, the memory, and the I/O devices. Pass upiNS=0 to
// keep a previously configured latency.
func (h *Hierarchy) SetRemote(core int, remote bool, upiNS float64) {
	h.remote[core] = remote
	if upiNS > 0 {
		h.upiCycles = int64(upiNS * h.cyclesPerNS)
	}
}

// IsRemote reports whether core was marked remote.
func (h *Hierarchy) IsRemote(core int) bool { return h.remote[core] }

// Config returns the hierarchy shape.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// LLC exposes the shared last-level cache (for the DDIO engine, the uncore
// PMU, and tests).
func (h *Hierarchy) LLC() *LLC { return h.llc }

// Mem exposes the memory controller.
func (h *Hierarchy) Mem() *mem.Controller { return h.mem }

// memCycles converts a memory latency in ns to core cycles.
func (h *Hierarchy) memCycles(ns float64) int64 {
	c := int64(ns * h.cyclesPerNS)
	if c < 1 {
		c = 1
	}
	return c
}

// llcEvict handles a (possibly dirty) LLC victim.
func (h *Hierarchy) llcEvict(v Victim) {
	if v.Valid && v.Dirty {
		h.mem.Write(LineSize)
	}
}

// l2Insert places line a into core's L2, spilling the L2 victim into the LLC
// (non-inclusive LLC keeps L2 victims).
func (h *Hierarchy) l2Insert(core int, a uint64, dirty bool, mask WayMask) {
	if v := h.l2[core].fill(a, dirty); v.Valid {
		if v.Dirty {
			h.llcEvict(h.llc.FillWriteback(v.Addr, mask))
		}
		// Clean L2 victims are dropped; a later demand re-reference
		// will find them in the LLC only if still resident there.
	}
}

// l1Insert places line a into core's L1, spilling the L1 victim into L2.
func (h *Hierarchy) l1Insert(core int, a uint64, dirty bool, mask WayMask) {
	if v := h.l1[core].fill(a, dirty); v.Valid && v.Dirty {
		if !h.l2[core].lookup(v.Addr, true) {
			h.l2Insert(core, v.Addr, true, mask)
		}
	}
}

// Access performs one demand load (write=false) or store (write=true) of the
// line holding address a on behalf of core, allocating in the LLC according
// to mask (the core's CAT mask). It returns the access latency in core
// cycles.
func (h *Hierarchy) Access(core int, a uint64, write bool, mask WayMask) int64 {
	a &^= LineSize - 1
	if h.l1[core] == nil {
		// Most simulated cores never issue an access; their caches,
		// empty either way, are built on first use.
		h.l1[core], h.l2[core] = newPrivate(h.cfg.L1), newPrivate(h.cfg.L2)
	}
	if h.l1[core].lookup(a, write) {
		return h.cfg.L1.HitCycles
	}
	if h.l2[core].lookup(a, write) {
		h.l1Insert(core, a, write, mask)
		return h.cfg.L2.HitCycles
	}
	var upi int64
	if h.remote[core] {
		// Below the private caches, a remote core crosses the socket
		// interconnect to reach the LLC/memory socket.
		upi = h.upiCycles
	}
	hit, v := h.llc.Access(core, a, write, mask)
	h.llcEvict(v)
	if hit {
		h.l2Insert(core, a, false, mask)
		h.l1Insert(core, a, write, mask)
		return h.cfg.LLC.HitCycles + upi
	}
	lat := h.memCycles(h.mem.Read(LineSize))
	h.l2Insert(core, a, false, mask)
	h.l1Insert(core, a, write, mask)
	return h.cfg.LLC.HitCycles + lat + upi
}

// InvalidatePrivate drops the line holding a from core's L1 and L2. The DMA
// engine calls this when the device overwrites a buffer the consuming core
// has cached, so the core's next read is forced down to the LLC where the
// fresh inbound data lives (the coherence protocol's invalidate-on-write).
func (h *Hierarchy) InvalidatePrivate(core int, a uint64) {
	if h.l1[core] == nil {
		return
	}
	a &^= LineSize - 1
	h.l1[core].invalidate(a)
	h.l2[core].invalidate(a)
}

// PrivateContains reports whether core's L1 or L2 holds the line at a.
// Intended for tests.
func (h *Hierarchy) PrivateContains(core int, a uint64) bool {
	a &^= LineSize - 1
	return h.l1[core] != nil && (h.l1[core].contains(a) || h.l2[core].contains(a))
}

// L1Stats returns (hits, misses) of core's L1D.
func (h *Hierarchy) L1Stats(core int) (hits, misses uint64) {
	if h.l1[core] == nil {
		return 0, 0
	}
	return h.l1[core].hits, h.l1[core].misses
}

// L2Stats returns (hits, misses) of core's L2.
func (h *Hierarchy) L2Stats(core int) (hits, misses uint64) {
	if h.l2[core] == nil {
		return 0, 0
	}
	return h.l2[core].hits, h.l2[core].misses
}
