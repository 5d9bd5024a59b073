package cache

import (
	"iatsim/internal/mem"
)

// Hierarchy ties together the per-core private caches, the shared LLC and
// the memory controller, and translates every demand access into a latency
// in core cycles — the quantity the simulation's timing model charges
// against a core's cycle budget.
type Hierarchy struct {
	cfg  HierarchyConfig
	priv []*corePrivate // per core; nil until the core's first access
	llc  *LLC
	mem  *mem.Controller

	// cyclesPerNS converts memory latencies (ns) into core cycles.
	cyclesPerNS float64

	// remote marks cores that live on a second socket: every access
	// they make below their private caches crosses the socket
	// interconnect (Sec. VII of the paper: DDIO injects inbound data
	// into the device's local socket only, so remote consumers pay UPI
	// latency to reach it).
	remote    []bool
	upiCycles int64

	// run is the most lines of a range chunk: rangeChunk, clamped so
	// that every line of a chunk has its own L1 set and its own L2 set
	// (see private).
	run int
}

// corePrivate is one core's private levels.
type corePrivate struct{ l1, l2 private }

// NewHierarchy builds the full hierarchy for cfg.Cores cores running at
// freqGHz, with memory behind mc.
func NewHierarchy(cfg HierarchyConfig, freqGHz float64, mc *mem.Controller) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{
		cfg:         cfg,
		priv:        make([]*corePrivate, cfg.Cores),
		llc:         NewLLC(cfg.LLC, cfg.Cores),
		mem:         mc,
		cyclesPerNS: freqGHz,
		run:         min(rangeChunk, cfg.L1.Sets(), cfg.L2.Sets()),
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

// caches returns core's private caches. Most simulated cores never issue
// an access; their caches, empty either way, are built on first use.
func (h *Hierarchy) caches(core int) *corePrivate {
	c := h.priv[core]
	if c == nil {
		c = new(corePrivate)
		c.l1.init(h.cfg.L1)
		c.l2.init(h.cfg.L2)
		h.priv[core] = c
	}
	return c
}

// built returns core's private caches, or nil when core is negative (no
// consumer) or has not accessed memory yet (its caches hold nothing).
func (h *Hierarchy) built(core int) *corePrivate {
	if core < 0 {
		return nil
	}
	return h.priv[core]
}

// upi returns the cycles core pays below its private caches to cross the
// socket interconnect: 0 unless it was marked remote.
func (h *Hierarchy) upi(core int) int64 {
	if h.remote[core] {
		return h.upiCycles
	}
	return 0
}

// Access performs one demand load (write=false) or store (write=true) of the
// line holding address a on behalf of core, allocating in the LLC according
// to mask (the core's CAT mask). It returns the access latency in core
// cycles.
func (h *Hierarchy) Access(core int, a uint64, write bool, mask WayMask) int64 {
	tag, c := lineTag(a), h.caches(core)
	w1, w2 := c.l1.probe(c.l1.set(tag), tag), -1
	if w1 < 0 {
		w2 = c.l2.probe(c.l2.set(tag), tag)
	}
	return h.demand(tag, w1, w2, nil, c, core, write, mask)
}

// AccessRange performs Access on every line from the one holding first to
// the one holding last, in order, and returns the summed latency. It is
// the streaming form (packet copies, value reads and writes): the core's
// caches and the address bound are resolved once per range, and the
// lines are served a chunk at a time (see private). Each chunk probes the
// L1 with one probeRun, the L2 with one more only if some line missed the
// L1, and locates and loads ahead the LLC sets of only the lines that
// missed both, so that their host cache misses overlap (see
// LLC.locateAhead).
func (h *Hierarchy) AccessRange(core int, first, last uint64, write bool, mask WayMask) int64 {
	end := lineTag(last)
	c := h.caches(core)
	var w1, w2 [rangeChunk]int8
	var tot int64
	for tag := lineTag(first); tag <= end; {
		n := chunk(tag, end, h.run)
		miss := c.l1.probeRun(tag, n, &w1)
		if miss != 0 {
			miss &= c.l2.probeRun(tag, n, &w2)
		}
		at := h.llc.locateAhead(tag, miss)
		for i := range n {
			tot += h.demand(tag, int(w1[i]), int(w2[i]), &at[i], c, core, write, mask)
			tag++
		}
	}
	return tot
}

// demand is one demand access of the line tagged tag by core, whose
// private caches are c, given the line's probes: w1 and w2 are the ways
// of its L1 and L2 sets that hold it, or -1 (w2 is read only when w1 is
// -1). at is the line's LLC set if already located, else nil; it is read
// only when both levels miss. The tag is carried unchanged through L1,
// L2 and the LLC.
func (h *Hierarchy) demand(tag uint32, w1, w2 int, at *llcSet, c *corePrivate, core int, write bool, mask WayMask) int64 {
	s1 := c.l1.set(tag)
	c.l1.count(s1, w1, write)
	if w1 >= 0 {
		return h.cfg.L1.HitCycles
	}
	s2 := c.l2.set(tag)
	c.l2.count(s2, w2, write)
	lat := h.cfg.L2.HitCycles
	if w2 < 0 {
		var set llcSet
		if at != nil {
			set = *at
		} else {
			set = h.llc.set(tag)
		}
		lat = h.cfg.LLC.HitCycles + h.upi(core)
		hit, v := h.llc.access(set, core, tag, write, mask)
		h.llcEvict(v)
		if !hit {
			lat += h.memCycles(h.mem.Read(LineSize))
		}
		h.l2Fill(c, s2, tag, false, mask)
	}
	if v, vd := c.l1.fillAt(s1, tag, write); vd {
		// A dirty L1 victim is written back into the L2, and filled
		// there if the L2 no longer holds it.
		s, w := c.l2.find(v)
		if c.l2.count(s, w, true); w < 0 {
			h.l2Fill(c, s, v, true, mask)
		}
	}
	return lat
}

// l2Fill places tag into set of the L2 in c, spilling a dirty L2 victim
// into the LLC (the non-inclusive LLC keeps L2 victims). Clean L2 victims
// are dropped; a later demand re-reference finds them in the LLC only if
// still resident there.
func (h *Hierarchy) l2Fill(c *corePrivate, set int, tag uint32, dirty bool, mask WayMask) {
	if v, vd := c.l2.fillAt(set, tag, dirty); vd {
		h.llcEvict(h.llc.fillWriteback(v, mask))
	}
}

// IOWriteRange is the DDIO inbound write of a burst: for every line from
// the one holding first to the one holding last it drops the line from
// consumer's private caches (the coherence protocol's invalidate-on-write;
// consumer < 0 names no core) and then performs the LLC's IOWrite into
// mask. It returns how many lines were write updates and write allocates,
// and how many allocates displaced a dirty victim: the caller writes
// those back to memory.
func (h *Hierarchy) IOWriteRange(consumer int, first, last uint64, mask WayMask) (updates, allocs, writebacks int) {
	end := lineTag(last)
	c := h.built(consumer)
	for tag := lineTag(first); tag <= end; {
		// The drops touch only the private levels and the writes only the
		// LLC, so dropping the chunk's lines first changes nothing.
		n := chunk(tag, end, h.run)
		if c != nil {
			c.l1.dropRun(tag, n)
			c.l2.dropRun(tag, n)
		}
		for _, at := range h.llc.locateAhead(tag, runMask(n))[:n] {
			hit, v := h.llc.ioWrite(at, tag, mask)
			switch {
			case hit:
				updates++
			case v.Dirty:
				allocs++
				writebacks++
			default:
				allocs++
			}
			tag++
		}
	}
	return updates, allocs, writebacks
}

// InvalidatePrivate drops the line holding a from core's L1 and L2. The DMA
// engine does this when the device overwrites a buffer the consuming core
// has cached, so the core's next read is forced down to the LLC where the
// fresh inbound data lives (the coherence protocol's invalidate-on-write).
func (h *Hierarchy) InvalidatePrivate(core int, a uint64) { h.InvalidatePrivateRange(core, a, a) }

// InvalidatePrivateRange is InvalidatePrivate of every line from the one
// holding first to the one holding last; core < 0 names no core.
func (h *Hierarchy) InvalidatePrivateRange(core int, first, last uint64) {
	end, tag := lineTag(last), lineTag(first)
	if c := h.built(core); c != nil {
		for tag <= end {
			n := chunk(tag, end, h.run)
			c.l1.dropRun(tag, n)
			c.l2.dropRun(tag, n)
			tag += uint32(n)
		}
	}
}

// PrivateContains reports whether core's L1 or L2 holds the line at a.
// Intended for tests.
func (h *Hierarchy) PrivateContains(core int, a uint64) bool {
	tag := lineTag(a)
	c := h.priv[core]
	return c != nil && (c.l1.contains(tag) || c.l2.contains(tag))
}

// L1Stats returns (hits, misses) of core's L1D.
func (h *Hierarchy) L1Stats(core int) (hits, misses uint64) {
	if c := h.priv[core]; c != nil {
		return c.l1.hits, c.l1.misses
	}
	return 0, 0
}

// L2Stats returns (hits, misses) of core's L2.
func (h *Hierarchy) L2Stats(core int) (hits, misses uint64) {
	if c := h.priv[core]; c != nil {
		return c.l2.hits, c.l2.misses
	}
	return 0, 0
}
