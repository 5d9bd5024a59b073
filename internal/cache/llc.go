package cache

import (
	"fmt"
	"math/bits"
)

// lineTag is the stored tag of the line holding address a: its line
// address plus one, so a zeroed tag array is an empty cache (no fill
// loop at set-up, no page touched before its first fill) and probe
// scans tags alone, without consulting the valid bits — the hottest
// loop in the whole simulator.
func lineTag(a uint64) uint64 { return a>>LineShift + 1 }

// tagAddr inverts lineTag.
func tagAddr(tag uint64) uint64 { return (tag - 1) << LineShift }

// SliceStats are the per-slice CHA counters. The DDIO pair is exactly what
// the paper's daemon samples from the uncore PMU: DDIOHits counts inbound
// transactions that performed a write update, DDIOMisses those that
// performed a write allocate (Sec. IV-B of the paper).
type SliceStats struct {
	Lookups    uint64 // all demand lookups from cores
	Hits       uint64 // demand hits
	Misses     uint64 // demand misses
	DDIOHits   uint64 // inbound I/O write updates
	DDIOMisses uint64 // inbound I/O write allocates
	IOReads    uint64 // device (Tx) reads served by the LLC
	IOReadMiss uint64 // device reads that fell through to memory
	Writebacks uint64 // dirty evictions sent to memory
}

// Add accumulates o into s.
func (s *SliceStats) Add(o SliceStats) {
	s.Lookups += o.Lookups
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.DDIOHits += o.DDIOHits
	s.DDIOMisses += o.DDIOMisses
	s.IOReads += o.IOReads
	s.IOReadMiss += o.IOReadMiss
	s.Writebacks += o.Writebacks
}

// llcSlice is one NUCA slice: a sets×ways structure stored as flat arrays
// for speed. Replacement is SRRIP (2-bit re-reference prediction values),
// the policy family modern Intel LLCs implement: insertions start with a
// long predicted re-reference interval (rrpvInsert), hits reset it to 0,
// and victims are lines that aged to rrpvMax. Unlike true LRU, sustained
// allocation pressure (e.g. line-rate DDIO write allocates) eventually
// evicts rarely re-referenced lines that squat outside their owner's
// current way mask — the behaviour the paper's shuffling step relies on
// ("a tenant can still access its data in previously assigned LLC ways
// UNTIL it has been evicted", Sec. IV-D).
//
// tags doubles as the presence index (0 = empty way, see lineTag) and
// valid carries a per-set occupancy bitmask, so the miss path finds a
// free way with one AND-NOT instead of a state scan.
type llcSlice struct {
	tags  []uint64 // per way; lineTag, or 0 when empty
	rrpv  []uint8  // SRRIP age, or LRU rank (a permutation per set)
	valid []uint32 // per set: bitmask of valid ways
	dirty []uint32 // per set: bitmask of dirty ways
	stats SliceStats
	tel   sliceTel
}

// SRRIP constants: 2-bit RRPV, insert at distant (max-1).
const (
	rrpvMax    uint8 = 3
	rrpvInsert uint8 = 2
)

// LLC is the shared last-level cache. It is address-hashed across slices the
// way modern Intel CPUs are (Sec. V of the paper relies on this even
// distribution to sample a single CHA and extrapolate).
type LLC struct {
	cfg    LLCConfig
	slices []llcSlice

	setMask  uint64 // SetsPerSlice-1
	fullMask uint32 // FullMask(cfg.Ways), the in-range way bits
	vicRR    uint32 // rotating tie-break for victim selection

	// Per-core demand counters, the source for the "LLC reference and
	// miss" events IAT polls (LONGEST_LAT_CACHE.{REFERENCE,MISS}).
	coreRefs   []uint64
	coreMisses []uint64
}

// Victim describes a line displaced by an allocation. If Dirty, the caller
// must write it back to memory.
type Victim struct {
	Addr  uint64
	Valid bool
	Dirty bool
}

// NewLLC builds an empty LLC with the given shape for cores cores.
func NewLLC(cfg LLCConfig, cores int) *LLC {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	l := &LLC{
		cfg:        cfg,
		slices:     make([]llcSlice, cfg.Slices),
		setMask:    uint64(cfg.SetsPerSlice - 1),
		fullMask:   uint32(FullMask(cfg.Ways)),
		coreRefs:   make([]uint64, cores),
		coreMisses: make([]uint64, cores),
	}
	n := cfg.SetsPerSlice * cfg.Ways
	for i := range l.slices {
		l.slices[i] = llcSlice{
			tags:  make([]uint64, n),
			rrpv:  make([]uint8, n),
			valid: make([]uint32, cfg.SetsPerSlice),
			dirty: make([]uint32, cfg.SetsPerSlice),
		}
	}
	return l
}

// Config returns the LLC shape.
func (l *LLC) Config() LLCConfig { return l.cfg }

// hashLine mixes the line address so both slice selection and set indexing
// are effectively uniform, mirroring the (reverse-engineered) complex
// addressing hash on Intel LLCs.
func hashLine(line uint64) uint64 {
	x := line * 0x9E3779B97F4A7C15
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return x
}

// locate maps an address to (slice, set index, base index of its set).
func (l *LLC) locate(a uint64) (sl *llcSlice, setIdx, setBase int) {
	line := a >> LineShift
	h := hashLine(line)
	s := int(h % uint64(l.cfg.Slices))
	set := int((h >> 24) & l.setMask)
	return &l.slices[s], set, set * l.cfg.Ways
}

// probe searches the set for the tag; returns the way offset or -1. The
// lineTag encoding makes this a pure tag scan: no valid-bit loads, no
// branches besides the compare.
func (l *LLC) probe(sl *llcSlice, base int, tag uint64) int {
	tags := sl.tags[base : base+l.cfg.Ways]
	for w := range tags {
		if tags[w] == tag {
			return w
		}
	}
	return -1
}

// touch records a re-reference: the line's predicted re-reference interval
// collapses to "imminent" (SRRIP), or the line moves to MRU (LRU).
func (l *LLC) touch(sl *llcSlice, setIdx, base, w int) {
	if l.cfg.Policy == PolicyLRU {
		l.lruPromote(sl, setIdx, base, w)
		return
	}
	sl.rrpv[base+w] = 0
}

// lruPromote moves way w to MRU, ageing every valid line that was younger:
// an lruInsertAt whose limit is the line's own rank. Ranks of the valid
// lines in a set are a permutation 0..k-1 and stay one.
func (l *LLC) lruPromote(sl *llcSlice, setIdx, base, w int) {
	old := sl.rrpv[base+w]
	if old == 0 {
		return // already MRU: nothing can be younger
	}
	l.lruInsertAt(sl, setIdx, base, w, old)
}

// lruInsertAt gives a newly installed line MRU rank, ageing only the
// lines that were younger than the departed victim's rank (limit). The
// departing rank vacates and rank 0 is taken, so the valid lines' ranks
// remain a permutation 0..k-1. Ageing past the victim's rank instead
// (the old behaviour) inflated out-of-mask lines' ranks until they all
// saturated at 255 and their true age order was lost — the mask-shrink
// LRU-age corruption covered by TestLLCLRUMaskShrinkAgeCorruption.
func (l *LLC) lruInsertAt(sl *llcSlice, setIdx, base, w int, limit uint8) {
	for m := sl.valid[setIdx] &^ (1 << uint(w)); m != 0; m &= m - 1 {
		if i := base + bits.TrailingZeros32(m); sl.rrpv[i] < limit {
			sl.rrpv[i]++
		}
	}
	sl.rrpv[base+w] = 0
}

// victimWay picks the allocation victim inside the allowed mask: an invalid
// allowed way if one exists, else (SRRIP) an allowed way whose RRPV has aged
// to rrpvMax — ageing the whole allowed set as needed — or (LRU) the
// least-recently-used allowed way. setIdx indexes the slice's per-set
// valid bitmask for base.
func (l *LLC) victimWay(sl *llcSlice, setIdx, base int, mask WayMask) int {
	allowed := uint32(mask) & l.fullMask
	if allowed == 0 {
		panic(fmt.Sprintf("cache: way mask %s has no ways below %d; refusing out-of-set allocation", mask, l.cfg.Ways))
	}
	if inv := allowed &^ sl.valid[setIdx]; inv != 0 {
		return bits.TrailingZeros32(inv) // lowest-indexed empty allowed way
	}
	rr := sl.rrpv[base : base+l.cfg.Ways]
	if l.cfg.Policy == PolicyLRU {
		best, bestRank := -1, -1
		for m := allowed; m != 0; m &= m - 1 {
			w := bits.TrailingZeros32(m)
			if r := int(rr[w]); r > bestRank {
				best, bestRank = w, r
			}
		}
		return best
	}
	// SRRIP. Rotate the scan start so RRPV ties don't always evict the
	// lowest way (which would shelter high ways from replacement
	// pressure); the victim is the first allowed way in rotated order
	// holding the maximum RRPV. The original aged every allowed line by
	// one and rescanned until the maximum reached rrpvMax; ageing is
	// uniform over the allowed set, so one batched add of
	// (rrpvMax - max) is identical and the argmax never moves.
	l.vicRR++
	start := int(l.vicRR) % l.cfg.Ways
	best, bestRRPV := -1, -1
	for w := start; w < l.cfg.Ways; w++ {
		if allowed&(1<<uint(w)) != 0 {
			if r := int(rr[w]); r > bestRRPV {
				best, bestRRPV = w, r
			}
		}
	}
	for w := 0; w < start; w++ {
		if allowed&(1<<uint(w)) != 0 {
			if r := int(rr[w]); r > bestRRPV {
				best, bestRRPV = w, r
			}
		}
	}
	if bestRRPV < int(rrpvMax) {
		delta := rrpvMax - uint8(bestRRPV)
		for m := allowed; m != 0; m &= m - 1 {
			rr[bits.TrailingZeros32(m)] += delta
		}
	}
	return best
}

// install places the tag into way w of the set at (setIdx, base),
// returning the displaced victim.
func (l *LLC) install(sl *llcSlice, setIdx, base, w int, tag uint64, dirty bool) Victim {
	var v Victim
	idx := base + w
	bit := uint32(1) << uint(w)
	victimRank := ^uint8(0) // "older than everything" when the way was empty
	if sl.valid[setIdx]&bit != 0 {
		v = Victim{
			Addr:  tagAddr(sl.tags[idx]),
			Valid: true,
			Dirty: sl.dirty[setIdx]&bit != 0,
		}
		if v.Dirty {
			sl.stats.Writebacks++
		}
		sl.tel.evictions.Inc()
		victimRank = sl.rrpv[idx]
	}
	sl.tags[idx] = tag
	sl.valid[setIdx] |= bit
	if dirty {
		sl.dirty[setIdx] |= bit
	} else {
		sl.dirty[setIdx] &^= bit
	}
	if l.cfg.Policy == PolicyLRU {
		l.lruInsertAt(sl, setIdx, base, w, victimRank)
	} else {
		sl.rrpv[idx] = rrpvInsert
	}
	return v
}

// Access performs a demand lookup from a core (i.e. the L2-miss path).
// mask is the core's current CAT allocation mask, used only on a miss to
// choose the fill location. The returned Victim must be written back by the
// caller if dirty.
func (l *LLC) Access(core int, a uint64, write bool, mask WayMask) (hit bool, v Victim) {
	sl, setIdx, base := l.locate(a)
	tag := lineTag(a)
	sl.stats.Lookups++
	l.coreRefs[core]++
	if w := l.probe(sl, base, tag); w >= 0 {
		sl.stats.Hits++
		sl.tel.hits.Inc()
		if write {
			sl.dirty[setIdx] |= 1 << uint(w)
		}
		// SRRIP: no promotion on demand hits — the line's working copy
		// moves into the core's private caches (Skylake's
		// non-inclusive LLC behaves this way), so data parked outside
		// its owner's current mask ages out under allocation pressure
		// instead of squatting forever. LRU promotes classically.
		if l.cfg.Policy == PolicyLRU {
			l.lruPromote(sl, setIdx, base, w)
		}
		return true, Victim{}
	}
	sl.stats.Misses++
	sl.tel.misses.Inc()
	l.coreMisses[core]++
	if mask == 0 {
		mask = FullMask(l.cfg.Ways)
	}
	w := l.victimWay(sl, setIdx, base, mask)
	v = l.install(sl, setIdx, base, w, tag, write)
	sl.tel.fillsApp.Inc()
	return false, v
}

// FillWriteback installs a dirty line evicted from a private cache
// (non-inclusive LLC: L2 victims are allocated here rather than dropped).
// It does not count as a demand reference. The returned victim must be
// written back by the caller if dirty.
func (l *LLC) FillWriteback(a uint64, mask WayMask) Victim {
	sl, setIdx, base := l.locate(a)
	tag := lineTag(a)
	if w := l.probe(sl, base, tag); w >= 0 {
		sl.dirty[setIdx] |= 1 << uint(w)
		if l.cfg.Policy == PolicyLRU {
			l.lruPromote(sl, setIdx, base, w)
		} else {
			sl.rrpv[base+w] = rrpvInsert
		}
		return Victim{}
	}
	if mask == 0 {
		mask = FullMask(l.cfg.Ways)
	}
	w := l.victimWay(sl, setIdx, base, mask)
	v := l.install(sl, setIdx, base, w, tag, true)
	sl.tel.fillsApp.Inc()
	return v
}

// IOWrite models a DDIO inbound write of one line. If the line is resident
// in any way it is updated in place (write update — a DDIO hit); otherwise
// it is allocated into the DDIO mask (write allocate — a DDIO miss) and the
// displaced victim is returned for writeback.
func (l *LLC) IOWrite(a uint64, ddioMask WayMask) (hit bool, v Victim) {
	sl, setIdx, base := l.locate(a)
	tag := lineTag(a)
	if w := l.probe(sl, base, tag); w >= 0 {
		sl.stats.DDIOHits++
		sl.dirty[setIdx] |= 1 << uint(w)
		l.touch(sl, setIdx, base, w)
		return true, Victim{}
	}
	sl.stats.DDIOMisses++
	if ddioMask == 0 {
		ddioMask = FullMask(l.cfg.Ways)
	}
	w := l.victimWay(sl, setIdx, base, ddioMask)
	v = l.install(sl, setIdx, base, w, tag, true)
	sl.tel.fillsDDIO.Inc()
	return false, v
}

// IORead models a device (Tx) read of one line. A hit is served from the
// LLC and the line stays put; a miss falls through to memory and does NOT
// allocate (Sec. II-B). The line is cleaned on read-hit so a later eviction
// needs no writeback only if nothing else dirtied it again; real hardware
// keeps it dirty, so we do too — the read has no side effects.
func (l *LLC) IORead(a uint64) (hit bool) {
	sl, _, base := l.locate(a)
	tag := lineTag(a)
	if w := l.probe(sl, base, tag); w >= 0 {
		sl.stats.IOReads++
		// A device read is typically the buffer's last use before the
		// slot recycles; no promotion.
		return true
	}
	sl.stats.IOReads++
	sl.stats.IOReadMiss++
	return false
}

// AmbientFill models background LLC allocation pressure (kernel, management
// agents, prefetchers of unmodelled cores): it installs a line with the full
// way mask, untracked by the demand counters, and returns the displaced
// victim for writeback accounting. A real consolidated host is never
// sterile; without this churn, data parked in idle ways would stay resident
// forever.
func (l *LLC) AmbientFill(a uint64) Victim {
	sl, setIdx, base := l.locate(a)
	tag := lineTag(a)
	if l.probe(sl, base, tag) >= 0 {
		return Victim{}
	}
	w := l.victimWay(sl, setIdx, base, WayMask(l.fullMask))
	v := l.install(sl, setIdx, base, w, tag, false)
	sl.tel.fillsApp.Inc()
	return v
}

// Contains reports whether the line holding address a is resident, without
// disturbing LRU state or counters. Intended for tests and assertions.
func (l *LLC) Contains(a uint64) bool {
	sl, _, base := l.locate(a)
	return l.probe(sl, base, lineTag(a)) >= 0
}

// WayOf returns the way index currently holding address a, or -1. Intended
// for tests.
func (l *LLC) WayOf(a uint64) int {
	sl, _, base := l.locate(a)
	return l.probe(sl, base, lineTag(a))
}

// SliceStats returns the counters of slice i. The IAT daemon samples slice 0
// and multiplies by Config().Slices, exactly as the paper's implementation
// reads one CHA (Sec. V, "Profiling and monitoring").
func (l *LLC) SliceStats(i int) SliceStats {
	if i < 0 || i >= len(l.slices) {
		panic(fmt.Sprintf("cache: slice %d out of range", i))
	}
	return l.slices[i].stats
}

// TotalStats sums the counters of all slices.
func (l *LLC) TotalStats() SliceStats {
	var t SliceStats
	for i := range l.slices {
		t.Add(l.slices[i].stats)
	}
	return t
}

// CoreRefs returns the cumulative demand references issued by core.
func (l *LLC) CoreRefs(core int) uint64 { return l.coreRefs[core] }

// CoreMisses returns the cumulative demand misses suffered by core.
func (l *LLC) CoreMisses(core int) uint64 { return l.coreMisses[core] }

// OccupancyByWay counts the valid lines per way across all slices; useful
// for tests and for visualising which partition holds how much data.
func (l *LLC) OccupancyByWay() []int {
	occ := make([]int, l.cfg.Ways)
	for s := range l.slices {
		sl := &l.slices[s]
		for set := 0; set < l.cfg.SetsPerSlice; set++ {
			for m := sl.valid[set]; m != 0; m &= m - 1 {
				occ[bits.TrailingZeros32(m)]++
			}
		}
	}
	return occ
}
