package cache

import (
	"fmt"
	"math/bits"
)

// ambientTag is the tag AmbientFill installs for an address past
// MaxAddr. No lineTag reaches it, so a background line never matches a
// probe and the fill skips the probe altogether.
const ambientTag = ^uint32(0)

// MaxAddr is the last simulated address the caches accept: the last one
// whose lineTag stays below ambientTag (about 2^38, 256 GiB). Tags are 32
// bits wide, so an address past it fails loudly instead of aliasing;
// addr.Allocator's limit keeps every allocated region below it.
const MaxAddr = uint64(ambientTag-1)<<LineShift - 1

// lineTag is the stored tag of the line holding address a: its line
// address plus one, so a zeroed tag array is an empty cache (no fill
// loop at set-up, no page touched before its first fill) and probe
// scans tags alone, without consulting the valid bits — the hottest
// loop in the whole simulator.
func lineTag(a uint64) uint32 {
	if a > MaxAddr {
		tagOutOfRange(a)
	}
	return uint32(a>>LineShift) + 1
}

// tagOutOfRange is lineTag's cold path, kept out of line so lineTag
// inlines.
//
//go:noinline
func tagOutOfRange(a uint64) {
	panic(fmt.Sprintf("cache: address %#x is past MaxAddr %#x and has no 32-bit tag", a, MaxAddr))
}

// tagAddr inverts lineTag. For ambientTag it gives MaxAddr+1.
func tagAddr(tag uint32) uint64 { return uint64(tag-1) << LineShift }

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

// llcSlice is one NUCA slice: SetsPerSlice set records of
// 1<<LLC.strideShift uint32 words each, packed into one array so that a
// probe, a hit and a fill all stay on the set's own host cache line (at
// the Xeon's 11 ways a record is exactly 64 B). A record holds, in order:
//
//   - ways tags: lineTag, or 0 when the way is empty;
//   - ceil(ways/4) rank words: way w's SRRIP age or LRU rank (a
//     permutation per set) is byte lane w%4 of word w/4;
//   - the valid word: a bitmask of the occupied ways;
//   - the dirty word: a bitmask of the dirty ways.
//
// Replacement is SRRIP (2-bit re-reference prediction values), the policy
// family modern Intel LLCs implement: insertions start with a long
// predicted re-reference interval (rrpvInsert), hits reset it to 0, and
// victims are lines that aged to rrpvMax. Unlike true LRU, sustained
// allocation pressure (e.g. line-rate DDIO write allocates) eventually
// evicts rarely re-referenced lines that squat outside their owner's
// current way mask — the behaviour the paper's shuffling step relies on
// ("a tenant can still access its data in previously assigned LLC ways
// UNTIL it has been evicted", Sec. IV-D).
//
// The tags double as the presence index (0 = empty way, see lineTag) and
// the valid word lets the miss path find a free way with one AND-NOT
// instead of a state scan.
type llcSlice struct {
	sets  []uint32 // set records, stride words each
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

	// Set-record layout (see llcSlice): a record is 1<<strideShift
	// words, its rank words start at word cfg.Ways, and its valid and
	// dirty words sit at validOff and validOff+1.
	strideShift uint
	validOff    int

	// Per-core demand counters, the source for the "LLC reference and
	// miss" events IAT polls (LONGEST_LAT_CACHE.{REFERENCE,MISS}).
	coreRefs   []uint64
	coreMisses []uint64

	ahead   [rangeChunk]llcSet // locateAhead's result
	touched uint32             // sink of locateAhead's loads
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
	l.validOff = cfg.Ways + (cfg.Ways+3)/4
	l.strideShift = uint(bits.Len(uint(l.validOff + 1))) // next power of two ≥ validOff+2 words
	for i := range l.slices {
		l.slices[i].sets = make([]uint32, cfg.SetsPerSlice<<l.strideShift)
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

// locate maps a line address (an address >> LineShift) to its slice and
// the base word of its set record.
func (l *LLC) locate(line uint64) (sl *llcSlice, base int) {
	h := hashLine(line)
	sl = &l.slices[h%uint64(l.cfg.Slices)]
	return sl, int((h>>24)&l.setMask) << l.strideShift
}

// llcSet names one set record: its slice and the record's base word.
type llcSet struct {
	sl   *llcSlice
	base int
}

// set locates the set of a stored tag (lineTag's line address is tag-1).
func (l *LLC) set(tag uint32) llcSet {
	sl, base := l.locate(uint64(tag - 1))
	return llcSet{sl, base}
}

// rangeChunk is how many lines of a range locateAhead locates at once:
// more than an MTU packet's 24.
const rangeChunk = 32

// chunk returns how many of the lines tag..end the next chunk holds.
func chunk(tag, end uint32) int { return int(min(end-tag, rangeChunk-1)) + 1 }

// locateAhead locates the sets of the n <= rangeChunk lines tagged tag,
// tag+1, ... and loads one word of each record. The loads do not depend
// on one another, so their host cache misses overlap instead of being
// paid one after another as each line's probe reaches its set; the words
// are folded into l.touched only so that the loads are not dropped. The
// returned slice is valid until the next call.
func (l *LLC) locateAhead(tag uint32, n int) []llcSet {
	at := l.ahead[:n]
	x := l.touched
	for i := range at {
		at[i] = l.set(tag + uint32(i))
		x ^= at[i].sl.sets[at[i].base]
	}
	l.touched = x
	return at
}

// probe searches the set for the tag; returns the way offset or -1. The
// lineTag encoding makes this a pure tag scan: no valid-bit loads, no
// branches besides the compare.
func (l *LLC) probe(sl *llcSlice, base int, tag uint32) int {
	tags := sl.sets[base : base+l.cfg.Ways]
	for w := range tags {
		if tags[w] == tag {
			return w
		}
	}
	return -1
}

// ranks returns the set's rank words (see llcSlice).
func (l *LLC) ranks(sl *llcSlice, base int) []uint32 {
	return sl.sets[base+l.cfg.Ways : base+l.validOff]
}

// rank reads way w's byte lane from a set's rank words.
func rank(rr []uint32, w int) uint8 { return uint8(rr[w>>2] >> (uint(w&3) * 8)) }

// setRank writes way w's byte lane.
func setRank(rr []uint32, w int, r uint8) {
	sh := uint(w&3) * 8
	rr[w>>2] = rr[w>>2]&^(0xFF<<sh) | uint32(r)<<sh
}

// ageRank adds d to way w's byte lane. Ranks stay far below 256 (SRRIP
// ages top out at rrpvMax, LRU ranks below the way count), so the add
// never carries into the next lane.
func ageRank(rr []uint32, w int, d uint8) { rr[w>>2] += uint32(d) << (uint(w&3) * 8) }

// touch records a re-reference: the line's predicted re-reference interval
// collapses to "imminent" (SRRIP), or the line moves to MRU (LRU).
func (l *LLC) touch(sl *llcSlice, base, w int) {
	if l.cfg.Policy == PolicyLRU {
		l.lruPromote(sl, base, w)
		return
	}
	setRank(l.ranks(sl, base), w, 0)
}

// lruPromote moves way w to MRU, ageing every valid line that was younger:
// an lruInsertAt whose limit is the line's own rank. Ranks of the valid
// lines in a set are a permutation 0..k-1 and stay one.
func (l *LLC) lruPromote(sl *llcSlice, base, w int) {
	old := rank(l.ranks(sl, base), w)
	if old == 0 {
		return // already MRU: nothing can be younger
	}
	l.lruInsertAt(sl, base, w, old)
}

// lruInsertAt gives a newly installed line MRU rank, ageing only the
// lines that were younger than the departed victim's rank (limit). The
// departing rank vacates and rank 0 is taken, so the valid lines' ranks
// remain a permutation 0..k-1. Ageing past the victim's rank instead
// (the old behaviour) inflated out-of-mask lines' ranks until they all
// saturated at 255 and their true age order was lost — the mask-shrink
// LRU-age corruption covered by TestLLCLRUMaskShrinkAgeCorruption.
func (l *LLC) lruInsertAt(sl *llcSlice, base, w int, limit uint8) {
	rr := l.ranks(sl, base)
	for m := sl.sets[base+l.validOff] &^ (1 << uint(w)); m != 0; m &= m - 1 {
		if i := bits.TrailingZeros32(m); rank(rr, i) < limit {
			ageRank(rr, i, 1)
		}
	}
	setRank(rr, w, 0)
}

// victimWay picks the allocation victim inside the allowed mask: an invalid
// allowed way if one exists, else (SRRIP) an allowed way whose RRPV has aged
// to rrpvMax — ageing the whole allowed set as needed — or (LRU) the
// least-recently-used allowed way.
func (l *LLC) victimWay(sl *llcSlice, base int, mask WayMask) int {
	allowed := uint32(mask) & l.fullMask
	if allowed == 0 {
		panic(fmt.Sprintf("cache: way mask %s has no ways below %d; refusing out-of-set allocation", mask, l.cfg.Ways))
	}
	if inv := allowed &^ sl.sets[base+l.validOff]; inv != 0 {
		return bits.TrailingZeros32(inv) // lowest-indexed empty allowed way
	}
	rr := l.ranks(sl, base)
	if l.cfg.Policy == PolicyLRU {
		best, bestRank := -1, -1
		for m := allowed; m != 0; m &= m - 1 {
			w := bits.TrailingZeros32(m)
			if r := int(rank(rr, w)); r > bestRank {
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
	//
	// RRPVs are 2-bit, so the set's ages fold into two way bitmasks, one
	// per RRPV bit, and the candidates holding the maximum are one or two
	// ANDs away, with no per-way loop.
	var hi, lo uint32
	for j, word := range rr {
		lo |= laneBits(word) << uint(4*j)
		hi |= laneBits(word>>1) << uint(4*j)
	}
	maxRRPV, cand := rrpvMax, allowed&hi&lo
	if cand == 0 {
		maxRRPV, cand = rrpvMax-1, allowed&hi
	}
	if cand == 0 {
		maxRRPV, cand = rrpvMax-2, allowed&lo
	}
	if cand == 0 {
		maxRRPV, cand = 0, allowed
	}
	l.vicRR++
	start := uint(int(l.vicRR) % l.cfg.Ways)
	best := bits.TrailingZeros32(cand) // wrapped past the top way
	if c := cand >> start << start; c != 0 {
		best = bits.TrailingZeros32(c)
	}
	if delta := uint32(rrpvMax - maxRRPV); delta != 0 {
		for j := range rr {
			rr[j] += laneSpread(allowed>>uint(4*j)&0xF) * delta
		}
	}
	return best
}

// laneBits gathers bit 0 of each of word's four byte lanes into bits 0-3
// (lane i to bit i): the multiply moves lane i's bit 8i to bit 28+i, and
// no two partial products meet below bit 32.
func laneBits(word uint32) uint32 { return (word & 0x01010101) * 0x10204080 >> 28 }

// laneSpread is laneBits' inverse: bit i of nib (0-15) becomes byte lane
// i's bit 0.
func laneSpread(nib uint32) uint32 { return nib * 0x00204081 & 0x01010101 }

// install places the tag into way w of the set at base, returning the
// displaced victim.
func (l *LLC) install(sl *llcSlice, base, w int, tag uint32, dirty bool) Victim {
	var v Victim
	rec := sl.sets[base : base+l.validOff+2]
	valid, dirtyBits := &rec[l.validOff], &rec[l.validOff+1]
	bit := uint32(1) << uint(w)
	victimRank := ^uint8(0) // "older than everything" when the way was empty
	if *valid&bit != 0 {
		v = Victim{
			Addr:  tagAddr(rec[w]),
			Valid: true,
			Dirty: *dirtyBits&bit != 0,
		}
		if v.Dirty {
			sl.stats.Writebacks++
		}
		sl.tel.evictions.Inc()
		victimRank = rank(l.ranks(sl, base), w)
	}
	rec[w] = tag
	*valid |= bit
	if dirty {
		*dirtyBits |= bit
	} else {
		*dirtyBits &^= bit
	}
	if l.cfg.Policy == PolicyLRU {
		l.lruInsertAt(sl, base, w, victimRank)
	} else {
		setRank(l.ranks(sl, base), w, rrpvInsert)
	}
	return v
}

// markDirty sets way w's dirty bit.
func (l *LLC) markDirty(sl *llcSlice, base, w int) {
	sl.sets[base+l.validOff+1] |= 1 << uint(w)
}

// Access performs a demand lookup from a core (i.e. the L2-miss path).
// mask is the core's current CAT allocation mask, used only on a miss to
// choose the fill location. The returned Victim must be written back by the
// caller if dirty.
func (l *LLC) Access(core int, a uint64, write bool, mask WayMask) (hit bool, v Victim) {
	tag := lineTag(a)
	return l.access(l.set(tag), core, tag, write, mask)
}

// access is Access for a line already tagged and located: the hierarchy
// tags a line once and hands the tag down from the private levels.
func (l *LLC) access(at llcSet, core int, tag uint32, write bool, mask WayMask) (hit bool, v Victim) {
	sl, base := at.sl, at.base
	sl.stats.Lookups++
	l.coreRefs[core]++
	if w := l.probe(sl, base, tag); w >= 0 {
		sl.stats.Hits++
		sl.tel.hits.Inc()
		if write {
			l.markDirty(sl, base, w)
		}
		// SRRIP: no promotion on demand hits — the line's working copy
		// moves into the core's private caches (Skylake's
		// non-inclusive LLC behaves this way), so data parked outside
		// its owner's current mask ages out under allocation pressure
		// instead of squatting forever. LRU promotes classically.
		if l.cfg.Policy == PolicyLRU {
			l.lruPromote(sl, base, w)
		}
		return true, Victim{}
	}
	sl.stats.Misses++
	sl.tel.misses.Inc()
	l.coreMisses[core]++
	if mask == 0 {
		mask = FullMask(l.cfg.Ways)
	}
	w := l.victimWay(sl, base, mask)
	v = l.install(sl, base, w, tag, write)
	sl.tel.fillsApp.Inc()
	return false, v
}

// FillWriteback installs a dirty line evicted from a private cache
// (non-inclusive LLC: L2 victims are allocated here rather than dropped).
// It does not count as a demand reference. The returned victim must be
// written back by the caller if dirty.
func (l *LLC) FillWriteback(a uint64, mask WayMask) Victim {
	return l.fillWriteback(lineTag(a), mask)
}

// fillWriteback is FillWriteback for an L2 victim's tag.
func (l *LLC) fillWriteback(tag uint32, mask WayMask) Victim {
	sl, base := l.locate(uint64(tag - 1))
	if w := l.probe(sl, base, tag); w >= 0 {
		l.markDirty(sl, base, w)
		if l.cfg.Policy == PolicyLRU {
			l.lruPromote(sl, base, w)
		} else {
			setRank(l.ranks(sl, base), w, rrpvInsert)
		}
		return Victim{}
	}
	if mask == 0 {
		mask = FullMask(l.cfg.Ways)
	}
	w := l.victimWay(sl, base, mask)
	v := l.install(sl, base, w, tag, true)
	sl.tel.fillsApp.Inc()
	return v
}

// IOWrite models a DDIO inbound write of one line. If the line is resident
// in any way it is updated in place (write update — a DDIO hit); otherwise
// it is allocated into the DDIO mask (write allocate — a DDIO miss) and the
// displaced victim is returned for writeback. Hierarchy.IOWriteRange is
// the burst form the DDIO engine uses.
func (l *LLC) IOWrite(a uint64, ddioMask WayMask) (hit bool, v Victim) {
	tag := lineTag(a)
	return l.ioWrite(l.set(tag), tag, ddioMask)
}

// ioWrite is IOWrite for a line already tagged and located.
func (l *LLC) ioWrite(at llcSet, tag uint32, ddioMask WayMask) (hit bool, v Victim) {
	sl, base := at.sl, at.base
	if w := l.probe(sl, base, tag); w >= 0 {
		sl.stats.DDIOHits++
		l.markDirty(sl, base, w)
		l.touch(sl, base, w)
		return true, Victim{}
	}
	sl.stats.DDIOMisses++
	if ddioMask == 0 {
		ddioMask = FullMask(l.cfg.Ways)
	}
	w := l.victimWay(sl, base, ddioMask)
	v = l.install(sl, base, w, tag, true)
	sl.tel.fillsDDIO.Inc()
	return false, v
}

// IORead models a device (Tx) read of one line. A hit is served from the
// LLC and the line stays put; a miss falls through to memory and does NOT
// allocate (Sec. II-B). A device read neither cleans nor promotes the
// line: a dirty line stays dirty, and a read is typically the buffer's
// last use before its slot recycles.
func (l *LLC) IORead(a uint64) (hit bool) {
	tag := lineTag(a)
	return l.ioRead(l.set(tag), tag)
}

// IOReadRange is IORead of every line from the one holding first to the
// one holding last, checking the address bound once. It returns how many
// lines the LLC served; the caller reads the rest from memory.
func (l *LLC) IOReadRange(first, last uint64) (hits int) {
	end := lineTag(last)
	for tag := lineTag(first); tag <= end; {
		for _, at := range l.locateAhead(tag, chunk(tag, end)) {
			if l.ioRead(at, tag) {
				hits++
			}
			tag++
		}
	}
	return hits
}

func (l *LLC) ioRead(at llcSet, tag uint32) bool {
	sl, base := at.sl, at.base
	sl.stats.IOReads++
	if l.probe(sl, base, tag) >= 0 {
		return true
	}
	sl.stats.IOReadMiss++
	return false
}

// AmbientFill models background LLC allocation pressure (kernel, management
// agents, prefetchers of unmodelled cores): it installs a line with the full
// way mask, untracked by the demand counters, and returns the displaced
// victim for writeback accounting. A real consolidated host is never
// sterile; without this churn, data parked in idle ways would stay resident
// forever.
//
// An address past MaxAddr (sim.Platform's churn draws from a 2^56-line
// region above it) is installed as ambientTag without a probe: such a
// line is taken never to be drawn again while still resident, and no
// demand or I/O probe can match it.
func (l *LLC) AmbientFill(a uint64) Victim {
	sl, base := l.locate(a >> LineShift)
	tag := ambientTag
	if a <= MaxAddr {
		if tag = lineTag(a); l.probe(sl, base, tag) >= 0 {
			return Victim{}
		}
	}
	w := l.victimWay(sl, base, WayMask(l.fullMask))
	v := l.install(sl, base, w, tag, false)
	sl.tel.fillsApp.Inc()
	return v
}

// Contains reports whether the line holding address a is resident, without
// disturbing LRU state or counters. Intended for tests and assertions.
func (l *LLC) Contains(a uint64) bool { return l.WayOf(a) >= 0 }

// WayOf returns the way index currently holding address a, or -1. Intended
// for tests.
func (l *LLC) WayOf(a uint64) int {
	tag := lineTag(a)
	sl, base := l.locate(uint64(tag - 1))
	return l.probe(sl, base, tag)
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
		sets := l.slices[s].sets
		for base := 0; base < len(sets); base += 1 << l.strideShift {
			for m := sets[base+l.validOff]; m != 0; m &= m - 1 {
				occ[bits.TrailingZeros32(m)]++
			}
		}
	}
	return occ
}
