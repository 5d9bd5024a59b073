package cache

import "math/bits"

// private is one private cache level (L1D or L2) of a single core: a plain
// set-associative cache, address-bit indexed, write-back and
// write-allocate. Like the LLC it stores the 32-bit lineTag in occupied
// ways and 0 in empty ones (so a probe reads only the tag row, an 8- or
// 16-way row is one call of the tag-match kernel, a fresh cache needs no
// fill loop, and an L2 set's 16 tags are one 64 B host line) and keeps
// per-set valid and dirty bitmasks (so the fill path finds a free way
// with one AND-NOT).
//
// Every operation takes the tag, not the address: the hierarchy tags a
// line once and carries that tag through L1, L2 and the LLC. The set
// index is the line address's low bits, (tag-1)&setMask. find returns
// the set it located so that the fill after a miss does not locate it
// again, and a victim comes back as its tag, ready for the next level
// down. find, count, fillAt and drop are small enough for the compiler
// to inline into the hierarchy's paths, which run once per simulated
// line; measured on leaky-dma, the calls they replace cost several
// percent of the run. probe, which calls the kernel, is not inlined.
//
// A range is probed a chunk at a time: probeRun answers the probes of n
// consecutive tags in one call (one call of a run kernel on an AVX2 host).
// The hierarchy clamps a chunk to min(rangeChunk, L1 sets, L2 sets), so
// every line of a chunk has its own L1 set and its own L2 set, and the
// answers stay exact while the chunk's lines are served in order. A
// line's fills touch only its own sets. The writeback of its dirty L1
// victim lands in an L2 set congruent to the line's own modulo the
// smaller set count, so in no other line's set. LLC traffic touches no
// private level.
//
// Replacement keeps no state: a miss fills the lowest-indexed empty way,
// and a full set always evicts way 0 (fillAt's victim choice). That is
// not LRU, but every recorded digest and golden hash depends on it.
// refPrivate in ref_test.go is a reference that keeps LRU ranks (they
// never move) and scans them for victims; the differential test proves
// the two agree. Real LRU needs a per-set rank permutation and a
// re-record (ROADMAP.md open item 2); its rank bytes would sit beside the
// valid and dirty words, not in the tag rows.
type private struct {
	ways     int
	lanes    int // the kernel width that serves a row, or 0 (rowLanes)
	setMask  uint32
	fullMask uint32
	tags     []uint32
	valid    []uint32
	dirty    []uint32
	hits     uint64
	misses   uint64
}

// init sizes an empty cache of shape cfg in place.
func (p *private) init(cfg LevelConfig) {
	sets := cfg.Sets()
	*p = private{
		ways:     cfg.Ways,
		lanes:    rowLanes(cfg.Ways, cfg.Ways),
		setMask:  uint32(sets - 1),
		fullMask: uint32(FullMask(cfg.Ways)),
		tags:     make([]uint32, sets*cfg.Ways),
		valid:    make([]uint32, sets),
		dirty:    make([]uint32, sets),
	}
}

// set returns the index of the set that holds tag.
func (p *private) set(tag uint32) int { return int((tag - 1) & p.setMask) }

// probe searches set for tag; returns the way or -1. An 8- or 16-way
// row is one call of the tag-match kernel when the host has it (see
// tagmatch.go); any other row, or any row on another host, is scanned
// way by way.
func (p *private) probe(set int, tag uint32) int {
	base := set * p.ways
	switch p.lanes {
	case 8:
		return firstWay(match8((*[8]uint32)(p.tags[base:base+8]), tag))
	case 16:
		return firstWay(match16((*[16]uint32)(p.tags[base:base+16]), tag))
	}
	tags := p.tags[base : base+p.ways]
	for w := range tags {
		if tags[w] == tag {
			return w
		}
	}
	return -1
}

// probeRun probes the n <= rangeChunk lines tagged tag0, tag0+1, ... (a
// run may wrap past the last set): out[i] is the way holding line i's tag
// or -1, as probe returns it, and bit i of miss is set when it is -1. An
// 8- or 16-way level answers the whole run with one call of a run kernel
// when the host has it; otherwise each line is probed in turn.
func (p *private) probeRun(tag0 uint32, n int, out *[rangeChunk]int8) (miss uint32) {
	switch p.lanes {
	case 8:
		return matchRun8(&p.tags[0], p.setMask, tag0, n, out)
	case 16:
		return matchRun16(&p.tags[0], p.setMask, tag0, n, out)
	}
	for i := range n {
		tag := tag0 + uint32(i)
		w := p.probe(p.set(tag), tag)
		out[i] = int8(w)
		if w < 0 {
			miss |= 1 << i
		}
	}
	return miss
}

// dropRun drops every line of the n <= rangeChunk lines tagged tag0,
// tag0+1, ... that the level holds.
func (p *private) dropRun(tag0 uint32, n int) {
	var w [rangeChunk]int8
	for hit := runMask(n) &^ p.probeRun(tag0, n, &w); hit != 0; hit &= hit - 1 {
		i := bits.TrailingZeros32(hit)
		p.drop(p.set(tag0+uint32(i)), int(w[i]))
	}
}

// find locates tag's set and probes it: it returns the set, for a
// following count and fillAt, and the way holding tag or -1.
func (p *private) find(tag uint32) (set, way int) {
	set = p.set(tag)
	return set, p.probe(set, tag)
}

// count records a lookup that found way w of set (-1: a miss); a write
// hit marks the line dirty. Hits change no replacement state.
func (p *private) count(set, w int, write bool) {
	if w < 0 {
		p.misses++
		return
	}
	p.hits++
	if write {
		p.dirty[set] |= 1 << uint(w)
	}
}

// fillAt installs tag into set, which the caller's find of tag just
// located and missed in: fillAt does not probe. It returns the displaced
// victim's tag (0 when the way was empty) and whether it was dirty.
func (p *private) fillAt(set int, tag uint32, dirty bool) (victim uint32, victimDirty bool) {
	// Victim: the lowest-indexed empty way, else way 0 (see private): a
	// full set has no empty bit, whose trailing-zero count 32 wraps to 0.
	// An empty way's tag is 0 and its dirty bit clear.
	vw := bits.TrailingZeros32(p.fullMask&^p.valid[set]) & 31
	idx, bit, d := set*p.ways+vw, uint32(1)<<vw, p.dirty[set]
	victim, victimDirty = p.tags[idx], d&bit != 0
	p.tags[idx] = tag
	p.valid[set] |= bit
	if d &^= bit; dirty {
		d |= bit
	}
	p.dirty[set] = d
	return victim, victimDirty
}

// drop empties way w of set. The DMA engine's invalidations call it when
// a device overwrites a line a core has cached; a dirty private copy is
// superseded by the inbound data, so its dirtiness is not reported.
func (p *private) drop(set, w int) {
	bit := uint32(1) << uint(w)
	p.tags[set*p.ways+w] = 0
	p.valid[set] &^= bit
	p.dirty[set] &^= bit
}

func (p *private) contains(tag uint32) bool {
	_, w := p.find(tag)
	return w >= 0
}
