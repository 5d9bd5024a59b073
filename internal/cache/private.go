package cache

import "math/bits"

// private is one private cache level (L1D or L2) of a single core: a plain
// set-associative cache, address-bit indexed, write-back and
// write-allocate. Like the LLC it stores the 32-bit lineTag in occupied
// ways and 0 in empty ones (so the probe loop reads only the tag array, a
// fresh cache needs no fill loop, and an L2 set's 16 tags are one 64 B
// host line) and keeps per-set valid and dirty bitmasks (so the fill path
// finds a free way with one AND-NOT).
//
// Every operation takes the tag, not the address: the hierarchy tags a
// line once and carries that tag through L1, L2 and the LLC. The set
// index is the line address's low bits, (tag-1)&setMask. find returns
// the set it located so that the fill after a miss does not locate it
// again, and a victim comes back as its tag, ready for the next level
// down. find, count, fillAt and drop are small enough for the compiler
// to inline into the hierarchy's paths, which run once per simulated
// line; measured on leaky-dma, the calls they replace cost several
// percent of the run.
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
		setMask:  uint32(sets - 1),
		fullMask: uint32(FullMask(cfg.Ways)),
		tags:     make([]uint32, sets*cfg.Ways),
		valid:    make([]uint32, sets),
		dirty:    make([]uint32, sets),
	}
}

// set returns the index of the set that holds tag.
func (p *private) set(tag uint32) int { return int((tag - 1) & p.setMask) }

// probe searches set for tag; returns the way or -1.
func (p *private) probe(set int, tag uint32) int {
	base := set * p.ways
	tags := p.tags[base : base+p.ways]
	for w := range tags {
		if tags[w] == tag {
			return w
		}
	}
	return -1
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
