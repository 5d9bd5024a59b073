package cache

import "math/bits"

// private is one private cache level (L1D or L2) of a single core: a plain
// set-associative cache, address-bit indexed, write-back and
// write-allocate. Like the LLC it stores lineTag in occupied ways and 0 in
// empty ones (so the probe loop reads only the tag array, and a fresh
// cache needs no fill loop) and keeps per-set valid and dirty bitmasks
// (so the fill path finds a free way with one AND-NOT).
//
// Replacement is meant to be LRU but is not: lru starts at 0 and touch
// returns early on rank 0, so the ranks never move and a full set always
// evicts way 0 (ROADMAP.md open item). Every recorded digest depends on
// this, so a fix must re-record them.
type private struct {
	ways     int
	setMask  uint64
	fullMask uint32
	tags     []uint64
	lru      []uint8
	valid    []uint32
	dirty    []uint32
	hits     uint64
	misses   uint64
}

func newPrivate(cfg LevelConfig) *private {
	sets := cfg.Sets()
	n := sets * cfg.Ways
	return &private{
		ways:     cfg.Ways,
		setMask:  uint64(sets - 1),
		fullMask: uint32(FullMask(cfg.Ways)),
		tags:     make([]uint64, n),
		lru:      make([]uint8, n),
		valid:    make([]uint32, sets),
		dirty:    make([]uint32, sets),
	}
}

func (p *private) locate(a uint64) (set, base int, tag uint64) {
	set = int((a >> LineShift) & p.setMask)
	return set, set * p.ways, lineTag(a)
}

func (p *private) probe(base int, tag uint64) int {
	tags := p.tags[base : base+p.ways]
	for w := range tags {
		if tags[w] == tag {
			return w
		}
	}
	return -1
}

func (p *private) touch(base, w int) {
	old := p.lru[base+w]
	if old == 0 {
		return // already MRU: no rank below can exist
	}
	for i := 0; i < p.ways; i++ {
		if p.lru[base+i] < old {
			p.lru[base+i]++
		}
	}
	p.lru[base+w] = 0
}

// lookup probes for a; on hit it updates LRU (and dirtiness for writes) and
// returns true.
func (p *private) lookup(a uint64, write bool) bool {
	set, base, tag := p.locate(a)
	if w := p.probe(base, tag); w >= 0 {
		p.hits++
		if write {
			p.dirty[set] |= 1 << uint(w)
		}
		p.touch(base, w)
		return true
	}
	p.misses++
	return false
}

// fill installs line a, returning the displaced victim (if any). The
// caller must have just missed on a in this cache: fill does not probe.
func (p *private) fill(a uint64, dirty bool) Victim {
	set, base, tag := p.locate(a)
	// Choose victim: lowest-indexed invalid way first, else LRU-most.
	var vw int
	if inv := p.fullMask &^ p.valid[set]; inv != 0 {
		vw = bits.TrailingZeros32(inv)
	} else {
		rank := -1
		for w := 0; w < p.ways; w++ {
			if r := int(p.lru[base+w]); r > rank {
				vw, rank = w, r
			}
		}
	}
	var v Victim
	idx := base + vw
	bit := uint32(1) << uint(vw)
	if p.valid[set]&bit != 0 {
		v = Victim{
			Addr:  tagAddr(p.tags[idx]),
			Valid: true,
			Dirty: p.dirty[set]&bit != 0,
		}
	}
	p.tags[idx] = tag
	p.valid[set] |= bit
	if dirty {
		p.dirty[set] |= bit
	} else {
		p.dirty[set] &^= bit
	}
	p.touch(base, vw)
	return v
}

// invalidate drops line a if present, returning whether it was present and
// dirty. Used when the DMA engine overwrites a buffer a core has cached.
func (p *private) invalidate(a uint64) (present, dirty bool) {
	set, base, tag := p.locate(a)
	if w := p.probe(base, tag); w >= 0 {
		bit := uint32(1) << uint(w)
		dirty = p.dirty[set]&bit != 0
		p.tags[base+w] = 0
		p.valid[set] &^= bit
		p.dirty[set] &^= bit
		return true, dirty
	}
	return false, false
}

func (p *private) contains(a uint64) bool {
	_, base, tag := p.locate(a)
	return p.probe(base, tag) >= 0
}
