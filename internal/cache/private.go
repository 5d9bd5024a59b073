package cache

import "math/bits"

// private is one private cache level (L1D or L2) of a single core: a plain
// set-associative cache, address-bit indexed, write-back and
// write-allocate. Like the LLC it stores the 32-bit lineTag in occupied
// ways and 0 in empty ones (so the probe loop reads only the tag array, a
// fresh cache needs no fill loop, and an L2 set's 16 tags are one 64 B
// host line) and keeps per-set valid and dirty bitmasks (so the fill path
// finds a free way with one AND-NOT). A victim's address is recovered
// from its tag exactly, as the L1->L2 spill and the L2->LLC writeback
// need it.
//
// Replacement keeps no state: a miss fills the lowest-indexed empty way,
// and a full set always evicts way 0. That is not LRU, but every recorded
// digest and golden hash depends on it. refPrivate in ref_test.go is a
// reference that keeps LRU ranks (they never move) and scans them for
// victims; the differential test proves the two agree. Real LRU needs a
// per-set rank permutation and a re-record (ROADMAP.md open item 2); its
// rank bytes would sit beside the valid and dirty words, not in the tag
// rows.
type private struct {
	ways     int
	setMask  uint64
	fullMask uint32
	tags     []uint32
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
		tags:     make([]uint32, n),
		valid:    make([]uint32, sets),
		dirty:    make([]uint32, sets),
	}
}

func (p *private) locate(a uint64) (set, base int, tag uint32) {
	set = int((a >> LineShift) & p.setMask)
	return set, set * p.ways, lineTag(a)
}

func (p *private) probe(base int, tag uint32) int {
	tags := p.tags[base : base+p.ways]
	for w := range tags {
		if tags[w] == tag {
			return w
		}
	}
	return -1
}

// lookup probes for a; on hit it marks the line dirty for writes and
// returns true. Hits change no replacement state.
func (p *private) lookup(a uint64, write bool) bool {
	set, base, tag := p.locate(a)
	if w := p.probe(base, tag); w >= 0 {
		p.hits++
		if write {
			p.dirty[set] |= 1 << uint(w)
		}
		return true
	}
	p.misses++
	return false
}

// fill installs line a, returning the displaced victim (if any). The
// caller must have just missed on a in this cache: fill does not probe.
func (p *private) fill(a uint64, dirty bool) Victim {
	set, base, tag := p.locate(a)
	// Victim: the lowest-indexed empty way, else way 0 (see private).
	vw := 0
	if inv := p.fullMask &^ p.valid[set]; inv != 0 {
		vw = bits.TrailingZeros32(inv)
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
