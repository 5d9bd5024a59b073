package cache

import (
	"testing"
)

// refLLC is an executable specification of the LLC's replacement
// behaviour, kept deliberately naive: linear probes over (valid, tag)
// pairs, modulo-rotated victim scans, one-step-at-a-time SRRIP ageing.
// It is the pre-optimisation algorithm, transcribed before the hot-path
// rewrite; the differential tests below drive the production LLC and
// this spec through identical operation streams and require identical
// hits, victims and final state. The LRU insert path implements the
// drift-free semantics (age only lines younger than the evicted line's
// rank), which is the behaviour the production lruInsert is required to
// have after the mask-shrink age-corruption fix.
type refLLC struct {
	cfg     LLCConfig
	tags    [][]uint64
	valid   [][]bool
	dirty   [][]bool
	rrpv    [][]uint8
	setMask uint64
	vicRR   uint32
}

func newRefLLC(cfg LLCConfig) *refLLC {
	r := &refLLC{cfg: cfg, setMask: uint64(cfg.SetsPerSlice - 1)}
	n := cfg.SetsPerSlice * cfg.Ways
	for s := 0; s < cfg.Slices; s++ {
		r.tags = append(r.tags, make([]uint64, n))
		r.valid = append(r.valid, make([]bool, n))
		r.dirty = append(r.dirty, make([]bool, n))
		r.rrpv = append(r.rrpv, make([]uint8, n))
	}
	return r
}

func (r *refLLC) locate(a uint64) (s, base int) {
	h := hashLine(a >> LineShift)
	return int(h % uint64(r.cfg.Slices)), int((h>>24)&r.setMask) * r.cfg.Ways
}

func (r *refLLC) probe(s, base int, tag uint64) int {
	for w := 0; w < r.cfg.Ways; w++ {
		if r.valid[s][base+w] && r.tags[s][base+w] == tag {
			return w
		}
	}
	return -1
}

func (r *refLLC) lruPromote(s, base, w int) {
	old := r.rrpv[s][base+w]
	for i := 0; i < r.cfg.Ways; i++ {
		if r.valid[s][base+i] && i != w && r.rrpv[s][base+i] < old {
			r.rrpv[s][base+i]++
		}
	}
	r.rrpv[s][base+w] = 0
}

func (r *refLLC) victimWay(s, base int, mask WayMask) int {
	for w := 0; w < r.cfg.Ways; w++ {
		if mask.Has(w) && !r.valid[s][base+w] {
			return w
		}
	}
	if r.cfg.Policy == PolicyLRU {
		best, bestRank := -1, -1
		for w := 0; w < r.cfg.Ways; w++ {
			if !mask.Has(w) {
				continue
			}
			if rk := int(r.rrpv[s][base+w]); rk > bestRank {
				best, bestRank = w, rk
			}
		}
		return best
	}
	r.vicRR++
	start := int(r.vicRR) % r.cfg.Ways
	for {
		best, bestRRPV := -1, -1
		for i := 0; i < r.cfg.Ways; i++ {
			w := (start + i) % r.cfg.Ways
			if !mask.Has(w) {
				continue
			}
			if v := int(r.rrpv[s][base+w]); v > bestRRPV {
				best, bestRRPV = w, v
			}
		}
		if best < 0 || bestRRPV >= int(rrpvMax) {
			return best
		}
		for w := 0; w < r.cfg.Ways; w++ {
			if mask.Has(w) {
				r.rrpv[s][base+w]++
			}
		}
	}
}

func (r *refLLC) install(s, base, w int, tag uint64, dirty bool) Victim {
	var v Victim
	idx := base + w
	victimRank := ^uint8(0)
	if r.valid[s][idx] {
		v = Victim{Addr: r.tags[s][idx] << LineShift, Valid: true, Dirty: r.dirty[s][idx]}
		victimRank = r.rrpv[s][idx]
	}
	r.tags[s][idx] = tag
	r.valid[s][idx] = true
	r.dirty[s][idx] = dirty
	if r.cfg.Policy == PolicyLRU {
		// Drift-free LRU insert: the new line takes rank 0 and only
		// lines younger than the departed line's rank age, so ranks of
		// valid lines stay a permutation prefix 0..k-1 forever.
		for i := 0; i < r.cfg.Ways; i++ {
			if r.valid[s][base+i] && i != w && r.rrpv[s][base+i] < victimRank {
				r.rrpv[s][base+i]++
			}
		}
		r.rrpv[s][idx] = 0
	} else {
		r.rrpv[s][idx] = rrpvInsert
	}
	return v
}

func (r *refLLC) Access(a uint64, write bool, mask WayMask) (bool, Victim) {
	s, base := r.locate(a)
	tag := a >> LineShift
	if w := r.probe(s, base, tag); w >= 0 {
		if write {
			r.dirty[s][base+w] = true
		}
		if r.cfg.Policy == PolicyLRU {
			r.lruPromote(s, base, w)
		}
		return true, Victim{}
	}
	if mask == 0 {
		mask = FullMask(r.cfg.Ways)
	}
	w := r.victimWay(s, base, mask)
	return false, r.install(s, base, w, tag, write)
}

func (r *refLLC) FillWriteback(a uint64, mask WayMask) Victim {
	s, base := r.locate(a)
	tag := a >> LineShift
	if w := r.probe(s, base, tag); w >= 0 {
		r.dirty[s][base+w] = true
		if r.cfg.Policy == PolicyLRU {
			r.lruPromote(s, base, w)
		} else {
			r.rrpv[s][base+w] = rrpvInsert
		}
		return Victim{}
	}
	if mask == 0 {
		mask = FullMask(r.cfg.Ways)
	}
	return r.install(s, base, r.victimWay(s, base, mask), tag, true)
}

func (r *refLLC) IOWrite(a uint64, ddioMask WayMask) (bool, Victim) {
	s, base := r.locate(a)
	tag := a >> LineShift
	if w := r.probe(s, base, tag); w >= 0 {
		r.dirty[s][base+w] = true
		if r.cfg.Policy == PolicyLRU {
			r.lruPromote(s, base, w)
		} else {
			r.rrpv[s][base+w] = 0
		}
		return true, Victim{}
	}
	if ddioMask == 0 {
		ddioMask = FullMask(r.cfg.Ways)
	}
	return false, r.install(s, base, r.victimWay(s, base, ddioMask), tag, true)
}

func (r *refLLC) IORead(a uint64) bool {
	s, base := r.locate(a)
	return r.probe(s, base, a>>LineShift) >= 0
}

func (r *refLLC) AmbientFill(a uint64) Victim {
	s, base := r.locate(a)
	tag := a >> LineShift
	if r.probe(s, base, tag) >= 0 {
		return Victim{}
	}
	full := FullMask(r.cfg.Ways)
	return r.install(s, base, r.victimWay(s, base, full), tag, false)
}

// WayOf mirrors LLC.WayOf for state comparison.
func (r *refLLC) WayOf(a uint64) int {
	s, base := r.locate(a)
	return r.probe(s, base, a>>LineShift)
}

// diffSplitmix is a tiny local PRNG so the differential op streams are
// seeded and self-contained.
type diffSplitmix uint64

func (s *diffSplitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// runDifferential drives the production LLC and the reference spec
// through nOps randomized operations (demand accesses, writeback fills,
// DDIO writes, device reads, ambient fills) under rotating, frequently
// shrinking way masks, failing on the first divergence in hit results or
// displaced victims, then cross-checks residency over every address the
// stream used.
func runDifferential(t *testing.T, policy ReplacementPolicy, seed uint64, nOps int) {
	t.Helper()
	cfg := LLCConfig{Slices: 3, Ways: 11, SetsPerSlice: 16, HitCycles: 44, Policy: policy}
	l := NewLLC(cfg, 2)
	r := newRefLLC(cfg)
	rng := diffSplitmix(seed)

	// Small address pools so sets actually fill and evict. Besides low
	// lines, the pool holds the addresses ambient churn produces (bit 40
	// set, random bits up to bit 61; see sim.Platform.ambientChurn) and
	// lines at 2^61, so victims must round-trip tags far above 2^32.
	const addrs = 3 * 11 * 16 * 3
	pool := make([]uint64, 0, 3*addrs)
	for a := uint64(0); a < addrs; a++ {
		pool = append(pool, a<<LineShift)
	}
	for a := uint64(0); a < addrs; a++ {
		pool = append(pool, uint64(1)<<40|rng.next()>>8<<LineShift)
	}
	for a := uint64(0); a < addrs; a++ {
		pool = append(pool, uint64(1)<<61+a<<LineShift)
	}
	masks := []WayMask{
		FullMask(11),
		ContiguousMask(0, 4),
		ContiguousMask(2, 5),   // overlaps the first partially
		ContiguousMask(7, 4),   // disjoint high ways
		ContiguousMask(0, 1),   // maximal shrink
		WayMask(0b10101010101), // non-contiguous: the general datapath case
	}
	for i := 0; i < nOps; i++ {
		a := pool[rng.next()%uint64(len(pool))]
		mask := masks[rng.next()%uint64(len(masks))]
		op := rng.next() % 8
		switch {
		case op < 4: // demand access, read or write
			write := op%2 == 0
			gotHit, gotV := l.Access(int(rng.next()%2), a, write, mask)
			wantHit, wantV := r.Access(a, write, mask)
			if gotHit != wantHit || gotV != wantV {
				t.Fatalf("op %d Access(%#x, write=%v, mask=%s): got (%v,%+v) want (%v,%+v)",
					i, a, write, mask, gotHit, gotV, wantHit, wantV)
			}
		case op < 5:
			gotV := l.FillWriteback(a, mask)
			wantV := r.FillWriteback(a, mask)
			if gotV != wantV {
				t.Fatalf("op %d FillWriteback(%#x, mask=%s): got %+v want %+v", i, a, mask, gotV, wantV)
			}
		case op < 6:
			gotHit, gotV := l.IOWrite(a, mask)
			wantHit, wantV := r.IOWrite(a, mask)
			if gotHit != wantHit || gotV != wantV {
				t.Fatalf("op %d IOWrite(%#x, mask=%s): got (%v,%+v) want (%v,%+v)",
					i, a, mask, gotHit, gotV, wantHit, wantV)
			}
		case op < 7:
			if got, want := l.IORead(a), r.IORead(a); got != want {
				t.Fatalf("op %d IORead(%#x): got %v want %v", i, a, got, want)
			}
		default:
			gotV := l.AmbientFill(a)
			wantV := r.AmbientFill(a)
			if gotV != wantV {
				t.Fatalf("op %d AmbientFill(%#x): got %+v want %+v", i, a, gotV, wantV)
			}
		}
	}
	for _, addr := range pool {
		if got, want := l.WayOf(addr), r.WayOf(addr); got != want {
			t.Fatalf("final state: WayOf(%#x) = %d, ref %d", addr, got, want)
		}
	}
}

// TestLLCDifferentialSRRIP proves the optimised SRRIP datapath (sentinel
// probes, batched ageing, rotation without modulo) is operation-for-
// operation identical to the naive pre-optimisation algorithm.
func TestLLCDifferentialSRRIP(t *testing.T) {
	for _, seed := range []uint64{1, 42, 0xDEADBEEF} {
		runDifferential(t, PolicySRRIP, seed, 60000)
	}
}

// TestLLCDifferentialLRU proves the LRU path matches the drift-free
// reference semantics under the same streams, mask shrinks included.
func TestLLCDifferentialLRU(t *testing.T) {
	for _, seed := range []uint64{1, 42, 0xDEADBEEF} {
		runDifferential(t, PolicyLRU, seed, 60000)
	}
}

// refPrivate is the private cache level as it was laid out before the
// host-memory pass: sentinel tags in empty ways, a state byte per way,
// eager allocation and a re-probe in fill. It keeps that layout's
// replacement exactly, LRU ranks and rank-scanning victim choice
// included, so the differential test below proves that the production
// cache, which keeps no ranks and evicts way 0 from a full set, changed
// no simulated bit.
type refPrivate struct {
	ways, sets int
	tags       []uint64
	state      []uint8
	lru        []uint8
	hits       uint64
	misses     uint64
}

const (
	refInvalidTag      = ^uint64(0)
	refValid, refDirty = uint8(1), uint8(2)
)

func newRefPrivate(cfg LevelConfig) *refPrivate {
	sets := cfg.Sets()
	r := &refPrivate{
		ways:  cfg.Ways,
		sets:  sets,
		tags:  make([]uint64, sets*cfg.Ways),
		state: make([]uint8, sets*cfg.Ways),
		lru:   make([]uint8, sets*cfg.Ways),
	}
	for i := range r.tags {
		r.tags[i] = refInvalidTag
	}
	return r
}

func (r *refPrivate) locate(a uint64) (base int, tag uint64) {
	line := a >> LineShift
	return int(line&uint64(r.sets-1)) * r.ways, line
}

func (r *refPrivate) probe(base int, tag uint64) int {
	for w := 0; w < r.ways; w++ {
		if r.tags[base+w] == tag {
			return w
		}
	}
	return -1
}

func (r *refPrivate) touch(base, w int) {
	old := r.lru[base+w]
	if old == 0 {
		return
	}
	for i := 0; i < r.ways; i++ {
		if r.lru[base+i] < old {
			r.lru[base+i]++
		}
	}
	r.lru[base+w] = 0
}

func (r *refPrivate) lookup(a uint64, write bool) bool {
	base, tag := r.locate(a)
	if w := r.probe(base, tag); w >= 0 {
		r.hits++
		if write {
			r.state[base+w] |= refDirty
		}
		r.touch(base, w)
		return true
	}
	r.misses++
	return false
}

func (r *refPrivate) fill(a uint64, dirty bool) Victim {
	base, tag := r.locate(a)
	if w := r.probe(base, tag); w >= 0 {
		if dirty {
			r.state[base+w] |= refDirty
		}
		r.touch(base, w)
		return Victim{}
	}
	vw := -1
	for w := 0; w < r.ways; w++ {
		if r.state[base+w]&refValid == 0 {
			vw = w
			break
		}
	}
	if vw < 0 {
		rank := -1
		for w := 0; w < r.ways; w++ {
			if rk := int(r.lru[base+w]); rk > rank {
				vw, rank = w, rk
			}
		}
	}
	var v Victim
	idx := base + vw
	if r.state[idx]&refValid != 0 {
		v = Victim{Addr: r.tags[idx] << LineShift, Valid: true, Dirty: r.state[idx]&refDirty != 0}
	}
	r.tags[idx] = tag
	r.state[idx] = refValid
	if dirty {
		r.state[idx] |= refDirty
	}
	r.touch(base, vw)
	return v
}

func (r *refPrivate) invalidate(a uint64) (present, dirty bool) {
	base, tag := r.locate(a)
	if w := r.probe(base, tag); w >= 0 {
		dirty = r.state[base+w]&refDirty != 0
		r.state[base+w] = 0
		r.tags[base+w] = refInvalidTag
		return true, dirty
	}
	return false, false
}

// runPrivateDifferential drives the production private cache and
// refPrivate through nOps random operations over a small address pool,
// in the hierarchy's calling pattern: a lookup, then a fill only after
// a miss, with invalidations mixed in. It fails on the first divergence
// in hits, victims (address and dirtiness) or counters, then
// cross-checks residency over the pool.
func runPrivateDifferential(t *testing.T, cfg LevelConfig, seed uint64, nOps int) {
	t.Helper()
	p := newPrivate(cfg)
	r := newRefPrivate(cfg)
	rng := diffSplitmix(seed)
	addrs := uint64(cfg.Sets() * cfg.Ways * 3)
	// High addresses too: ambient churn uses line addresses far above
	// 2^32, which a narrowed tag would alias.
	high := uint64(1) << 61
	for i := 0; i < nOps; i++ {
		a := (rng.next() % addrs) << LineShift
		if rng.next()%4 == 0 {
			a += high
		}
		a += rng.next() % LineSize // any byte of the line
		op := rng.next() % 8
		if op == 0 {
			gp, gd := p.invalidate(a)
			wp, wd := r.invalidate(a)
			if gp != wp || gd != wd {
				t.Fatalf("op %d invalidate(%#x): got (%v,%v) want (%v,%v)", i, a, gp, gd, wp, wd)
			}
			continue
		}
		write := op%2 == 0
		got, want := p.lookup(a, write), r.lookup(a, write)
		if got != want {
			t.Fatalf("op %d lookup(%#x, write=%v): got %v want %v", i, a, write, got, want)
		}
		if got {
			continue
		}
		dirty := rng.next()%2 == 0
		if gv, wv := p.fill(a, dirty), r.fill(a, dirty); gv != wv {
			t.Fatalf("op %d fill(%#x, dirty=%v): got %+v want %+v", i, a, dirty, gv, wv)
		}
	}
	if p.hits != r.hits || p.misses != r.misses {
		t.Fatalf("counters: got %d/%d hits/misses, want %d/%d", p.hits, p.misses, r.hits, r.misses)
	}
	for a := uint64(0); a < addrs; a++ {
		for _, addr := range []uint64{a << LineShift, a<<LineShift + high} {
			base, tag := r.locate(addr)
			if got, want := p.contains(addr), r.probe(base, tag) >= 0; got != want {
				t.Fatalf("final state: contains(%#x) = %v, ref %v", addr, got, want)
			}
		}
	}
}

// TestPrivateDifferential proves the compact private-cache layout (tags
// offset by one, per-set dirty bits, no re-probe in fill, no rank array)
// is operation-for-operation identical to the original layout, at the
// L1D and L2 shapes of the simulated Xeon (8-way and 16-way).
func TestPrivateDifferential(t *testing.T) {
	shapes := []LevelConfig{
		{SizeBytes: 4 << 10, Ways: 8, HitCycles: 4},    // L1-shaped, 8 sets
		{SizeBytes: 16 << 10, Ways: 16, HitCycles: 14}, // L2-shaped, 16 sets
	}
	for _, cfg := range shapes {
		for _, seed := range []uint64{1, 42, 0xDEADBEEF} {
			runPrivateDifferential(t, cfg, seed, 60000)
		}
	}
}
