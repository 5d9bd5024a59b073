package cache

import (
	"testing"

	"iatsim/internal/mem"
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

	// Counters, summed over slices, and per-core demand counters for
	// up to four cores.
	stats              SliceStats
	coreRefs, coreMiss [4]uint64
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
		if v.Dirty {
			r.stats.Writebacks++
		}
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

func (r *refLLC) Access(core int, a uint64, write bool, mask WayMask) (bool, Victim) {
	s, base := r.locate(a)
	tag := a >> LineShift
	r.stats.Lookups++
	r.coreRefs[core]++
	if w := r.probe(s, base, tag); w >= 0 {
		r.stats.Hits++
		if write {
			r.dirty[s][base+w] = true
		}
		if r.cfg.Policy == PolicyLRU {
			r.lruPromote(s, base, w)
		}
		return true, Victim{}
	}
	r.stats.Misses++
	r.coreMiss[core]++
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
		r.stats.DDIOHits++
		r.dirty[s][base+w] = true
		if r.cfg.Policy == PolicyLRU {
			r.lruPromote(s, base, w)
		} else {
			r.rrpv[s][base+w] = 0
		}
		return true, Victim{}
	}
	r.stats.DDIOMisses++
	if ddioMask == 0 {
		ddioMask = FullMask(r.cfg.Ways)
	}
	return false, r.install(s, base, r.victimWay(s, base, ddioMask), tag, true)
}

func (r *refLLC) IORead(a uint64) bool {
	s, base := r.locate(a)
	r.stats.IOReads++
	if r.probe(s, base, a>>LineShift) >= 0 {
		return true
	}
	r.stats.IOReadMiss++
	return false
}

// AmbientFill never hits for an address past MaxAddr: background lines
// are drawn from a region so large that none is drawn twice while
// resident, which is what lets the production LLC skip their probe.
func (r *refLLC) AmbientFill(a uint64) Victim {
	s, base := r.locate(a)
	tag := a >> LineShift
	if a <= MaxAddr && r.probe(s, base, tag) >= 0 {
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
func runDifferential(t *testing.T, policy ReplacementPolicy, ways int, seed uint64, nOps int) {
	t.Helper()
	cfg := LLCConfig{Slices: 3, Ways: ways, SetsPerSlice: 16, HitCycles: 44, Policy: policy}
	l := NewLLC(cfg, 2)
	r := newRefLLC(cfg)
	rng := diffSplitmix(seed)

	// Small address pools so sets actually fill and evict. Besides low
	// lines, the pool holds the lines just below MaxAddr, so victims must
	// round-trip tags next to 2^32.
	addrs := uint64(3 * ways * 16 * 3)
	pool := make([]uint64, 0, 2*addrs)
	for a := uint64(0); a < addrs; a++ {
		pool = append(pool, a<<LineShift)
	}
	for a := uint64(0); a < addrs; a++ {
		pool = append(pool, MaxAddr+1-(a+1)<<LineShift)
	}
	// Half the ambient fills draw fresh addresses past MaxAddr the way
	// sim.Platform.ambientChurn does (its generator, bit 40 set, random
	// bits up to bit 61), so they never repeat.
	ambient := rng.next()
	masks := []WayMask{
		FullMask(ways),
		ContiguousMask(0, 4),
		ContiguousMask(2, 5),                 // overlaps the first partially
		ContiguousMask(ways-4, 4),            // disjoint high ways
		ContiguousMask(0, 1),                 // maximal shrink
		WayMask(0x55555555) & FullMask(ways), // non-contiguous: the general datapath case
	}
	for i := 0; i < nOps; i++ {
		a := pool[rng.next()%uint64(len(pool))]
		mask := masks[rng.next()%uint64(len(masks))]
		op := rng.next() % 8
		switch {
		case op < 4: // demand access, read or write
			write := op%2 == 0
			core := int(rng.next() % 2)
			gotHit, gotV := l.Access(core, a, write, mask)
			wantHit, wantV := r.Access(core, a, write, mask)
			if gotHit != wantHit || !sameVictim(gotV, wantV) {
				t.Fatalf("op %d Access(%#x, write=%v, mask=%s): got (%v,%+v) want (%v,%+v)",
					i, a, write, mask, gotHit, gotV, wantHit, wantV)
			}
		case op < 5:
			gotV := l.FillWriteback(a, mask)
			wantV := r.FillWriteback(a, mask)
			if !sameVictim(gotV, wantV) {
				t.Fatalf("op %d FillWriteback(%#x, mask=%s): got %+v want %+v", i, a, mask, gotV, wantV)
			}
		case op < 6:
			gotHit, gotV := l.IOWrite(a, mask)
			wantHit, wantV := r.IOWrite(a, mask)
			if gotHit != wantHit || !sameVictim(gotV, wantV) {
				t.Fatalf("op %d IOWrite(%#x, mask=%s): got (%v,%+v) want (%v,%+v)",
					i, a, mask, gotHit, gotV, wantHit, wantV)
			}
		case op < 7:
			if got, want := l.IORead(a), r.IORead(a); got != want {
				t.Fatalf("op %d IORead(%#x): got %v want %v", i, a, got, want)
			}
		default:
			if rng.next()%2 == 0 {
				ambient = ambient*0x5DEECE66D + 0xB
				a = uint64(1)<<40 | ambient>>8<<LineShift
			}
			gotV := l.AmbientFill(a)
			wantV := r.AmbientFill(a)
			if !sameVictim(gotV, wantV) {
				t.Fatalf("op %d AmbientFill(%#x): got %+v want %+v", i, a, gotV, wantV)
			}
		}
	}
	for _, addr := range pool {
		if got, want := l.WayOf(addr), r.WayOf(addr); got != want {
			t.Fatalf("final state: WayOf(%#x) = %d, ref %d", addr, got, want)
		}
	}
	checkLLCCounters(t, l, r, 2)
}

// checkLLCCounters compares the LLC's counters, summed over slices, and
// the first cores' demand counters with the reference's.
func checkLLCCounters(t *testing.T, l *LLC, r *refLLC, cores int) {
	t.Helper()
	if got := l.TotalStats(); got != r.stats {
		t.Fatalf("counters: got %+v, want %+v", got, r.stats)
	}
	for c := 0; c < cores; c++ {
		if l.CoreRefs(c) != r.coreRefs[c] || l.CoreMisses(c) != r.coreMiss[c] {
			t.Fatalf("core %d: refs/misses %d/%d, want %d/%d", c, l.CoreRefs(c), l.CoreMisses(c), r.coreRefs[c], r.coreMiss[c])
		}
	}
}

// sameVictim compares a production victim with the reference's. A
// background line filled from past MaxAddr keeps no address in the
// production LLC (nothing outside the package reads an LLC victim's
// address), so such a victim is compared on Valid and Dirty only.
func sameVictim(got, want Victim) bool {
	if want.Addr > MaxAddr {
		return got.Valid == want.Valid && got.Dirty == want.Dirty
	}
	return got == want
}

// differentialWays are the LLC shapes the differential tests run: the
// Xeon's 11 ways (one 64 B record, a partly filled rank word), 16 ways
// (a 32-word record) and the 32-way maximum (every rank lane in use).
var differentialWays = []int{11, 16, 32}

// TestLLCDifferentialSRRIP proves the optimised SRRIP datapath (sentinel
// probes, batched ageing, bitmask victim selection over packed rank
// bytes) is operation-for-operation identical to the naive
// pre-optimisation algorithm.
func TestLLCDifferentialSRRIP(t *testing.T) {
	for _, ways := range differentialWays {
		for _, seed := range []uint64{1, 42, 0xDEADBEEF} {
			runDifferential(t, PolicySRRIP, ways, seed, 60000)
		}
	}
}

// TestLLCDifferentialLRU proves the LRU path matches the drift-free
// reference semantics under the same streams, mask shrinks included.
func TestLLCDifferentialLRU(t *testing.T) {
	for _, ways := range differentialWays {
		for _, seed := range []uint64{1, 42, 0xDEADBEEF} {
			runDifferential(t, PolicyLRU, ways, seed, 60000)
		}
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
// in the hierarchy's calling pattern: a lookup, then a fill of the set it
// located only after a miss, with invalidations mixed in. It fails on the
// first divergence in hits, victims (tag and dirtiness) or counters, then
// cross-checks residency over the pool.
func runPrivateDifferential(t *testing.T, cfg LevelConfig, seed uint64, nOps int) {
	t.Helper()
	var p private
	p.init(cfg)
	r := newRefPrivate(cfg)
	rng := diffSplitmix(seed)
	addrs := uint64(cfg.Sets() * cfg.Ways * 3)
	// High addresses too: the lines just below MaxAddr carry tags next
	// to 2^32, which a tag narrower than 32 bits would alias.
	high := MaxAddr + 1 - addrs<<LineShift
	for i := 0; i < nOps; i++ {
		a := (rng.next() % addrs) << LineShift
		if rng.next()%4 == 0 {
			a += high
		}
		a += rng.next() % LineSize // any byte of the line
		tag := lineTag(a)
		op := rng.next() % 8
		if op == 0 {
			set, w := p.find(tag)
			if want, _ := r.invalidate(a); (w >= 0) != want {
				t.Fatalf("op %d invalidate(%#x): present %v, ref %v", i, a, w >= 0, want)
			}
			if w >= 0 {
				p.drop(set, w)
			}
			continue
		}
		write := op%2 == 0
		set, w := p.find(tag)
		p.count(set, w, write)
		if got, want := w >= 0, r.lookup(a, write); got != want {
			t.Fatalf("op %d lookup(%#x, write=%v): got %v want %v", i, a, write, got, want)
		}
		if w >= 0 {
			continue
		}
		dirty := rng.next()%2 == 0
		gv, gd := p.fillAt(set, tag, dirty)
		wv := r.fill(a, dirty)
		if (gv != 0) != wv.Valid || gv != 0 && (tagAddr(gv) != wv.Addr || gd != wv.Dirty) {
			t.Fatalf("op %d fillAt(%#x, dirty=%v): victim tag %#x dirty %v, want %+v", i, a, dirty, gv, gd, wv)
		}
	}
	if p.hits != r.hits || p.misses != r.misses {
		t.Fatalf("counters: got %d/%d hits/misses, want %d/%d", p.hits, p.misses, r.hits, r.misses)
	}
	for a := uint64(0); a < addrs; a++ {
		for _, addr := range []uint64{a << LineShift, a<<LineShift + high} {
			base, tag := r.locate(addr)
			if got, want := p.contains(lineTag(addr)), r.probe(base, tag) >= 0; got != want {
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

// refHierarchy is the hierarchy as it was before one tag was carried
// through the levels: address-based, every level tags and locates each
// line on its own, each private fill re-locates the set its lookup found,
// victims go back to addresses, and a range or a DMA burst is a loop of
// single-line calls (Access, InvalidatePrivate, IOWrite, IORead). It is
// built from refPrivate and refLLC and keeps its own memory controller,
// which sees every read and write in the order the old code issued them.
type refHierarchy struct {
	cfg         HierarchyConfig
	l1, l2      []*refPrivate // nil until the core's first Access
	llc         *refLLC
	mem         *mem.Controller
	cyclesPerNS float64
	remote      []bool
	upiCycles   int64
}

func newRefHierarchy(cfg HierarchyConfig, freqGHz float64) *refHierarchy {
	return &refHierarchy{
		cfg:         cfg,
		l1:          make([]*refPrivate, cfg.Cores),
		l2:          make([]*refPrivate, cfg.Cores),
		llc:         newRefLLC(cfg.LLC),
		mem:         mem.NewController(mem.Config{}),
		cyclesPerNS: freqGHz,
		remote:      make([]bool, cfg.Cores),
	}
}

func (r *refHierarchy) llcEvict(v Victim) {
	if v.Valid && v.Dirty {
		r.mem.Write(LineSize)
	}
}

func (r *refHierarchy) l2Insert(core int, a uint64, dirty bool, mask WayMask) {
	if v := r.l2[core].fill(a, dirty); v.Valid && v.Dirty {
		r.llcEvict(r.llc.FillWriteback(v.Addr, mask))
	}
}

func (r *refHierarchy) l1Insert(core int, a uint64, dirty bool, mask WayMask) {
	if v := r.l1[core].fill(a, dirty); v.Valid && v.Dirty {
		if !r.l2[core].lookup(v.Addr, true) {
			r.l2Insert(core, v.Addr, true, mask)
		}
	}
}

func (r *refHierarchy) Access(core int, a uint64, write bool, mask WayMask) int64 {
	a &^= LineSize - 1
	if r.l1[core] == nil {
		r.l1[core], r.l2[core] = newRefPrivate(r.cfg.L1), newRefPrivate(r.cfg.L2)
	}
	if r.l1[core].lookup(a, write) {
		return r.cfg.L1.HitCycles
	}
	if r.l2[core].lookup(a, write) {
		r.l1Insert(core, a, write, mask)
		return r.cfg.L2.HitCycles
	}
	var upi int64
	if r.remote[core] {
		upi = r.upiCycles
	}
	hit, v := r.llc.Access(core, a, write, mask)
	r.llcEvict(v)
	lat := r.cfg.LLC.HitCycles + upi
	if !hit {
		c := int64(r.mem.Read(LineSize) * r.cyclesPerNS)
		lat += max(c, 1)
	}
	r.l2Insert(core, a, false, mask)
	r.l1Insert(core, a, write, mask)
	return lat
}

func (r *refHierarchy) InvalidatePrivate(core int, a uint64) {
	if r.l1[core] == nil {
		return
	}
	r.l1[core].invalidate(a)
	r.l2[core].invalidate(a)
}

func (r *refHierarchy) contains(core int, a uint64) bool {
	if r.l1[core] == nil {
		return false
	}
	for _, p := range []*refPrivate{r.l1[core], r.l2[core]} {
		if base, tag := p.locate(a); p.probe(base, tag) >= 0 {
			return true
		}
	}
	return false
}

// lines calls f with every line address from the one holding first to
// the one holding last.
func lines(first, last uint64, f func(line uint64)) {
	for line := first &^ (LineSize - 1); line <= last&^(LineSize-1); line += LineSize {
		f(line)
	}
}

// runRangeDifferential drives a production Hierarchy and refHierarchy
// through nOps random operations on three cores and compares every
// result: the ranged entry points (AccessRange, IOWriteRange,
// InvalidatePrivateRange, LLC.IOReadRange) against per-line loops of the
// reference's single-line calls, and the single-line ones against each
// other. Ranges straddle set boundaries, some end at MaxAddr's line, and
// bursts name no consumer (-1), a built core or core 2, whose caches are
// not built until its first access in the second half of the stream. A
// burst's dirty victims are written back after it, as the DDIO engine
// does. Latencies, burst counts, memory traffic, every counter and the
// final residency of every line must agree.
func runRangeDifferential(t *testing.T, policy ReplacementPolicy, seed uint64, nOps int) {
	t.Helper()
	cfg := HierarchyConfig{
		Cores: 3,
		L1:    LevelConfig{SizeBytes: 1 << 10, Ways: 4, HitCycles: 4},  // 4 sets
		L2:    LevelConfig{SizeBytes: 4 << 10, Ways: 8, HitCycles: 14}, // 8 sets
		LLC:   LLCConfig{Slices: 2, Ways: 8, SetsPerSlice: 8, HitCycles: 44, Policy: policy},
	}
	h := NewHierarchy(cfg, 2.3, mem.NewController(mem.Config{}))
	r := newRefHierarchy(cfg, 2.3)
	h.SetRemote(1, true, 60)
	r.remote[1], r.upiCycles = true, int64(60*2.3)
	rng := diffSplitmix(seed)

	// Twice the LLC's lines at the bottom of memory and as many ending
	// at MaxAddr, so sets fill, evict and carry tags next to 2^32.
	const poolLines = 2 * 2 * 8 * 8
	high := MaxAddr + 1 - poolLines*LineSize
	addrOf := func(i uint64) uint64 {
		if i < poolLines {
			return i * LineSize
		}
		return high + (i-poolLines)*LineSize
	}
	masks := []WayMask{0, FullMask(8), ContiguousMask(0, 4), ContiguousMask(6, 2), ContiguousMask(2, 3)}
	span := func() (first, last uint64) {
		n := 1 + rng.next()%40
		start := rng.next() % (2*poolLines - n + 1)
		if rng.next()%6 == 0 {
			start = 2*poolLines - n // ends on MaxAddr's line
		}
		first = addrOf(start) + rng.next()%LineSize
		last = addrOf(start+n-1) + rng.next()%LineSize
		if start < poolLines && start+n > poolLines {
			last = addrOf(poolLines-1) + rng.next()%LineSize // the pools are not contiguous
		}
		return first, last
	}
	for i := 0; i < nOps; i++ {
		if i%500 == 0 {
			h.Mem().BeginEpoch(2e4)
			r.mem.BeginEpoch(2e4)
		}
		core := int(rng.next() % 2)
		if i >= nOps/2 {
			core = int(rng.next() % 3)
		}
		consumer := int(rng.next()%4) - 1
		mask := masks[rng.next()%uint64(len(masks))]
		write := rng.next()%2 == 0
		switch op := rng.next() % 16; {
		case op < 5:
			a := addrOf(rng.next()%(2*poolLines)) + rng.next()%LineSize
			if got, want := h.Access(core, a, write, mask), r.Access(core, a, write, mask); got != want {
				t.Fatalf("op %d Access(%d, %#x, %v, %s) = %d, ref %d", i, core, a, write, mask, got, want)
			}
		case op < 9:
			first, last := span()
			var want int64
			lines(first, last, func(line uint64) { want += r.Access(core, line, write, mask) })
			if got := h.AccessRange(core, first, last, write, mask); got != want {
				t.Fatalf("op %d AccessRange(%d, %#x, %#x, %v, %s) = %d, ref %d", i, core, first, last, write, mask, got, want)
			}
		case op < 12:
			first, last := span()
			var updates, allocs, writebacks int
			lines(first, last, func(line uint64) {
				if consumer >= 0 {
					r.InvalidatePrivate(consumer, line)
				}
				switch hit, v := r.llc.IOWrite(line, mask); {
				case hit:
					updates++
				case v.Valid && v.Dirty:
					allocs++
					writebacks++
					r.mem.Write(LineSize)
				default:
					allocs++
				}
			})
			u, a, wb := h.IOWriteRange(consumer, first, last, mask)
			if u != updates || a != allocs || wb != writebacks {
				t.Fatalf("op %d IOWriteRange(%d, %#x, %#x, %s) = %d/%d/%d updates/allocs/writebacks, ref %d/%d/%d",
					i, consumer, first, last, mask, u, a, wb, updates, allocs, writebacks)
			}
			for ; wb > 0; wb-- {
				h.Mem().Write(LineSize)
			}
		case op < 14:
			first, last := span()
			hits := 0
			lines(first, last, func(line uint64) {
				if r.llc.IORead(line) {
					hits++
				}
			})
			if got := h.LLC().IOReadRange(first, last); got != hits {
				t.Fatalf("op %d IOReadRange(%#x, %#x) = %d, ref %d", i, first, last, got, hits)
			}
		case op < 15:
			first, last := span()
			if consumer >= 0 {
				lines(first, last, func(line uint64) { r.InvalidatePrivate(consumer, line) })
			}
			h.InvalidatePrivateRange(consumer, first, last)
		default:
			a := addrOf(rng.next() % (2 * poolLines))
			if got, want := h.LLC().FillWriteback(a, mask), r.llc.FillWriteback(a, mask); got != want {
				t.Fatalf("op %d FillWriteback(%#x, %s) = %+v, ref %+v", i, a, mask, got, want)
			}
		}
		if got, want := h.Mem().Stats(), r.mem.Stats(); got != want {
			t.Fatalf("op %d: memory traffic %v, ref %v", i, got, want)
		}
		if i == nOps/2-1 && h.priv[2] != nil {
			t.Fatal("bursts and invalidations naming core 2 built its caches")
		}
	}
	for c := 0; c < cfg.Cores; c++ {
		gh1, gm1 := h.L1Stats(c)
		gh2, gm2 := h.L2Stats(c)
		var wh1, wm1, wh2, wm2 uint64
		if r.l1[c] != nil {
			wh1, wm1, wh2, wm2 = r.l1[c].hits, r.l1[c].misses, r.l2[c].hits, r.l2[c].misses
		}
		if gh1 != wh1 || gm1 != wm1 || gh2 != wh2 || gm2 != wm2 {
			t.Fatalf("core %d: L1 %d/%d L2 %d/%d hits/misses, ref L1 %d/%d L2 %d/%d", c, gh1, gm1, gh2, gm2, wh1, wm1, wh2, wm2)
		}
		for i := uint64(0); i < 2*poolLines; i++ {
			if got, want := h.PrivateContains(c, addrOf(i)), r.contains(c, addrOf(i)); got != want {
				t.Fatalf("final state: core %d PrivateContains(%#x) = %v, ref %v", c, addrOf(i), got, want)
			}
		}
	}
	for i := uint64(0); i < 2*poolLines; i++ {
		if got, want := h.LLC().WayOf(addrOf(i)), r.llc.WayOf(addrOf(i)); got != want {
			t.Fatalf("final state: WayOf(%#x) = %d, ref %d", addrOf(i), got, want)
		}
	}
	checkLLCCounters(t, h.LLC(), r.llc, cfg.Cores)
}

// TestHierarchyRangeDifferential proves that carrying one tag through
// the levels and the ranged entry points changed no simulated bit: op
// for op, they match per-line runs of the pre-change hierarchy under
// both replacement policies.
func TestHierarchyRangeDifferential(t *testing.T) {
	for _, policy := range []ReplacementPolicy{PolicySRRIP, PolicyLRU} {
		for _, seed := range []uint64{1, 42, 0xDEADBEEF} {
			runRangeDifferential(t, policy, seed, 20000)
		}
	}
}
