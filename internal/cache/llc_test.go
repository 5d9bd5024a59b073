package cache

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"iatsim/internal/addr"
)

// testLLC returns a small LLC for focused tests: 2 slices, 8 ways, 64 sets.
func testLLC(cores int) *LLC {
	return NewLLC(LLCConfig{Slices: 2, Ways: 8, SetsPerSlice: 64, HitCycles: 40}, cores)
}

func TestLLCConfigValidate(t *testing.T) {
	good := LLCConfig{Slices: 2, Ways: 8, SetsPerSlice: 64}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []LLCConfig{
		{Slices: 0, Ways: 8, SetsPerSlice: 64},
		{Slices: 2, Ways: 0, SetsPerSlice: 64},
		{Slices: 2, Ways: 40, SetsPerSlice: 64},
		{Slices: 2, Ways: 8, SetsPerSlice: 63},
		{Slices: 2, Ways: 8, SetsPerSlice: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error for %+v", i, c)
		}
	}
}

func TestLLCSizeArithmetic(t *testing.T) {
	c := XeonGold6140Hierarchy(18).LLC
	if got := c.SizeBytes(); got != 24.75*(1<<20) {
		t.Errorf("LLC size = %d, want 24.75MB", got)
	}
	if got := c.WayBytes(); got != c.SizeBytes()/11 {
		t.Errorf("way bytes = %d", got)
	}
}

func TestLLCMissThenHit(t *testing.T) {
	l := testLLC(1)
	const a = 0x1000
	hit, _ := l.Access(0, a, false, FullMask(8))
	if hit {
		t.Fatal("first access should miss")
	}
	hit, _ = l.Access(0, a, false, FullMask(8))
	if !hit {
		t.Fatal("second access should hit")
	}
	if l.CoreRefs(0) != 2 || l.CoreMisses(0) != 1 {
		t.Fatalf("refs=%d misses=%d", l.CoreRefs(0), l.CoreMisses(0))
	}
}

func TestLLCAllocateOnlyInMask(t *testing.T) {
	l := testLLC(1)
	mask := ContiguousMask(2, 2) // ways 2-3 only
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		a := uint64(rng.Intn(1 << 20))
		l.Access(0, a<<6, rng.Intn(2) == 0, mask)
	}
	occ := l.OccupancyByWay()
	for w, n := range occ {
		if mask.Has(w) {
			if n == 0 {
				t.Errorf("way %d in mask has no lines", w)
			}
		} else if n != 0 {
			t.Errorf("way %d outside mask has %d lines", w, n)
		}
	}
}

func TestLLCHitAnywhere(t *testing.T) {
	// Footnote 1: a core hits lines in ways outside its mask.
	l := testLLC(2)
	const a = 0x40000
	l.Access(0, a, false, ContiguousMask(6, 2)) // core 0 fills into ways 6-7
	hit, _ := l.Access(1, a, false, ContiguousMask(0, 2))
	if !hit {
		t.Fatal("core 1 should hit the line filled by core 0 outside its own mask")
	}
}

func TestLLCVictimWriteback(t *testing.T) {
	l := NewLLC(LLCConfig{Slices: 1, Ways: 2, SetsPerSlice: 1}, 1)
	mask := FullMask(2)
	// Fill the single set with dirty lines, then overflow it.
	addrs := []uint64{0 << 6, 1 << 6, 2 << 6}
	var wb int
	for _, a := range addrs {
		_, v := l.Access(0, a, true, mask)
		if v.Valid && v.Dirty {
			wb++
		}
	}
	if wb != 1 {
		t.Fatalf("expected exactly one dirty victim, got %d", wb)
	}
	if l.TotalStats().Writebacks != 1 {
		t.Fatalf("writeback counter = %d", l.TotalStats().Writebacks)
	}
}

func TestDDIOWriteUpdateVsAllocate(t *testing.T) {
	l := testLLC(1)
	ddio := ContiguousMask(6, 2)
	const a = 0x2000
	hit, _ := l.IOWrite(a, ddio)
	if hit {
		t.Fatal("first IO write should allocate")
	}
	hit, _ = l.IOWrite(a, ddio)
	if !hit {
		t.Fatal("second IO write should update")
	}
	st := l.TotalStats()
	if st.DDIOHits != 1 || st.DDIOMisses != 1 {
		t.Fatalf("ddio hit=%d miss=%d", st.DDIOHits, st.DDIOMisses)
	}
	// Allocation must be inside the DDIO mask.
	if w := l.WayOf(a); !ddio.Has(w) {
		t.Fatalf("IO allocate landed in way %d outside mask %v", w, ddio)
	}
}

func TestDDIOWriteUpdateHitsAnyWay(t *testing.T) {
	// Write update applies even when the line lives outside the DDIO
	// mask (e.g. a core allocated it under its own mask).
	l := testLLC(1)
	const a = 0x3000
	l.Access(0, a, false, ContiguousMask(0, 2)) // line lands in ways 0-1
	hit, _ := l.IOWrite(a, ContiguousMask(6, 2))
	if !hit {
		t.Fatal("IO write should update the line wherever it lives")
	}
	if l.TotalStats().DDIOMisses != 0 {
		t.Fatal("no write allocate expected")
	}
}

func TestIOReadNeverAllocates(t *testing.T) {
	l := testLLC(1)
	const a = 0x5000
	if l.IORead(a) {
		t.Fatal("read of absent line should miss")
	}
	if l.Contains(a) {
		t.Fatal("IORead must not allocate")
	}
	st := l.TotalStats()
	if st.IOReads != 1 || st.IOReadMiss != 1 {
		t.Fatalf("io read stats %+v", st)
	}
	// Resident line: served from LLC.
	l.Access(0, a, false, FullMask(8))
	if !l.IORead(a) {
		t.Fatal("read of resident line should hit")
	}
}

func TestSRRIPEvictsUnreferencedUnderChurn(t *testing.T) {
	// A line parked in a way and never re-referenced must be displaced
	// by sustained allocation churn in that way (the anti-squatting
	// property the shuffling step depends on).
	l := NewLLC(LLCConfig{Slices: 1, Ways: 4, SetsPerSlice: 4}, 1)
	mask := FullMask(4)
	const squat = 0x9000
	l.Access(0, squat, false, mask)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4*4*8; i++ {
		l.Access(0, uint64(0x100000+rng.Intn(1<<16))<<6, false, mask)
	}
	if l.Contains(squat) {
		t.Fatal("unreferenced line survived heavy churn")
	}
}

func TestFillWritebackKeepsCapacityAccounting(t *testing.T) {
	l := testLLC(1)
	const a = 0x7000
	v := l.FillWriteback(a, ContiguousMask(0, 2))
	if v.Valid {
		t.Fatal("no victim expected in an empty set")
	}
	if !l.Contains(a) {
		t.Fatal("writeback fill should install the line")
	}
	// Re-filling an existing line must not displace anything.
	if v := l.FillWriteback(a, ContiguousMask(0, 2)); v.Valid {
		t.Fatal("refill displaced a victim")
	}
	// Writeback fills are not demand references.
	if l.CoreRefs(0) != 0 {
		t.Fatal("FillWriteback counted as a demand reference")
	}
}

func TestSliceStatsAggregation(t *testing.T) {
	l := testLLC(1)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		l.Access(0, uint64(rng.Intn(1<<18))<<6, false, FullMask(8))
	}
	var sum SliceStats
	for s := 0; s < 2; s++ {
		sum.Add(l.SliceStats(s))
	}
	if sum != l.TotalStats() {
		t.Fatalf("slice sum %+v != total %+v", sum, l.TotalStats())
	}
	if sum.Lookups != 5000 {
		t.Fatalf("lookups = %d", sum.Lookups)
	}
	// Uniform hashing: neither slice should be starved.
	for s := 0; s < 2; s++ {
		if st := l.SliceStats(s); st.Lookups < 2000 {
			t.Errorf("slice %d only got %d lookups", s, st.Lookups)
		}
	}
}

// Property: after any access sequence, per-way occupancy stays within the
// set-count bound and demand misses never exceed references.
func TestLLCInvariantsProperty(t *testing.T) {
	f := func(seed int64, maskBits uint8) bool {
		l := testLLC(1)
		mask := WayMask(maskBits) & FullMask(8)
		if mask == 0 {
			mask = FullMask(8)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 3000; i++ {
			l.Access(0, uint64(rng.Intn(1<<16))<<6, rng.Intn(2) == 0, mask)
		}
		occ := l.OccupancyByWay()
		for _, n := range occ {
			if n > 2*64 { // slices * sets
				return false
			}
		}
		return l.CoreMisses(0) <= l.CoreRefs(0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: the slice/set hash maps any address deterministically.
func TestLocateDeterministicProperty(t *testing.T) {
	l := testLLC(1)
	f := func(a uint64) bool {
		s1, b1 := l.locate(a >> LineShift)
		s2, b2 := l.locate(a >> LineShift)
		return s1 == s2 && b1 == b2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAmbientFillDisplacesIdleLines(t *testing.T) {
	l := NewLLC(LLCConfig{Slices: 1, Ways: 2, SetsPerSlice: 2}, 1)
	const a = 0x11000
	l.Access(0, a, false, FullMask(2))
	for i := 0; i < 64; i++ {
		l.AmbientFill(uint64(0x400000+i) << 6)
	}
	if l.Contains(a) {
		t.Fatal("ambient churn failed to displace an idle line in a tiny cache")
	}
	// Ambient fills must not touch demand counters.
	if l.CoreRefs(0) != 1 {
		t.Fatalf("ambient fill polluted demand counters: refs=%d", l.CoreRefs(0))
	}
}

func TestLRUPolicyPromotesAndRetains(t *testing.T) {
	// Under LRU, a frequently re-referenced line survives churn in its
	// set — even parked outside its owner's current mask — while SRRIP
	// ages it out (TestSRRIPEvictsUnreferencedUnderChurn covers the
	// converse). This is the replacement-policy/CAT interaction the
	// repository's ablation study documents.
	l := NewLLC(LLCConfig{Slices: 1, Ways: 4, SetsPerSlice: 4, Policy: PolicyLRU}, 1)
	mask := FullMask(4)
	const hot = 0x9000
	l.Access(0, hot, false, mask)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4*4*8; i++ {
		l.Access(0, uint64(0x100000+rng.Intn(1<<16))<<6, false, mask)
		l.Access(0, hot, false, mask) // constant re-reference
	}
	if !l.Contains(hot) {
		t.Fatal("LRU evicted a constantly re-referenced line")
	}
}

func TestLRUVictimIsLeastRecentlyUsed(t *testing.T) {
	l := NewLLC(LLCConfig{Slices: 1, Ways: 2, SetsPerSlice: 1, Policy: PolicyLRU}, 1)
	mask := FullMask(2)
	l.Access(0, 0<<6, false, mask) // A
	l.Access(0, 1<<6, false, mask) // B
	l.Access(0, 0<<6, false, mask) // touch A: B is now LRU
	l.Access(0, 2<<6, false, mask) // C evicts B
	if !l.Contains(0<<6) || l.Contains(1<<6) || !l.Contains(2<<6) {
		t.Fatal("LRU evicted the wrong line")
	}
}

func TestPolicyString(t *testing.T) {
	if PolicySRRIP.String() != "srrip" || PolicyLRU.String() != "lru" {
		t.Error("policy strings wrong")
	}
}

// TestLLCSetRecordIsOneHostLine pins the packed set layout: at the Xeon's
// 11 ways a set's tags, rank bytes, valid and dirty words fill exactly
// one 64 B record, and every slice's array starts on a 64 B boundary, so
// a probe, hit or fill touches one host cache line. A field added to the
// record later must not silently spill a set onto a second line.
func TestLLCSetRecordIsOneHostLine(t *testing.T) {
	l := NewLLC(XeonGold6140Hierarchy(18).LLC, 18)
	if stride := 4 << l.strideShift; stride != 64 {
		t.Fatalf("Xeon set record is %d B, want 64", stride)
	}
	for i := range l.slices {
		if p := reflect.ValueOf(l.slices[i].sets).Pointer(); p%64 != 0 {
			t.Fatalf("slice %d records start at %#x, not 64 B-aligned", i, p)
		}
	}
	// Every valid shape gets the smallest power-of-two record that holds
	// it.
	for ways := 1; ways <= 32; ways++ {
		l := NewLLC(LLCConfig{Slices: 1, Ways: ways, SetsPerSlice: 1}, 1)
		need, stride := ways+(ways+3)/4+2, 1<<l.strideShift
		if l.validOff+2 != need || stride < need || stride >= 2*need {
			t.Errorf("%d ways: record of %d words for %d needed (valid word at %d)", ways, stride, need, l.validOff)
		}
	}
}

// TestTagBoundFailsLoudly proves that 32-bit tags cannot alias: every
// cache entry point refuses an address past MaxAddr with a cache: panic
// (only AmbientFill accepts one, as a background line), and the address
// allocator refuses to hand out memory past its limit, which lies inside
// the bound.
func TestTagBoundFailsLoudly(t *testing.T) {
	if addr.Limit > MaxAddr {
		t.Fatalf("addr.Limit %#x is past cache.MaxAddr %#x", uint64(addr.Limit), MaxAddr)
	}
	mustPanic := func(name, prefix string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			msg, _ := recover().(string)
			if !strings.HasPrefix(msg, prefix) {
				t.Errorf("%s: recovered %q, want a %q panic", name, msg, prefix)
			}
		}()
		f()
	}
	l := testLLC(1)
	h := testHierarchy()
	h.Mem().BeginEpoch(1e12)
	full := FullMask(8)
	for _, a := range []uint64{MaxAddr + 1, 1 << 40, 1 << 61, ^uint64(0)} {
		mustPanic("Access", "cache:", func() { l.Access(0, a, false, full) })
		mustPanic("IOWrite", "cache:", func() { l.IOWrite(a, full) })
		mustPanic("FillWriteback", "cache:", func() { l.FillWriteback(a, full) })
		mustPanic("IORead", "cache:", func() { l.IORead(a) })
		mustPanic("Hierarchy.Access", "cache:", func() { h.Access(0, a, true, full) })
		// A range or burst that ends past the bound panics before it
		// touches any line, from a built core or an unbuilt one.
		before := h.LLC().TotalStats()
		for core := 0; core < 2; core++ {
			mustPanic("AccessRange", "cache:", func() { h.AccessRange(core, MaxAddr-LineSize, a, false, full) })
			mustPanic("IOWriteRange", "cache:", func() { h.IOWriteRange(core, MaxAddr-LineSize, a, full) })
			mustPanic("InvalidatePrivateRange", "cache:", func() { h.InvalidatePrivateRange(core, MaxAddr-LineSize, a) })
			mustPanic("InvalidatePrivate", "cache:", func() { h.InvalidatePrivate(core, a) })
		}
		mustPanic("IOWriteRange", "cache:", func() { h.IOWriteRange(-1, MaxAddr-LineSize, a, full) })
		mustPanic("IOReadRange", "cache:", func() { h.LLC().IOReadRange(MaxAddr-LineSize, a) })
		if h.LLC().TotalStats() != before {
			t.Fatalf("a range past MaxAddr changed the LLC: %+v, was %+v", h.LLC().TotalStats(), before)
		}
	}
	// The last in-range line still works at every entry point, and a
	// background fill from past the bound is accepted.
	l.Access(0, MaxAddr, true, full)
	if hit, _ := l.IOWrite(MaxAddr, full); !hit {
		t.Fatal("the line at MaxAddr was not cached")
	}
	h.Access(0, MaxAddr, true, full)
	if !h.PrivateContains(0, MaxAddr) {
		t.Fatal("the line at MaxAddr was not cached privately")
	}
	h.AccessRange(0, MaxAddr-4*LineSize, MaxAddr, false, full)
	if u, a, _ := h.IOWriteRange(0, MaxAddr-4*LineSize, MaxAddr, full); u+a != 5 {
		t.Fatalf("a burst ending at MaxAddr wrote %d lines, want 5", u+a)
	}
	if h.PrivateContains(0, MaxAddr) {
		t.Fatal("a burst ending at MaxAddr left the consumer's copy")
	}
	if hits := h.LLC().IOReadRange(MaxAddr-4*LineSize, MaxAddr); hits != 5 {
		t.Fatalf("a read ending at MaxAddr hit %d lines, want 5", hits)
	}
	if v := l.AmbientFill(1 << 40); v.Valid {
		t.Fatalf("background fill into a non-full set displaced %+v", v)
	}

	al := addr.NewAllocator(addr.Limit - 2*addr.LineSize)
	al.Alloc(addr.LineSize, 0)
	al.Alloc(addr.LineSize, 0) // ends exactly at the limit
	mustPanic("Alloc", "addr:", func() { al.Alloc(1, 0) })
	mustPanic("Alloc", "addr:", func() { addr.NewAllocator(1<<30).Alloc(addr.Limit, 0) })
	mustPanic("Alloc", "addr:", func() { addr.NewAllocator(0).Alloc(^uint64(0), 0) })
}
