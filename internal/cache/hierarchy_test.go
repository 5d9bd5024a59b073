package cache

import (
	"math/rand"
	"testing"

	"iatsim/internal/mem"
)

// testHierarchy builds a 2-core hierarchy with small private caches.
func testHierarchy() *Hierarchy {
	cfg := HierarchyConfig{
		Cores: 2,
		L1:    LevelConfig{SizeBytes: 4 << 10, Ways: 4, HitCycles: 4},
		L2:    LevelConfig{SizeBytes: 32 << 10, Ways: 8, HitCycles: 14},
		LLC:   LLCConfig{Slices: 2, Ways: 8, SetsPerSlice: 64, HitCycles: 44},
	}
	return NewHierarchy(cfg, 2.3, mem.NewController(mem.Config{}))
}

func TestHierarchyLatencyLadder(t *testing.T) {
	h := testHierarchy()
	mask := FullMask(8)
	const a = 0x8000
	memLat := h.Access(0, a, false, mask) // cold: memory
	l1Lat := h.Access(0, a, false, mask)  // now in L1
	if l1Lat != 4 {
		t.Fatalf("L1 hit latency = %d", l1Lat)
	}
	if memLat <= 44 {
		t.Fatalf("memory access latency = %d, want > LLC hit", memLat)
	}
}

func TestHierarchyL2ThenLLCHit(t *testing.T) {
	h := testHierarchy()
	mask := FullMask(8)
	const a = 0x9000
	h.Access(0, a, false, mask)
	// Push a out of L1 with conflicting lines (same L1 set: stride by
	// L1 set span = 16 sets * 64B = 1KB).
	for i := 1; i <= 8; i++ {
		h.Access(0, a+uint64(i)*1024, false, mask)
	}
	lat := h.Access(0, a, false, mask)
	if lat != 14 {
		t.Fatalf("expected L2 hit (14 cy), got %d", lat)
	}
}

func TestHierarchyDirtyEvictionReachesMemory(t *testing.T) {
	h := testHierarchy()
	mask := ContiguousMask(0, 1) // 1 LLC way: heavy LLC churn
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50000; i++ {
		h.Access(0, uint64(rng.Intn(1<<16))<<6, true, mask)
	}
	if h.Mem().Stats().BytesWritten == 0 {
		t.Fatal("dirty evictions never reached memory")
	}
}

func TestInvalidatePrivateForcesRefetch(t *testing.T) {
	h := testHierarchy()
	mask := FullMask(8)
	const a = 0xA000
	h.Access(0, a, false, mask)
	if !h.PrivateContains(0, a) {
		t.Fatal("line should be in private caches")
	}
	h.InvalidatePrivate(0, a)
	if h.PrivateContains(0, a) {
		t.Fatal("invalidate left the line in private caches")
	}
	// Next access must go below L2 (LLC still has it: 44 cy).
	if lat := h.Access(0, a, false, mask); lat < 44 {
		t.Fatalf("post-invalidate access latency = %d, want >= 44", lat)
	}
}

func TestPrivateCachesArePerCore(t *testing.T) {
	h := testHierarchy()
	mask := FullMask(8)
	const a = 0xB000
	h.Access(0, a, false, mask)
	if h.PrivateContains(1, a) {
		t.Fatal("core 1's private caches contain core 0's line")
	}
	// Core 1's first access is at least an LLC hit, never an L1 hit.
	if lat := h.Access(1, a, false, mask); lat < 44 {
		t.Fatalf("cross-core first access latency = %d", lat)
	}
}

func TestL1L2StatsAdvance(t *testing.T) {
	h := testHierarchy()
	mask := FullMask(8)
	for i := 0; i < 100; i++ {
		h.Access(0, uint64(i)<<6, false, mask)
		h.Access(0, uint64(i)<<6, false, mask)
	}
	h1, m1 := h.L1Stats(0)
	if h1 == 0 || m1 == 0 {
		t.Fatalf("L1 stats hits=%d misses=%d", h1, m1)
	}
	if _, m2 := h.L2Stats(0); m2 == 0 {
		t.Fatal("L2 never missed")
	}
}

func TestLevelConfigValidate(t *testing.T) {
	good := LevelConfig{SizeBytes: 32 << 10, Ways: 8, HitCycles: 4}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (LevelConfig{SizeBytes: 100, Ways: 8}).Validate(); err == nil {
		t.Error("non-divisible size accepted")
	}
	if err := (LevelConfig{SizeBytes: 24 << 10, Ways: 8}).Validate(); err == nil {
		t.Error("non-power-of-two set count accepted")
	}
	if err := (LevelConfig{SizeBytes: 32 << 10, Ways: 0}).Validate(); err == nil {
		t.Error("zero ways accepted")
	}
}

func TestHierarchyConfigValidate(t *testing.T) {
	cfg := XeonGold6140Hierarchy(18)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.Cores = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero cores accepted")
	}
}

func TestWritebackAllocatesWithOwnerMask(t *testing.T) {
	// A dirty L2 victim must be re-allocated into the owner's CURRENT
	// mask — the mechanism by which hot data migrates after a shuffle.
	h := testHierarchy()
	const a = 0xC0000
	h.Access(0, a, true, ContiguousMask(6, 2)) // dirty under old mask
	// Evict from L1+L2 by thrashing the same L1/L2 sets.
	newMask := ContiguousMask(0, 2)
	for i := 1; i < 40; i++ {
		h.Access(0, a+uint64(i)*32<<10, true, newMask) // same L2 set stride
	}
	if w := h.LLC().WayOf(a); w >= 0 && !newMask.Has(w) && !ContiguousMask(6, 2).Has(w) {
		t.Fatalf("line in unexpected way %d", w)
	}
}

func TestRemoteCorePaysUPIBelowPrivateCaches(t *testing.T) {
	h := testHierarchy()
	h.SetRemote(1, true, 60) // ~138 cycles at 2.3GHz
	mask := FullMask(8)
	const a = 0xD0000
	// Warm the line into the LLC via the local core.
	h.Access(0, a, false, mask)
	localHit := h.Access(0, a+64, false, mask) // cold for comparison shape
	_ = localHit
	// Remote LLC hit: base 44 + UPI.
	lat := h.Access(1, a, false, mask)
	if lat < 44+100 {
		t.Fatalf("remote LLC hit latency = %d, want >= 144", lat)
	}
	// Once in the remote core's private caches, no UPI.
	if l1 := h.Access(1, a, false, mask); l1 != 4 {
		t.Fatalf("remote L1 hit latency = %d", l1)
	}
	if !h.IsRemote(1) || h.IsRemote(0) {
		t.Fatal("IsRemote flags wrong")
	}
}

func TestRemoteCoreMemoryAccessAlsoPaysUPI(t *testing.T) {
	h := testHierarchy()
	mask := FullMask(8)
	localMem := h.Access(0, 0xE0000, false, mask)
	h.SetRemote(1, true, 60)
	remoteMem := h.Access(1, 0xF0000, false, mask)
	if remoteMem <= localMem+100 {
		t.Fatalf("remote memory access %d not ~UPI above local %d", remoteMem, localMem)
	}
}

// TestUntouchedCoreIsEmpty: a core that never accessed memory has no
// private caches built, yet reads as an empty, working pair of caches —
// zero counters, nothing resident, invalidations are no-ops — and its
// first access then behaves exactly like a fresh core's.
func TestUntouchedCoreIsEmpty(t *testing.T) {
	h := testHierarchy()
	const a = 0xB000
	if h1, m1 := h.L1Stats(1); h1 != 0 || m1 != 0 {
		t.Fatalf("untouched L1Stats = %d/%d", h1, m1)
	}
	if h2, m2 := h.L2Stats(1); h2 != 0 || m2 != 0 {
		t.Fatalf("untouched L2Stats = %d/%d", h2, m2)
	}
	if h.PrivateContains(1, a) {
		t.Fatal("untouched core contains a line")
	}
	h.InvalidatePrivate(1, a)
	h.InvalidatePrivateRange(1, a, a+4*LineSize)
	h.IOWriteRange(1, a, a+4*LineSize, FullMask(8))
	if h.priv[1] != nil {
		t.Fatal("queries on an untouched core built its caches")
	}

	// Core 1 of h and core 0 of a fresh hierarchy see the same stream
	// (after the same DMA burst, with no consumer core).
	fresh := testHierarchy()
	fresh.IOWriteRange(-1, a, a+4*LineSize, FullMask(8))
	mask := FullMask(8)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		addr := uint64(rng.Intn(1<<10)) << LineShift
		write := rng.Intn(2) == 0
		if got, want := h.Access(1, addr, write, mask), fresh.Access(0, addr, write, mask); got != want {
			t.Fatalf("access %d (%#x): latency %d, fresh core %d", i, addr, got, want)
		}
	}
	gh1, gm1 := h.L1Stats(1)
	wh1, wm1 := fresh.L1Stats(0)
	gh2, gm2 := h.L2Stats(1)
	wh2, wm2 := fresh.L2Stats(0)
	if gh1 != wh1 || gm1 != wm1 || gh2 != wh2 || gm2 != wm2 {
		t.Fatalf("stats L1 %d/%d L2 %d/%d, fresh core L1 %d/%d L2 %d/%d",
			gh1, gm1, gh2, gm2, wh1, wm1, wh2, wm2)
	}
}
