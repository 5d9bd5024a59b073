package cache

import (
	"fmt"
	"testing"
)

// oneSetLLC builds a degenerate one-slice, one-set LLC so every address
// collides: the sharpest lens for replacement-order bugs.
func oneSetLLC(policy ReplacementPolicy) *LLC {
	return NewLLC(LLCConfig{Slices: 1, Ways: 11, SetsPerSlice: 1, HitCycles: 44, Policy: policy}, 1)
}

// TestLLCLRUMaskShrinkAgeCorruption is the regression test for the
// LRU-age corruption bug: lruInsert aged EVERY valid line on each
// insertion — including lines already older than the departing victim —
// so lines parked outside the active mask gained one rank per insert
// without bound until their uint8 ranks pinned at 255. Two parked lines
// then tie at 255 and their true age order is gone: the victim scan
// breaks the tie by way index and evicts the *younger* of the two. A
// mask shrink (SetParams/rollout path) is exactly what parks lines
// out-of-mask long enough. Drift-free insertion (age only lines younger
// than the departed victim's rank) keeps ranks a permutation, where this
// cannot happen.
func TestLLCLRUMaskShrinkAgeCorruption(t *testing.T) {
	l := oneSetLLC(PolicyLRU)
	addr := func(i int) uint64 { return uint64(i) << LineShift }

	// Fill the set; fill i lands in way i.
	for i := 0; i < 11; i++ {
		l.Access(0, addr(i), false, FullMask(11))
	}
	// Re-reference way 0's line: it is now strictly younger than way
	// 1's line.
	if hit, _ := l.Access(0, addr(0), false, FullMask(11)); !hit {
		t.Fatal("setup: re-reference of line 0 missed")
	}
	younger, older := addr(0), addr(1)

	// The mask shrinks: ways 0 and 1 no longer belong to anyone. 280 >
	// 256 insertions saturate both parked lines' ranks at 255.
	shrunk := ContiguousMask(2, 9)
	for i := 0; i < 280; i++ {
		_, v := l.Access(0, addr(100+i), false, shrunk)
		if v.Valid && (v.Addr == younger || v.Addr == older) {
			t.Fatalf("insert %d under mask %s evicted out-of-mask line %#x", i, shrunk, v.Addr)
		}
	}

	// Expand back to the full mask: way 1's line has been unreferenced
	// the longest and must be the LRU victim. With saturated ranks the
	// tie-break picks way 0's strictly younger line instead.
	_, v := l.Access(0, addr(999), false, FullMask(11))
	if !v.Valid {
		t.Fatal("full-mask fill displaced nothing")
	}
	if v.Addr == younger {
		t.Fatalf("LRU age corruption: evicted the recently-referenced line %#x, not the stale %#x", younger, older)
	}
	if v.Addr != older {
		t.Fatalf("full-mask fill evicted %#x, want the oldest line %#x", v.Addr, older)
	}
}

// checkLRUPermutation asserts the LRU invariant the drift-free insert
// maintains: in every set, the ranks of the k valid lines are exactly
// {0..k-1}.
func checkLRUPermutation(t *testing.T, l *LLC) {
	t.Helper()
	for s := range l.slices {
		sl := &l.slices[s]
		for set := 0; set < l.cfg.SetsPerSlice; set++ {
			base := set << l.strideShift
			rr := l.ranks(sl, base)
			var seen [32]bool
			k := 0
			for w := 0; w < l.cfg.Ways; w++ {
				if sl.sets[base+l.validOff]&(1<<uint(w)) == 0 {
					continue
				}
				r := int(rank(rr, w))
				if r >= l.cfg.Ways || seen[r] {
					t.Fatalf("slice %d set %d: LRU ranks are not a permutation (way %d rank %d)", s, set, w, r)
				}
				seen[r] = true
				k++
			}
			for r := 0; r < k; r++ {
				if !seen[r] {
					t.Fatalf("slice %d set %d: %d valid lines but rank %d unused", s, set, k, r)
				}
			}
		}
	}
}

// checkFillsInMask fills fresh lines under mask and asserts every
// fill's way is in-mask.
func checkFillsInMask(t *testing.T, l *LLC, mask WayMask, next *uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		a := *next << LineShift
		*next++
		hit, _ := l.Access(0, a, false, mask)
		if hit {
			t.Fatalf("fresh line %#x hit", a)
		}
		if w := l.WayOf(a); w < 0 || !mask.Has(w) {
			t.Fatalf("fill under mask %s landed in way %d", mask, w)
		}
	}
}

// TestLLCEveryMaskFillsInMask walks every nonzero 11-bit way mask —
// contiguous or not — and asserts demand fills, writeback fills and DDIO
// fills never allocate outside it.
func TestLLCEveryMaskFillsInMask(t *testing.T) {
	for _, policy := range []ReplacementPolicy{PolicySRRIP, PolicyLRU} {
		t.Run(policy.String(), func(t *testing.T) {
			for m := WayMask(1); m < 1<<11; m++ {
				l := oneSetLLC(policy)
				next := uint64(1)
				// 2x the mask width so the in-mask ways must recycle.
				n := 2 * m.Count()
				checkFillsInMask(t, l, m, &next, n)
				for i := 0; i < n; i++ {
					a := next << LineShift
					next++
					l.FillWriteback(a, m)
					if w := l.WayOf(a); w < 0 || !m.Has(w) {
						t.Fatalf("writeback fill under mask %s landed in way %d", m, w)
					}
					a = next << LineShift
					next++
					l.IOWrite(a, m)
					if w := l.WayOf(a); w < 0 || !m.Has(w) {
						t.Fatalf("DDIO fill under mask %s landed in way %d", m, w)
					}
				}
				if policy == PolicyLRU {
					checkLRUPermutation(t, l)
				}
			}
		})
	}
}

// TestLLCMaskPairShrink walks every ordered pair of contiguous 11-bit
// masks (the CAT-programmable domain): a set is populated under the
// first mask, the mask then changes mid-run — including every partial
// overlap and every shrink — and subsequent fills must land only in the
// second mask, with the LRU permutation invariant intact throughout.
func TestLLCMaskPairShrink(t *testing.T) {
	var masks []WayMask
	for lo := 0; lo < 11; lo++ {
		for n := 1; lo+n <= 11; n++ {
			masks = append(masks, ContiguousMask(lo, n))
		}
	}
	if len(masks) != 66 {
		t.Fatalf("contiguous 11-bit masks = %d, want 66", len(masks))
	}
	for _, policy := range []ReplacementPolicy{PolicySRRIP, PolicyLRU} {
		t.Run(policy.String(), func(t *testing.T) {
			for _, a := range masks {
				for _, b := range masks {
					l := oneSetLLC(policy)
					next := uint64(1)
					checkFillsInMask(t, l, a, &next, 2*a.Count())
					checkFillsInMask(t, l, b, &next, 2*b.Count())
					if policy == PolicyLRU {
						checkLRUPermutation(t, l)
					}
					// SRRIP ages stay in the 2-bit domain.
					if policy == PolicySRRIP {
						sl := &l.slices[0]
						rr := l.ranks(sl, 0)
						for w := 0; w < 11; w++ {
							if sl.sets[l.validOff]&(1<<uint(w)) != 0 && rank(rr, w) > rrpvMax {
								t.Fatalf("mask %s->%s: way %d RRPV %d beyond rrpvMax", a, b, w, rank(rr, w))
							}
						}
					}
				}
			}
		})
	}
}

// TestLLCVictimWayNoAllowedWays pins the failure mode of a mask with no
// in-range ways: the old code returned way -1 and install() silently
// corrupted the preceding set's state (or panicked with a bare index
// error at set 0). It must be an explicit, diagnosable panic instead.
func TestLLCVictimWayNoAllowedWays(t *testing.T) {
	l := oneSetLLC(PolicySRRIP)
	// Fill the set so the invalid-way fast path cannot hide the scan.
	for i := 0; i < 11; i++ {
		l.Access(0, uint64(i)<<LineShift, false, FullMask(11))
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("fill with an out-of-range mask did not panic")
		}
		if s, ok := r.(string); !ok || s == "" {
			if err, ok := r.(error); !ok || err == nil {
				t.Fatalf("panic value %v (%T) carries no diagnosis", r, r)
			}
		}
		if !containsStr(fmt.Sprint(r), "mask") {
			t.Fatalf("panic %q does not mention the mask", fmt.Sprint(r))
		}
	}()
	l.Access(0, 999<<LineShift, false, WayMask(1<<12)) // only bit 12: no way 0-10
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
