package cache

import "testing"

// forEachProbePath runs f twice: with the probes each cache selects on
// this host (the tag-match kernel, on an AVX2 host), and with every cache
// built inside f forced onto the scalar loop. Hosts with and without
// AVX2 thus cover the same paths.
func forEachProbePath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, path := range []struct {
		name   string
		scalar bool
	}{{"kernel", false}, {"scalar", true}} {
		t.Run(path.name, func(t *testing.T) {
			if !path.scalar && !haveAVX2 {
				t.Skip("no AVX2 on this host; the scalar subtest covers its only path")
			}
			defer forceScalarProbes(forceScalarProbes(path.scalar))
			var p private
			p.init(LevelConfig{SizeBytes: 8 * LineSize, Ways: 8})
			if want := map[bool]int{false: 8, true: 0}[path.scalar]; p.lanes != want {
				t.Fatalf("an 8-way row built on the %s path takes %d lanes, want %d", path.name, p.lanes, want)
			}
			f(t)
		})
	}
}

// scanRow is the scalar probe: the lowest way of row holding tag, or -1.
func scanRow(row []uint32, tag uint32) int {
	for w, t := range row {
		if t == tag {
			return w
		}
	}
	return -1
}

// probeWords returns the words a test row is drawn from: empty ways and
// ambientTags (listed twice, so rows repeat them), then the lineTags a
// probe may ask for: lineTag(MaxAddr) and its neighbour, the lowest
// lineTags and a random one.
func probeWords(rng *diffSplitmix) []uint32 {
	top := lineTag(MaxAddr)
	return []uint32{0, 0, ambientTag, ambientTag, top, top - 1, 1, 2, 3, uint32(rng.next()%uint64(top)) + 1}
}

// fillRow fills row with words from pool, never repeating a lineTag (a
// cache holds a line in one way at most); 0 and ambientTag may repeat.
func fillRow(rng *diffSplitmix, row, pool []uint32) {
	seen := map[uint32]bool{}
	for w := range row {
		t := pool[rng.next()%uint64(len(pool))]
		for t != 0 && t != ambientTag && seen[t] {
			t = uint32(rng.next()>>34) + 4
		}
		if t != 0 && t != ambientTag {
			seen[t] = true
		}
		row[w] = t
	}
}

// TestTagMatchKernel checks the kernel at both widths against a
// per-word compare: every bit of the mask, not just the lowest.
func TestTagMatchKernel(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this host: no cache selects the kernel")
	}
	rng := diffSplitmix(3)
	var r8 [8]uint32
	var r16 [16]uint32
	for i := 0; i < 20000; i++ {
		pool := probeWords(&rng)
		for _, row := range [][]uint32{r8[:], r16[:]} {
			for w := range row { // unlike a cache row, any word may repeat
				row[w] = pool[rng.next()%uint64(len(pool))]
			}
		}
		for _, tag := range pool {
			var w8, w16 uint32
			for w := range r16 {
				if r16[w] == tag {
					w16 |= 1 << w
				}
				if w < 8 && r8[w] == tag {
					w8 |= 1 << w
				}
			}
			if got := match8(&r8, tag); got != w8 {
				t.Fatalf("match8(%#x, %#x) = %#b, want %#b", r8, tag, got, w8)
			}
			if got := match16(&r16, tag); got != w16 {
				t.Fatalf("match16(%#x, %#x) = %#b, want %#b", r16, tag, got, w16)
			}
		}
	}
}

// TestProbeMatchesScalar proves that at 1 to 32 ways the probe each
// private level and LLC selects, kernel or scalar, returns the scalar
// loop's way. Rows hold empty ways, repeated ambientTags and lineTags up
// to lineTag(MaxAddr), and the LLC's rank, valid and dirty words are set
// to the probed tag, which the kernel reads and must mask off. Only 8-
// and 16-way private rows, and LLC sets of 2 to 16 ways, take the kernel.
func TestProbeMatchesScalar(t *testing.T) {
	forEachProbePath(t, func(t *testing.T) {
		kernel := kernelProbes
		rng := diffSplitmix(11)
		for ways := 1; ways <= 32; ways++ {
			var p private
			p.init(LevelConfig{SizeBytes: 4 * ways * LineSize, Ways: ways})
			wantLanes := 0
			if kernel && (ways == 8 || ways == 16) {
				wantLanes = ways
			}
			if p.lanes != wantLanes {
				t.Fatalf("%d-way private level: %d lanes, want %d", ways, p.lanes, wantLanes)
			}
			l := NewLLC(LLCConfig{Slices: 1, Ways: ways, SetsPerSlice: 4, HitCycles: 1}, 1)
			stride := 1 << l.strideShift
			wantKernel := kernel && ways >= 2 && ways <= 16
			if (l.lanes != 0) != wantKernel || l.lanes != 0 && (l.lanes < ways || l.lanes > stride) {
				t.Fatalf("%d-way LLC, %d-word records: %d lanes", ways, stride, l.lanes)
			}
			sets := l.slices[0].sets
			for i := 0; i < 500; i++ {
				pool := probeWords(&rng)
				set := int(rng.next() % 4)
				fillRow(&rng, p.tags[set*ways:(set+1)*ways], pool)
				base := set * stride
				fillRow(&rng, sets[base:base+ways], pool)
				probed := pool[4+rng.next()%uint64(len(pool)-4)] // a lineTag
				for j := base + ways; j < base+stride; j++ {
					if rng.next()%2 == 0 {
						sets[j] = probed
					}
				}
				for _, tag := range pool[4:] {
					if got, want := p.probe(set, tag), scanRow(p.tags[set*ways:(set+1)*ways], tag); got != want {
						t.Fatalf("%d-way private probe(%d, %#x) = %d, scalar %d; row %#x", ways, set, tag, got, want, p.tags[set*ways:(set+1)*ways])
					}
					if got, want := l.probe(&l.slices[0], base, tag), scanRow(sets[base:base+ways], tag); got != want {
						t.Fatalf("%d-way LLC probe(%#x) = %d, scalar %d; record %#x", ways, tag, got, want, sets[base:base+stride])
					}
				}
			}
		}
	})
}

// TestProbeRunMatchesProbe proves that probeRun answers a run of n =
// 1..rangeChunk consecutive tags as n probe calls do: the same way for
// every line, a miss bit exactly where probe returns -1, and no entry
// written past the run. Levels have the kernel widths (8 and 16 ways)
// and others, and 1 to 64 sets, so runs wrap past the last set and fold
// several lines onto one set. Each line of a run is held at a random
// way or not at all, beside empty ways, ambientTags and other lineTags;
// runs start at the lowest lineTags, at random ones and end at
// lineTag(MaxAddr). Every way of every level must be seen to hit.
func TestProbeRunMatchesProbe(t *testing.T) {
	forEachProbePath(t, func(t *testing.T) {
		rng := diffSplitmix(5)
		top := lineTag(MaxAddr)
		for _, ways := range []int{1, 4, 8, 11, 16, 32} {
			for _, sets := range []int{1, 2, 4, 64} {
				var p private
				p.init(LevelConfig{SizeBytes: sets * ways * LineSize, Ways: ways})
				hitAt := make([]bool, ways)
				for i := 0; i < 400; i++ {
					n := 1 + i%rangeChunk
					var tag0 uint32
					switch i % 3 {
					case 0:
						tag0 = 1 + uint32(rng.next()%4)
					case 1:
						tag0 = 1 + uint32(rng.next()%uint64(top-rangeChunk))
					default:
						tag0 = top - uint32(n) + 1
					}
					// Fill every row from the pool, then place the run's
					// lines: each at a free random way of its set, or
					// nowhere.
					pool := probeWords(&rng)
					for s := 0; s < sets; s++ {
						row := p.tags[s*ways : (s+1)*ways]
						fillRow(&rng, row, pool)
						for w, tag := range row {
							if tag != ambientTag && tag-tag0 < rangeChunk { // a run line out of place
								row[w] = 0
							}
						}
					}
					for j := 0; j < n; j++ {
						if rng.next()%4 == 0 {
							continue
						}
						tag := tag0 + uint32(j)
						w := int(rng.next() % uint64(ways))
						if row := p.tags[p.set(tag)*ways:]; row[w]-tag0 >= uint32(n) {
							row[w] = tag
						}
					}
					// Entries past the run must keep the sentinel, and a stale
					// -1 there must not set a miss bit.
					sentinel := [2]int8{-1, 99}[i/rangeChunk%2]
					var out [rangeChunk]int8
					for j := range out {
						out[j] = sentinel
					}
					miss := p.probeRun(tag0, n, &out)
					for j := 0; j < rangeChunk; j++ {
						tag := tag0 + uint32(j)
						if j >= n {
							if out[j] != sentinel {
								t.Fatalf("%d-way, %d sets: probeRun(%#x, %d) wrote out[%d]", ways, sets, tag0, n, j)
							}
							if miss&(1<<j) != 0 {
								t.Fatalf("%d-way, %d sets: probeRun(%#x, %d) set miss bit %d", ways, sets, tag0, n, j)
							}
							continue
						}
						want := p.probe(p.set(tag), tag)
						if int(out[j]) != want || (miss&(1<<j) != 0) != (want < 0) {
							t.Fatalf("%d-way, %d sets: probeRun(%#x, %d) line %d: way %d, miss bit %v; probe %d",
								ways, sets, tag0, n, j, out[j], miss&(1<<j) != 0, want)
						}
						if want >= 0 {
							hitAt[want] = true
						}
					}
				}
				for w, hit := range hitAt {
					if !hit {
						t.Fatalf("%d-way, %d sets: no run line hit way %d", ways, sets, w)
					}
				}
			}
		}
	})
}

var sinkWay int

// BenchmarkTagMatch measures one probe of a full set, the lookup every
// L1, L2 and LLC access starts with, at the Xeon's widths: an 8-way L1
// row, a 16-way L2 row and an 11-way LLC set record. A "hit" probes a tag
// held at a random way, a "miss" one the set does not hold. Each probe's
// set and way come from an xorshift step in the loop, so no schedule
// repeats for a branch predictor to learn. Probes take the path the host
// selects: the kernel on an AVX2 host, else the scalar loop.
func BenchmarkTagMatch(b *testing.B) {
	const sets = 64
	for _, lvl := range []struct {
		name string
		ways int
	}{{"L1", 8}, {"L2", 16}, {"LLC", 11}} {
		var p private
		p.init(LevelConfig{SizeBytes: sets * lvl.ways * LineSize, Ways: lvl.ways})
		l := NewLLC(LLCConfig{Slices: 1, Ways: lvl.ways, SetsPerSlice: sets, HitCycles: 1}, 1)
		sl := &l.slices[0]
		for s := 0; s < sets; s++ {
			for w := 0; w < lvl.ways; w++ {
				tag := uint32(s*lvl.ways+w) + 1
				p.tags[s*lvl.ways+w] = tag
				sl.sets[s<<l.strideShift+w] = tag
			}
		}
		llc := lvl.name == "LLC"
		for _, hit := range []bool{true, false} {
			name := lvl.name + "/miss"
			if hit {
				name = lvl.name + "/hit"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				x, sum := uint64(0x9E3779B97F4A7C15), 0
				for i := 0; i < b.N; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					set := int(x % sets)
					tag := uint32(sets*lvl.ways) + 1 + uint32(x>>32&1023) // held by no set
					if hit {
						tag = uint32(set*lvl.ways) + 1 + uint32((x>>16&0xFFFF)*uint64(lvl.ways)>>16)
					}
					if llc {
						sum += l.probe(sl, set<<l.strideShift, tag)
					} else {
						sum += p.probe(set, tag)
					}
				}
				sinkWay = sum
			})
		}
	}
}
