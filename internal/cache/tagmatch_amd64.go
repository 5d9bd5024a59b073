package cache

// haveAVX2 reports whether the CPU and the OS support AVX2: CPUID leaf 1
// must report AVX and OSXSAVE, XCR0 must enable the XMM and YMM state,
// and CPUID leaf 7 must report AVX2.
var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

// cpuid returns EAX, EBX, ECX and EDX of CPUID leaf, subleaf sub.
func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv0 returns the low half of XCR0.
func xgetbv0() uint32

// match8 returns the bitmask of the words of row equal to tag.
//
//go:noescape
func match8(row *[8]uint32, tag uint32) uint32

// match16 returns the bitmask of the words of row equal to tag.
//
//go:noescape
func match16(row *[16]uint32, tag uint32) uint32

// matchRun8 probes the rows of the n <= rangeChunk lines tagged tag0,
// tag0+1, ... in an 8-way private level's tags, whose sets are indexed
// by setMask: out[i] is the lowest way holding line i's tag or -1, and
// bit i of miss is set when it is -1.
//
//go:noescape
func matchRun8(tags *uint32, setMask, tag0 uint32, n int, out *[rangeChunk]int8) (miss uint32)

// matchRun16 is matchRun8 for a 16-way private level.
//
//go:noescape
func matchRun16(tags *uint32, setMask, tag0 uint32, n int, out *[rangeChunk]int8) (miss uint32)
