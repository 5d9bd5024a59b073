package cache

import "math/bits"

// The tag-match kernel. Every probe of a tag row (an L1 or L2 set, an LLC
// set record) asks one question: which ways hold this tag? On amd64 hosts
// with AVX2, match8 and match16 answer it for 8 or 16 consecutive words
// with one broadcast, one or two VPCMPEQD and a VMOVMSKPS each: bit w of
// the result is set when row[w] == tag. matchRun8 and matchRun16 loop the
// same compare over the rows of a private level's consecutive tags
// (private.probeRun) and return the lowest ways, -1 for a miss. Elsewhere
// no cache selects them (see rowLanes), and every probe runs the scalar
// loop.
//
// The caller slices exactly the words the kernel reads, so the kernel
// never reads past a slice, and masks the result to the ways the row
// holds. The lowest set bit is the way the scalar loop returns: a probed
// tag is a lineTag, between 1 and lineTag(MaxAddr), so it never equals
// an empty way's 0 or ambientTag (which, unlike a probed tag, may repeat
// within a set), and a cache never holds one tag in two ways.

// kernelProbes reports whether caches built from now on use the kernel:
// the host's AVX2 support, read once at start-up. Only tests change it,
// through forceScalarProbes.
var kernelProbes = haveAVX2

// forceScalarProbes makes the caches built after it probe with the scalar
// loop (on) or with the kernel when the host has one (off), and returns
// the previous setting. It is the test hook that lets one host cover both
// paths; internal/ddio's tests reach it by linkname.
func forceScalarProbes(on bool) (was bool) {
	was = !kernelProbes
	kernelProbes = haveAVX2 && !on
	return was
}

// rowLanes returns the kernel width, 8 or 16, that covers a row of ways
// tags at the start of a record of stride words, or 0 when the scalar
// loop must serve it: on a host without the kernel, for a row wider than
// 16 ways, or for a record shorter than the width. Lanes past the row's
// ways read the record's other words; the probe masks them off.
func rowLanes(ways, stride int) int {
	switch {
	case !kernelProbes:
		return 0
	case ways <= 8 && stride >= 8:
		return 8
	case ways <= 16 && stride >= 16:
		return 16
	}
	return 0
}

// firstWay returns the lowest way in a match mask, or -1 for none.
func firstWay(m uint32) int {
	if m == 0 {
		return -1
	}
	return bits.TrailingZeros32(m)
}
