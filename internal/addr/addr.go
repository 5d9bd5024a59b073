// Package addr models the simulated physical address space.
//
// Every entity in the platform simulation — NIC descriptor rings, packet
// buffers, flow tables, key-value stores, benchmark working sets — owns one
// or more Regions carved out of a single flat address space by an Allocator.
// Addresses are never dereferenced; they exist only so the cache hierarchy
// can map them to slices, sets and tags exactly as real physical addresses
// would be.
package addr

import "fmt"

// LineSize is the cache line size in bytes. The whole simulation is
// line-granular: all addresses handed to the cache hierarchy are expected to
// be line-aligned (the hierarchy masks off the low bits regardless).
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// Region is a contiguous range [Base, Base+Size) of simulated physical
// memory.
type Region struct {
	Base uint64 // first byte address, line-aligned
	Size uint64 // length in bytes
}

// End returns the first address past the region.
func (r Region) End() uint64 { return r.Base + r.Size }

// Lines returns the number of cache lines the region spans.
func (r Region) Lines() int { return int(r.Size / LineSize) }

// Line returns the address of the i-th cache line of the region. The index
// is taken modulo the region length so callers can stride through a region
// cyclically without bounds bookkeeping.
func (r Region) Line(i int) uint64 {
	n := r.Lines()
	if n == 0 {
		return r.Base
	}
	i %= n
	if i < 0 {
		i += n
	}
	return r.Base + uint64(i)*LineSize
}

// At returns the line-aligned address at byte offset off into the region,
// wrapping modulo the region size.
func (r Region) At(off uint64) uint64 {
	if r.Size == 0 {
		return r.Base
	}
	off %= r.Size
	return (r.Base + off) &^ (LineSize - 1)
}

// Contains reports whether address a falls inside the region.
func (r Region) Contains(a uint64) bool { return a >= r.Base && a < r.End() }

// String implements fmt.Stringer.
func (r Region) String() string {
	return fmt.Sprintf("[%#x,%#x) %dB", r.Base, r.End(), r.Size)
}

// Limit bounds the simulated address space: every region an Allocator
// hands out ends at or below it. The cache model keeps 32-bit line tags,
// which hold any address up to cache.MaxAddr (about 2^38); real runs
// allocate from 1 GiB upward and stay far below 2^37.
const Limit = 1 << 37

// Allocator hands out non-overlapping Regions by bump allocation. The zero
// value is not ready for use; construct with NewAllocator.
type Allocator struct {
	next uint64
	base uint64
}

// NewAllocator returns an allocator whose first region will start at base
// (rounded up to a line boundary).
func NewAllocator(base uint64) *Allocator {
	base = (base + LineSize - 1) &^ (LineSize - 1)
	return &Allocator{next: base, base: base}
}

// Alloc carves a region of the given size (rounded up to whole lines) out of
// the address space, aligned to align bytes (0 or 1 means line alignment;
// align must be a power of two otherwise). It panics if the region would
// end past Limit.
func (a *Allocator) Alloc(size, align uint64) Region {
	if align < LineSize {
		align = LineSize
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("addr: alignment %d is not a power of two", align))
	}
	start := (a.next + align - 1) &^ (align - 1)
	if size > Limit || start > Limit-size {
		panic(fmt.Sprintf("addr: %d bytes at %#x would end past the address-space limit %#x", size, start, uint64(Limit)))
	}
	size = (size + LineSize - 1) &^ (LineSize - 1)
	a.next = start + size
	return Region{Base: start, Size: size}
}

// Allocated returns the total number of bytes handed out so far, including
// alignment padding.
func (a *Allocator) Allocated() uint64 { return a.next - a.base }
