//go:build !amd64

package cache

// haveAVX2 is false off amd64: every cache probes with the scalar loop.
const haveAVX2 = false

// The kernels exist off amd64 only so that the package builds; rowLanes
// never selects them here.
func match8(*[8]uint32, uint32) uint32 { panic("cache: no tag-match kernel on this GOARCH") }

func match16(*[16]uint32, uint32) uint32 { panic("cache: no tag-match kernel on this GOARCH") }

func matchRun8(*uint32, uint32, uint32, int, *[rangeChunk]int8) uint32 {
	panic("cache: no tag-match kernel on this GOARCH")
}

func matchRun16(*uint32, uint32, uint32, int, *[rangeChunk]int8) uint32 {
	panic("cache: no tag-match kernel on this GOARCH")
}
