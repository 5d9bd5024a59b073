// Package pkt defines the network packet and flow abstractions used by the
// NIC model, the traffic generators and the networking workloads.
package pkt

import (
	"math/rand"

	"iatsim/internal/ycsb"
)

// MinSize and MTUSize bound the packet sizes used across the experiments
// (64B minimum Ethernet frame to the 1500B MTU the paper rounds to 1.5KB).
const (
	MinSize = 64
	MTUSize = 1500
)

// Flow is a 5-tuple plus VLAN tag identifying a network flow.
type Flow struct {
	Src, Dst uint32
	SrcPort  uint16
	DstPort  uint16
	Proto    uint8
	VLAN     uint16
}

// Hash returns a well-mixed 64-bit hash of the flow, used by flow tables
// (l3fwd, OVS EMC, NF state) for bucket selection.
func (f Flow) Hash() uint64 {
	x := uint64(f.Src)<<32 | uint64(f.Dst)
	x ^= uint64(f.SrcPort)<<48 | uint64(f.DstPort)<<32 | uint64(f.Proto)<<16 | uint64(f.VLAN)
	x *= 0x9E3779B97F4A7C15
	x ^= x >> 32
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 29
	return x
}

// Packet is a network packet: a flow identity, a wire size, and the KV
// request it carries, if any, interpreted by the KVS workloads.
//
// The request is a plain field rather than an interface, so building a
// KV packet allocates nothing. Packets are copied by value through NIC
// rings and virtio queues, so Packet is kept at 48 bytes (pinned by
// TestPacketSize).
type Packet struct {
	Flow Flow
	Size int // bytes on the wire (excl. preamble/IFG)

	// Req is the YCSB request of a KV packet. Plain traffic leaves it
	// zero, which reads as a Read of key 0.
	Req ycsb.Request

	// ArrivalNS is stamped by the NIC when the packet is DMA'd into the
	// host, so workloads can report queueing-inclusive latencies.
	ArrivalNS float64
}

// Lines returns the number of cache lines the packet payload occupies.
func (p Packet) Lines() int { return (p.Size + 63) / 64 }

// FlowSet deterministically enumerates n distinct flows and picks among
// them, emulating the generator-side "N flows" knob of the paper's
// experiments (e.g. the 1M-flow table of the l3fwd test, Fig. 3, or the
// flow-count sweep of Fig. 9).
type FlowSet struct {
	n    int
	vlan uint16
	seed uint64
}

// NewFlowSet builds a set of n flows with the given VLAN tag. Two sets with
// the same parameters enumerate identical flows, so a traffic generator and
// the workload that pre-populates a flow table agree on the universe.
func NewFlowSet(n int, vlan uint16, seed uint64) *FlowSet {
	if n < 1 {
		n = 1
	}
	return &FlowSet{n: n, vlan: vlan, seed: seed}
}

// Size returns the number of distinct flows in the set.
func (s *FlowSet) Size() int { return s.n }

// At returns the i-th flow of the set (i taken modulo the set size).
func (s *FlowSet) At(i int) Flow {
	i %= s.n
	if i < 0 {
		i += s.n
	}
	x := (uint64(i)+1)*0x9E3779B97F4A7C15 + s.seed
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	return Flow{
		Src:     uint32(x),
		Dst:     uint32(x >> 32),
		SrcPort: uint16(x>>16) | 1,
		DstPort: uint16(i)&0x3FFF | 1,
		Proto:   17, // UDP
		VLAN:    s.vlan,
	}
}

// Pick returns a uniformly random flow from the set.
func (s *FlowSet) Pick(rng *rand.Rand) Flow { return s.At(rng.Intn(s.n)) }
