package pkt

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"iatsim/internal/ycsb"
)

// TestPacketSize pins the by-value sizes: packets are copied through
// every NIC ring and virtio queue, so a field that grows Packet grows
// each ring's backing array.
func TestPacketSize(t *testing.T) {
	if n := unsafe.Sizeof(ycsb.Request{}); n != 16 {
		t.Errorf("ycsb.Request is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(Packet{}); n != 48 {
		t.Errorf("Packet is %d bytes, want 48", n)
	}
}

func TestFlowHashDeterministic(t *testing.T) {
	f := Flow{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: 17, VLAN: 5}
	if f.Hash() != f.Hash() {
		t.Fatal("hash not deterministic")
	}
}

func TestFlowHashSensitivity(t *testing.T) {
	base := Flow{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: 17}
	variants := []Flow{
		{Src: 2, Dst: 2, SrcPort: 3, DstPort: 4, Proto: 17},
		{Src: 1, Dst: 3, SrcPort: 3, DstPort: 4, Proto: 17},
		{Src: 1, Dst: 2, SrcPort: 4, DstPort: 4, Proto: 17},
		{Src: 1, Dst: 2, SrcPort: 3, DstPort: 5, Proto: 17},
		{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: 6},
		{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: 17, VLAN: 1},
	}
	for i, v := range variants {
		if v.Hash() == base.Hash() {
			t.Errorf("variant %d collides with base", i)
		}
	}
}

func TestFlowHashDistribution(t *testing.T) {
	// Hashes of a flow set must spread evenly over a small modulus.
	s := NewFlowSet(1<<14, 0, 1)
	const buckets = 16
	counts := make([]int, buckets)
	for i := 0; i < s.Size(); i++ {
		counts[s.At(i).Hash()%buckets]++
	}
	want := s.Size() / buckets
	for b, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("bucket %d has %d entries, want ~%d", b, c, want)
		}
	}
}

func TestFlowSetDistinctAndStable(t *testing.T) {
	s1 := NewFlowSet(1000, 7, 42)
	s2 := NewFlowSet(1000, 7, 42)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		if s1.At(i) != s2.At(i) {
			t.Fatalf("flow %d differs between identically seeded sets", i)
		}
		h := s1.At(i).Hash()
		if seen[h] {
			t.Fatalf("duplicate flow hash at index %d", i)
		}
		seen[h] = true
		if s1.At(i).VLAN != 7 {
			t.Fatalf("flow %d has VLAN %d", i, s1.At(i).VLAN)
		}
	}
}

func TestFlowSetAtWraps(t *testing.T) {
	s := NewFlowSet(10, 0, 1)
	if s.At(10) != s.At(0) || s.At(-1) != s.At(9) {
		t.Fatal("At should wrap modulo size")
	}
}

func TestFlowSetPickInRange(t *testing.T) {
	s := NewFlowSet(8, 0, 1)
	rng := rand.New(rand.NewSource(1))
	members := map[Flow]bool{}
	for i := 0; i < 8; i++ {
		members[s.At(i)] = true
	}
	for i := 0; i < 100; i++ {
		if !members[s.Pick(rng)] {
			t.Fatal("Pick returned a flow outside the set")
		}
	}
}

func TestPacketLines(t *testing.T) {
	cases := []struct{ size, lines int }{
		{64, 1}, {65, 2}, {128, 2}, {1500, 24}, {1, 1},
	}
	for _, c := range cases {
		if got := (Packet{Size: c.size}).Lines(); got != c.lines {
			t.Errorf("Lines(%d) = %d, want %d", c.size, got, c.lines)
		}
	}
}

func TestNewFlowSetMinimumSize(t *testing.T) {
	if NewFlowSet(0, 0, 1).Size() != 1 {
		t.Fatal("zero-flow set should clamp to 1")
	}
}

// Property: ports are never zero (valid transport headers).
func TestFlowSetPortsNonZeroProperty(t *testing.T) {
	f := func(i uint16, seed uint64) bool {
		s := NewFlowSet(1<<12, 0, seed)
		fl := s.At(int(i))
		return fl.SrcPort != 0 && fl.DstPort != 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
