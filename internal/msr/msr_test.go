package msr

import (
	"sync"
	"testing"
)

func TestReadWriteRoundTrip(t *testing.T) {
	f := NewFile()
	if err := f.Write(IIOLLCWays, 0x600); err != nil {
		t.Fatal(err)
	}
	if got := f.Read(IIOLLCWays); got != 0x600 {
		t.Fatalf("read back %#x", got)
	}
}

func TestUnwrittenRegisterReadsZero(t *testing.T) {
	f := NewFile()
	if got := f.Read(0xDEAD); got != 0 {
		t.Fatalf("unwritten register = %#x", got)
	}
}

func TestMappedReadHandler(t *testing.T) {
	f := NewFile()
	v := uint64(7)
	f.MapRead(CoreCounterAddr(3, EvCycles), func() uint64 { return v })
	if got := f.Read(CoreCounterAddr(3, EvCycles)); got != 7 {
		t.Fatalf("handler read = %d", got)
	}
	v = 42
	if got := f.Read(CoreCounterAddr(3, EvCycles)); got != 42 {
		t.Fatalf("handler read = %d (should be live)", got)
	}
}

func TestCounterRegistersAreReadOnly(t *testing.T) {
	f := NewFile()
	f.MapRead(CHACounterAddr(0, EvDDIOHit), func() uint64 { return 1 })
	if err := f.Write(CHACounterAddr(0, EvDDIOHit), 99); err == nil {
		t.Fatal("write to a counter register succeeded")
	}
}

func TestOpsCounting(t *testing.T) {
	f := NewFile()
	f.Read(1)
	f.Read(2)
	if err := f.Write(3, 1); err != nil {
		t.Fatal(err)
	}
	ops := f.Ops()
	if ops.Reads != 2 || ops.Writes != 1 {
		t.Fatalf("ops = %+v", ops)
	}
	// Peek must not count.
	f.Peek(1)
	if f.Ops().Reads != 2 {
		t.Fatal("Peek counted as a read")
	}
}

func TestOpsSub(t *testing.T) {
	d := Ops{Reads: 10, Writes: 4}.Sub(Ops{Reads: 7, Writes: 1})
	if d.Reads != 3 || d.Writes != 3 {
		t.Fatalf("delta = %+v", d)
	}
}

func TestAddressHelpersDisjoint(t *testing.T) {
	seen := map[uint32]string{}
	add := func(a uint32, what string) {
		if prev, ok := seen[a]; ok {
			t.Fatalf("address collision: %s and %s both at %#x", prev, what, a)
		}
		seen[a] = what
	}
	for core := 0; core < 18; core++ {
		add(PQRAssocAddr(core), "pqr")
		for ev := 0; ev < 4; ev++ {
			add(CoreCounterAddr(core, ev), "core-counter")
		}
	}
	for clos := 0; clos < 16; clos++ {
		add(L3MaskAddr(clos), "l3mask")
	}
	for s := 0; s < 18; s++ {
		add(CHACounterAddr(s, EvDDIOHit), "cha-hit")
		add(CHACounterAddr(s, EvDDIOMiss), "cha-miss")
	}
	add(IIOLLCWays, "iio")
}

func TestConcurrentAccessSafe(t *testing.T) {
	f := NewFile()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				_ = f.Write(uint32(i), uint64(j))
				f.Read(uint32(i))
			}
		}(i)
	}
	wg.Wait()
	if ops := f.Ops(); ops.Reads != 8000 || ops.Writes != 8000 {
		t.Fatalf("ops = %+v", ops)
	}
}

// TestGenerationLockFree: readers polling Generation without the lock,
// beside writers, see it only grow; a value Peeked while the generation
// held still is what the register holds whenever that generation is
// seen again; and the final count is one bump per mutation.
func TestGenerationLockFree(t *testing.T) {
	f := NewFile()
	const writers, writes = 4, 500
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 1; j <= writes; j++ {
				_ = f.Write(uint32(i), uint64(j))
			}
		}(i)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last, cachedGen, cached uint64
			for n := 0; n < 2000; n++ {
				g := f.Generation()
				if g < last {
					t.Errorf("generation went back from %d to %d", last, g)
					return
				}
				last = g
				v := f.Peek(0)
				if f.Generation() != g {
					continue // a write landed around the Peek
				}
				if g == cachedGen && v != cached {
					t.Errorf("generation %d unchanged but register 0 moved %d -> %d", g, cached, v)
					return
				}
				cachedGen, cached = g, v
			}
		}()
	}
	wg.Wait()
	if g := f.Generation(); g != writers*writes {
		t.Fatalf("generation = %d after %d writes", g, writers*writes)
	}
	f.MapRead(0x99, func() uint64 { return 1 })
	if g := f.Generation(); g != writers*writes+1 {
		t.Fatalf("MapRead did not bump the generation: %d", g)
	}
}
