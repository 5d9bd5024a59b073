package jsonbuf

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

type sample struct {
	Name  string
	Vals  []float64
	Bytes []byte `json:"bytes,omitempty"`
	M     map[int]int
}

// TestAppendMatchesMarshal: Append emits json.Marshal's bytes after any
// prefix already in dst, and leaves dst alone on an encoding error.
func TestAppendMatchesMarshal(t *testing.T) {
	v := &sample{Name: "a<b>&\"c\"", Vals: []float64{1e21, 1e-7, 0.1, -0}, Bytes: []byte{0, 1, 2, 255}, M: map[int]int{10: 1, 2: 2}}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Append([]byte("prefix"), v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("Append = %s, want prefix%s", got, want)
	}
	bad := &sample{Vals: []float64{math.NaN()}}
	out, err := Append([]byte("keep"), bad)
	if err == nil || string(out) != "keep" {
		t.Fatalf("Append(NaN) = %q, %v; want \"keep\" and an error", out, err)
	}
}

// TestAppendReusedBufferAllocatesNothing: encoding a pointer into a
// buffer with room allocates nothing once the pool is warm.
func TestAppendReusedBufferAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	v := &sample{Name: "x", Vals: []float64{1, 2, 3}, Bytes: []byte("payload")}
	buf := make([]byte, 0, 4096)
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		buf, err = Append(buf[:0], v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("Append allocates %.1f times per call, want 0", allocs)
	}
}

type counters struct {
	Hits, Misses uint64
}

// TestIntMapMatchesMap: an IntMap encodes to exactly the bytes of the
// map[int]V holding the same entries, whatever the slice order, for
// small and large key sets (including keys whose decimal order differs
// from their numeric order), and decodes back to the same entries.
func TestIntMapMatchesMap(t *testing.T) {
	for _, keys := range [][]int{
		nil,
		{},
		{2, 10},
		{10, 2, 1, 0, -1, -10, 100, 11},
		func() []int { // more keys than the stack permutation holds
			var ks []int
			for k := 40; k >= 0; k-- {
				ks = append(ks, k*7%41)
			}
			return ks
		}(),
	} {
		var im IntMap[counters]
		var m map[int]counters
		if keys != nil {
			im, m = IntMap[counters]{}, map[int]counters{}
		}
		for _, k := range keys {
			v := counters{Hits: uint64(k * k), Misses: uint64(k + 100)}
			im = append(im, IntEntry[counters]{Key: k, Val: v})
			m[k] = v
		}
		type wrapA struct {
			M IntMap[counters] `json:"m,omitempty"`
		}
		type wrapB struct {
			M map[int]counters `json:"m,omitempty"`
		}
		got, err := json.Marshal(wrapA{im})
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(wrapB{m})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("keys %v: IntMap encodes %s, map encodes %s", keys, got, want)
		}
		var back wrapA
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, want) || len(back.M) != len(m) {
			t.Fatalf("keys %v: decode/encode gave %s, want %s", keys, again, want)
		}
	}
	var null IntMap[int]
	if err := json.Unmarshal([]byte("null"), &null); err != nil || null != nil {
		t.Fatalf("null decodes to %v, %v", null, err)
	}
	if err := json.Unmarshal([]byte(`{"x":1}`), &null); err == nil {
		t.Fatal("non-integer key accepted")
	}
}
