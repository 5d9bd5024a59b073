// Package jsonbuf appends encoding/json output to caller-owned byte
// slices. Checkpoint writers reuse one buffer per owner through it
// instead of taking the fresh result slice json.Marshal allocates on
// every call.
package jsonbuf

import (
	"bytes"
	"cmp"
	"encoding/json"
	"slices"
	"strconv"
	"sync"
)

// appender is a json.Encoder bound to a growable byte slice.
type appender struct {
	b   []byte
	enc *json.Encoder
}

func (a *appender) Write(p []byte) (int, error) {
	a.b = append(a.b, p...)
	return len(p), nil
}

// appenders recycles encoders across calls and goroutines.
var appenders = sync.Pool{New: func() any {
	a := new(appender)
	a.enc = json.NewEncoder(a)
	return a
}}

// Append appends the encoding of v to dst, byte for byte what
// json.Marshal(v) returns, and returns the extended slice. On error dst
// is returned unchanged in length. Pass v as a pointer: boxing a struct
// value into the interface allocates a copy of it.
func Append(dst []byte, v any) ([]byte, error) {
	a := appenders.Get().(*appender)
	a.b = dst
	err := a.enc.Encode(v)
	out := a.b
	a.b = nil
	appenders.Put(a)
	if err != nil {
		return dst, err
	}
	// Encode terminates each value with a newline; Marshal does not.
	return out[:len(out)-1], nil
}

// IntMap is a map[int]V held as a slice in the caller's order. It
// encodes and decodes exactly as map[int]V does in encoding/json — one
// object member per entry, keys ordered as decimal strings ("10" before
// "2") — so a dense slice can replace a map in a checkpoint without
// changing a byte of it. Keys must be distinct.
type IntMap[V any] []IntEntry[V]

// IntEntry is one IntMap member.
type IntEntry[V any] struct {
	Key int
	Val V
}

// MarshalJSON implements json.Marshaler.
func (m IntMap[V]) MarshalJSON() ([]byte, error) {
	if m == nil {
		return []byte("null"), nil
	}
	// Order the members as encoding/json orders map keys; a small map
	// sorts a stack-held permutation.
	var stack [32]int
	order := stack[:0]
	if len(m) > len(stack) {
		order = make([]int, 0, len(m))
	}
	for i := range m {
		order = append(order, i)
	}
	slices.SortFunc(order, func(a, b int) int { return compareKeys(m[a].Key, m[b].Key) })
	b := make([]byte, 0, 2+128*len(m))
	b = append(b, '{')
	var err error
	for k, i := range order {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = strconv.AppendInt(b, int64(m[i].Key), 10)
		b = append(b, '"', ':')
		if b, err = Append(b, &m[i].Val); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// UnmarshalJSON implements json.Unmarshaler. Members land in key order.
func (m *IntMap[V]) UnmarshalJSON(data []byte) error {
	var raw map[int]V
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if raw == nil {
		*m = nil
		return nil
	}
	out := make(IntMap[V], 0, len(raw))
	for k, v := range raw {
		out = append(out, IntEntry[V]{Key: k, Val: v})
	}
	slices.SortFunc(out, func(a, b IntEntry[V]) int { return cmp.Compare(a.Key, b.Key) })
	*m = out
	return nil
}

// compareKeys orders two int keys as encoding/json orders map keys: by
// their decimal strings.
func compareKeys(a, b int) int {
	var ba, bb [24]byte
	return bytes.Compare(strconv.AppendInt(ba[:0], int64(a), 10), strconv.AppendInt(bb[:0], int64(b), 10))
}
