package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is a runtime/pprof CPU profile reduced to what the shares
// need: each sample's CPU time and the functions on its stack, inlined
// frames included.
type cpuProfile struct {
	totalNS int64
	samples []stackSample
}

type stackSample struct {
	ns    int64
	funcs []string // distinct functions on the stack
}

// cumNS is the CPU time of samples with a function on the stack that
// match accepts: the pprof "cum" column summed over those functions.
func (p *cpuProfile) cumNS(match func(fn string) bool) int64 {
	return p.cumNSExcept(match, func(string) bool { return false })
}

// cumNSExcept is cumNS restricted to samples with no function on the
// stack that except accepts.
func (p *cpuProfile) cumNSExcept(match, except func(fn string) bool) int64 {
	var ns int64
	for _, s := range p.samples {
		in, out := false, false
		for _, fn := range s.funcs {
			in = in || match(fn)
			out = out || except(fn)
		}
		if in && !out {
			ns += s.ns
		}
	}
	return ns
}

// share is cumNS as a fraction of all profiled CPU time.
func (p *cpuProfile) share(match func(fn string) bool) float64 {
	if p.totalNS == 0 {
		return 0
	}
	return float64(p.cumNS(match)) / float64(p.totalNS)
}

// inPackage matches the functions of a simulator package.
func inPackage(pkg string) func(string) bool {
	prefix := "iatsim/internal/" + pkg + "."
	return func(fn string) bool { return strings.HasPrefix(fn, prefix) }
}

// named matches functions by exact name (without the module prefix).
func named(names ...string) func(string) bool {
	return func(fn string) bool {
		for _, n := range names {
			if fn == "iatsim/internal/"+n {
				return true
			}
		}
		return false
	}
}

// The profile.proto field numbers parseProfile reads.
const (
	fieldSampleType  = 1
	fieldSample      = 2
	fieldLocation    = 4
	fieldFunction    = 5
	fieldStringTable = 6

	fieldSampleLocation = 1
	fieldSampleValue    = 2
	fieldLocationID     = 1
	fieldLocationLine   = 4
	fieldLineFunction   = 1
	fieldFunctionID     = 1
	fieldFunctionName   = 2
	fieldValueTypeType  = 1
)

// parseProfile decodes a gzipped profile.proto as written by
// runtime/pprof.StartCPUProfile, keeping the "cpu" sample value.
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	var (
		strs      []string
		typeIdx   []uint64
		rawSamps  [][]byte
		locLines  = map[uint64][]uint64{} // location -> function ids
		funcNames = map[uint64]uint64{}   // function -> string index
	)
	err = walk(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case fieldStringTable:
			strs = append(strs, string(b))
		case fieldSampleType:
			return walk(b, func(f int, v uint64, _ []byte) error {
				if f == fieldValueTypeType {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case fieldSample:
			rawSamps = append(rawSamps, b)
		case fieldLocation:
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case fieldLocationID:
					id = v
				case fieldLocationLine:
					return walk(b, func(f int, v uint64, _ []byte) error {
						if f == fieldLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case fieldFunction:
			var id, name uint64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case fieldFunctionID:
					id = v
				case fieldFunctionName:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range typeIdx {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}

	p := &cpuProfile{}
	for _, b := range rawSamps {
		var locs, vals []uint64
		err := walk(b, func(f int, v uint64, b []byte) error {
			switch f {
			case fieldSampleLocation:
				locs = appendRepeated(locs, v, b)
			case fieldSampleValue:
				vals = appendRepeated(vals, v, b)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if cpu >= len(vals) {
			return nil, errors.New("profile: sample without cpu value")
		}
		s := stackSample{ns: int64(vals[cpu])}
		seen := map[string]bool{}
		for _, l := range locs {
			for _, fid := range locLines[l] {
				if fn := str(funcNames[fid]); !seen[fn] {
					seen[fn] = true
					s.funcs = append(s.funcs, fn)
				}
			}
		}
		p.totalNS += s.ns
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// appendRepeated appends a repeated varint field's values: one value in
// its unpacked form (b == nil), or a packed run of them.
func appendRepeated(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// walk calls fn for every field of one protobuf message: varint fields
// get their value, length-delimited fields their bytes (non-nil).
func walk(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0: // varint
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1: // fixed64
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5: // fixed32
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
