package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"iatsim/internal/cache"
	"iatsim/internal/core"
	"iatsim/internal/faults"
	"iatsim/internal/jsonbuf"
	"iatsim/internal/policy"
	"iatsim/internal/rdt"
)

// sampleCheckpoint builds a representative checkpoint with nested state.
func sampleCheckpoint() *Checkpoint {
	prof, err := faults.ProfileByName("heavy")
	if err != nil {
		panic(err)
	}
	inj := faults.NewInjector(prof, 42)
	for i := 0; i < 10; i++ {
		inj.DropRxDesc()
		inj.CrashHost()
	}
	st := inj.Snapshot()
	return &Checkpoint{
		Iteration:  17,
		SimTimeNS:  5.1e9,
		ConfigHash: ConfigHash("tenants", "scale=6400", "chaos=heavy:7"),
		Daemon: core.DaemonState{
			State:    2,
			NWays:    11,
			DDIOWays: 4,
			TopCLOS:  1,
			Groups: []core.GroupState{
				{CLOS: 1, Names: []string{"fwd0"}, IO: true, Width: 3, Cores: []int{0, 1}},
				{CLOS: 2, Names: []string{"batch"}, Width: 2, Cores: []int{2}},
			},
			PolicyName:  "iat",
			PolicyState: []byte(`{"have":true}`),
			Iters:       17,
		},
		Injector: &st,
	}
}

// shadowedCheckpoint builds the checkpoint of a daemon with three
// groups, CLOS 10, 2 and 1 in registration order, counter baselines for
// each, and two shadow policies that have decided on a few samples, so
// every int-keyed member (prev_cum and each shadow's widths) holds keys
// whose string order ("10" before "2") differs from their numeric order.
func shadowedCheckpoint() *Checkpoint {
	s := policy.Sample{
		NumWays: 11, DDIOWays: 2, DDIOMask: cache.ContiguousMask(9, 2),
		Limits: policy.Limits{
			ThresholdStable: 0.03, ThresholdMissLowPerSec: 1e6,
			DDIOWaysMin: 1, DDIOWaysMax: 6,
		},
		DDIOHitPS: 1e7,
	}
	c := sampleCheckpoint()
	d := &c.Daemon
	d.Groups, d.PrevCum, d.HavePrevCum = nil, nil, true
	for i, clos := range []int{10, 2, 1} {
		s.Groups = append(s.Groups, policy.GroupView{
			CLOS: clos, IO: i == 0, BestEffort: i > 0, Width: 2, Mask: cache.ContiguousMask(2*i, 2),
			IPC: 0.5, RefsPS: 1e7 * float64(i+1), MissPS: 1e5, MissRate: 0.01,
		})
		d.Groups = append(d.Groups, core.GroupState{CLOS: clos, Names: []string{fmt.Sprintf("t%d", clos)}, Width: 2, Cores: []int{i}})
		d.PrevCum = append(d.PrevCum, jsonbuf.IntEntry[rdt.CoreCounters]{Key: clos, Val: rdt.CoreCounters{Instructions: uint64(1000 * clos), Cycles: 2000, LLCRefs: 300, LLCMisses: 40}})
	}
	specs, err := policy.ParseShadowSpecs("static:2,ioca")
	if err != nil {
		panic(err)
	}
	iat, ev := policy.NewIAT(), policy.NewEvaluator(specs)
	for i := 0; i < 4; i++ {
		s.NowNS = float64(i) * 1e8
		s.DDIOMissPS = []float64{5e6, 1e3}[i%2]
		a := iat.Decide(s)
		ev.Tick(s, a, s.DDIOMask)
	}
	if d.PolicyState, err = iat.AppendSnapshot(nil); err != nil {
		panic(err)
	}
	if d.ShadowState, err = ev.AppendSnapshot(nil); err != nil {
		panic(err)
	}
	return c
}

// TestRoundTrip: marshal → unmarshal reproduces the checkpoint, and
// marshalling is byte-deterministic.
func TestRoundTrip(t *testing.T) {
	for _, c := range []*Checkpoint{sampleCheckpoint(), shadowedCheckpoint()} {
		roundTrip(t, c)
	}
}

// TestIntKeysInMapOrder: the int-keyed members of a checkpoint list
// their keys as encoding/json lists map keys, "10" before "2".
func TestIntKeysInMapOrder(t *testing.T) {
	data, err := Marshal(shadowedCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"prev_cum":{"1":{"Instructions":1000,`)) {
		t.Fatalf("prev_cum does not start at key 1:\n%s", data)
	}
	if i, j := bytes.Index(data, []byte(`"10":{"Instructions"`)), bytes.Index(data, []byte(`"2":{"Instructions"`)); i < 0 || j < i {
		t.Fatalf("prev_cum key 10 at %d, key 2 at %d; want 10 first", i, j)
	}
}

func roundTrip(t *testing.T, c *Checkpoint) {
	t.Helper()
	data, err := Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("marshalling the same checkpoint twice produced different bytes")
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	redata, err := Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, redata) {
		t.Fatal("decode(encode(c)) did not re-encode to identical bytes")
	}
	if got.Iteration != c.Iteration || got.ConfigHash != c.ConfigHash {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if got.Injector == nil || got.Injector.State != c.Injector.State {
		t.Fatalf("round trip lost injector state: %+v", got.Injector)
	}
}

// TestCorruption: every corruption mode yields its typed error — never a
// panic, never a silently-wrong checkpoint.
func TestCorruption(t *testing.T) {
	data, err := Marshal(sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Unmarshal(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty: got %v, want ErrEmpty", err)
	}
	if _, err := Unmarshal(data[:10]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short header: got %v, want ErrTruncated", err)
	}
	if _, err := Unmarshal(data[:len(data)-5]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated payload: got %v, want ErrTruncated", err)
	}

	bad := bytes.Clone(data)
	bad[0] = 'X'
	if _, err := Unmarshal(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: got %v, want ErrBadMagic", err)
	}

	bad = bytes.Clone(data)
	bad[headerSize+3] ^= 0x40 // flip a payload bit
	if _, err := Unmarshal(bad); !errors.Is(err, ErrChecksum) {
		t.Errorf("flipped payload byte: got %v, want ErrChecksum", err)
	}

	bad = bytes.Clone(data)
	bad[12] ^= 0x01 // flip a checksum byte
	if _, err := Unmarshal(bad); !errors.Is(err, ErrChecksum) {
		t.Errorf("flipped checksum byte: got %v, want ErrChecksum", err)
	}

	bad = bytes.Clone(data)
	binary.LittleEndian.PutUint32(bad[4:8], Version+3)
	_, err = Unmarshal(bad)
	var uv UnknownVersionError
	if !errors.As(err, &uv) || uv.Version != Version+3 {
		t.Errorf("future version: got %v, want UnknownVersionError{%d}", err, Version+3)
	}

	// Valid envelope around a payload that is not a checkpoint.
	if _, err := Unmarshal(Encode([]byte("{nope"))); err == nil {
		t.Error("garbage JSON payload accepted")
	}
}

// TestWriteReadFile: the atomic write path round-trips and leaves no
// temp files behind; reading a missing or empty file errors cleanly.
func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "host.ckpt")
	c := sampleCheckpoint()
	if err := WriteFile(path, c); err != nil {
		t.Fatal(err)
	}
	// Overwrite must go through rename too.
	c.Iteration = 18
	if err := WriteFile(path, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iteration != 18 {
		t.Fatalf("read iteration %d, want 18", got.Iteration)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("checkpoint dir has %d entries (temp files left behind?)", len(ents))
	}

	if _, err := ReadFile(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Error("reading a missing checkpoint succeeded")
	}
	empty := filepath.Join(dir, "empty.ckpt")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(empty); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty file: got %v, want ErrEmpty", err)
	}
}

// TestConfigHash: order- and boundary-sensitive, stable.
func TestConfigHash(t *testing.T) {
	a := ConfigHash("x", "y")
	if a != ConfigHash("x", "y") {
		t.Error("ConfigHash not stable")
	}
	if a == ConfigHash("y", "x") {
		t.Error("ConfigHash ignores order")
	}
	if ConfigHash("xy") == ConfigHash("x", "y") {
		t.Error("ConfigHash ignores part boundaries")
	}
}

// FuzzCkptRoundTrip: for arbitrary bytes, Unmarshal never panics; for
// bytes that decode, re-encoding the decoded checkpoint decodes again to
// the same payload.
func FuzzCkptRoundTrip(f *testing.F) {
	for _, c := range []*Checkpoint{sampleCheckpoint(), shadowedCheckpoint()} {
		seed, err := Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte("IATC"))
	f.Add(Encode(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Unmarshal(data)
		if err != nil {
			return
		}
		re, err := Marshal(c)
		if err != nil {
			t.Fatalf("re-marshal of decoded checkpoint failed: %v", err)
		}
		c2, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		re2, err := Marshal(c2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatal("decode/encode round trip not a fixed point")
		}
	})
}
