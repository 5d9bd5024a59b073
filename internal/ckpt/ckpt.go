// Package ckpt is the deterministic checkpoint/restore subsystem: a
// versioned, checksum'd envelope around the serialised control-plane
// state of one IAT daemon (core.DaemonState, which embeds the active
// policy's and shadow evaluator's state) plus the fault injector's PRNG
// stream position. A daemon killed at iteration k and resumed from its
// checkpoint continues byte-identically from k+1 — the envelope exists
// so that guarantee survives real-world file corruption: every decode
// failure is a typed error (never a panic), and callers fall back to a
// cold start.
//
// Envelope layout (all integers little-endian):
//
//	offset size  field
//	0      4     magic "IATC"
//	4      4     format version (currently 1)
//	8      4     payload length in bytes
//	12     4     IEEE CRC32 of the payload
//	16     n     payload (JSON-encoded Checkpoint)
//
// The payload is encoding/json output of structs with fixed field order
// and sorted map keys, so identical state yields identical files — the
// property the resume-determinism tests byte-compare against.
package ckpt

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"

	"iatsim/internal/core"
	"iatsim/internal/faults"
	"iatsim/internal/jsonbuf"
)

// Version is the current envelope format version. Decoders accept
// exactly the versions they know how to migrate; anything newer is an
// UnknownVersionError.
const Version uint32 = 1

// magic identifies a checkpoint file.
var magic = [4]byte{'I', 'A', 'T', 'C'}

// headerSize is the fixed envelope prefix before the payload.
const headerSize = 16

// Typed decode errors: every way a checkpoint file can be unusable maps
// to one of these (or UnknownVersionError), so callers can distinguish
// "corrupt, cold start" from programming errors.
var (
	// ErrEmpty is returned for a zero-length checkpoint (e.g. a crash
	// during a non-atomic copy).
	ErrEmpty = errors.New("ckpt: empty checkpoint")
	// ErrTruncated is returned when the file is shorter than its header
	// claims the payload to be.
	ErrTruncated = errors.New("ckpt: truncated checkpoint")
	// ErrBadMagic is returned when the file does not start with the
	// checkpoint magic.
	ErrBadMagic = errors.New("ckpt: not a checkpoint file (bad magic)")
	// ErrChecksum is returned when the payload does not match its CRC32.
	ErrChecksum = errors.New("ckpt: payload checksum mismatch")
)

// UnknownVersionError is returned when the envelope version is not one
// this build can decode (a checkpoint from a future build).
type UnknownVersionError struct {
	Version uint32
}

func (e UnknownVersionError) Error() string {
	return fmt.Sprintf("ckpt: unknown checkpoint version %d (this build reads <= %d)", e.Version, Version)
}

// Checkpoint is one captured control-plane state: the daemon (policy and
// shadow state embedded), optionally the fault injector's stream
// position, and enough identity to validate a resume — the iteration
// count and sim time the capture happened at, and a hash of the run
// configuration so a checkpoint is never silently resumed into a
// different scenario.
type Checkpoint struct {
	Iteration  uint64                `json:"iteration"`
	SimTimeNS  float64               `json:"sim_time_ns"`
	ConfigHash string                `json:"config_hash,omitempty"`
	Daemon     core.DaemonState      `json:"daemon"`
	Injector   *faults.InjectorState `json:"injector,omitempty"`
}

// Encode wraps payload in the checksum'd envelope.
func Encode(payload []byte) []byte {
	out := make([]byte, headerSize, headerSize+len(payload))
	out = append(out, payload...)
	putHeader(out)
	return out
}

// putHeader fills the envelope header at the front of env from the
// payload that follows it.
func putHeader(env []byte) {
	payload := env[headerSize:]
	copy(env[0:4], magic[:])
	binary.LittleEndian.PutUint32(env[4:8], Version)
	binary.LittleEndian.PutUint32(env[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(env[12:16], crc32.ChecksumIEEE(payload))
}

// Decode validates the envelope and returns the payload. All failures
// are typed errors.
func Decode(data []byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, ErrEmpty
	}
	if len(data) < headerSize {
		return nil, ErrTruncated
	}
	if [4]byte(data[0:4]) != magic {
		return nil, ErrBadMagic
	}
	v := binary.LittleEndian.Uint32(data[4:8])
	if v != Version {
		return nil, UnknownVersionError{Version: v}
	}
	n := binary.LittleEndian.Uint32(data[8:12])
	payload := data[headerSize:]
	if uint64(len(payload)) != uint64(n) {
		return nil, ErrTruncated
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[12:16]) {
		return nil, ErrChecksum
	}
	return payload, nil
}

// Marshal serialises a checkpoint into its enveloped byte form.
// Deterministic: identical checkpoints yield identical bytes.
func Marshal(c *Checkpoint) ([]byte, error) { return AppendMarshal(nil, c) }

// AppendMarshal appends the enveloped form of c to dst — Marshal for a
// caller that reuses one buffer across checkpoints.
func AppendMarshal(dst []byte, c *Checkpoint) ([]byte, error) {
	start := len(dst)
	out, err := jsonbuf.Append(append(dst, make([]byte, headerSize)...), c)
	if err != nil {
		return dst, fmt.Errorf("ckpt: marshal: %w", err)
	}
	putHeader(out[start:])
	return out, nil
}

// Unmarshal decodes an enveloped checkpoint. Corruption and version
// mismatches come back as the package's typed errors.
func Unmarshal(data []byte) (*Checkpoint, error) {
	payload, err := Decode(data)
	if err != nil {
		return nil, err
	}
	var c Checkpoint
	if err := json.Unmarshal(payload, &c); err != nil {
		return nil, fmt.Errorf("ckpt: decode payload: %w", err)
	}
	return &c, nil
}

// WriteFile atomically writes a checkpoint to path: the bytes land in a
// temporary file in the same directory first and are renamed over path,
// so a crash mid-write never leaves a half-written checkpoint where a
// resume would find it.
func WriteFile(path string, c *Checkpoint) error {
	data, err := Marshal(c)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("ckpt: write %s: %w", path, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: write %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: write %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: write %s: %w", path, err)
	}
	return nil
}

// ReadFile reads and decodes a checkpoint file.
func ReadFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Unmarshal(data)
}

// ConfigHash folds the identifying parts of a run configuration (tenant
// spec, scale, interval, chaos profile and seed, policy, shadows ...)
// into a short stable hash, recorded in the checkpoint and verified at
// resume so state is never restored into a different scenario.
func ConfigHash(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// FileHash returns the ConfigHash-style FNV-1a hash of a file's bytes,
// used by the harness manifest to record which checkpoint a resumed run
// started from.
func FileHash(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}
