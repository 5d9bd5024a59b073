package telemetry

import (
	"encoding/json"
	"fmt"
)

// Severity classifies events for filtering. Ordering matters: a filter
// at SevInfo passes SevInfo and SevWarn.
type Severity uint8

const (
	SevDebug Severity = iota
	SevInfo
	SevWarn
)

func (s Severity) String() string {
	switch s {
	case SevDebug:
		return "debug"
	case SevInfo:
		return "info"
	case SevWarn:
		return "warn"
	}
	return "unknown"
}

// MarshalJSON renders the severity as its lowercase name so snapshot
// files are self-describing.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts the names emitted by MarshalJSON.
func (s *Severity) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	switch name {
	case "debug":
		*s = SevDebug
	case "info":
		*s = SevInfo
	case "warn":
		*s = SevWarn
	default:
		return fmt.Errorf("telemetry: unknown severity %q", name)
	}
	return nil
}

// Event is one structured occurrence on the sim timeline. TimeNS is sim
// time — emitters stamp it from their own clock; wall clock is banned
// here (detlint). Seq is assigned by the registry at Emit and makes
// emission order recoverable even when two events share a timestamp.
//
// Data carries an optional typed payload for in-process renderers (the
// Fig. 11 trace writer reads core.IterationInfo from it). It is
// excluded from JSON exports: payloads are arbitrary structs and would
// make snapshot bytes depend on fields outside telemetry's control.
type Event struct {
	TimeNS    float64  `json:"time_ns"`
	Seq       uint64   `json:"seq"`
	Sev       Severity `json:"sev"`
	Subsystem string   `json:"subsystem"`
	Name      string   `json:"name"`
	Detail    string   `json:"detail,omitempty"`
	Data      any      `json:"-"`
}

// ring is a bounded overwrite-oldest event buffer. cap <= 0 means
// capture is disabled (every push just counts a drop). The buffer starts
// small and doubles as events arrive, up to capacity, so a registry that
// records a few dozen events does not hold a full-capacity buffer.
type ring struct {
	buf      []Event
	capacity int
	start    int // index of oldest event
	n        int // live events in buf
	seq      uint64
	dropped  uint64
}

// ringStart is the length of a ring's first buffer.
const ringStart = 32

func newRing(capacity int) ring {
	return ring{capacity: max(capacity, 0)}
}

func (r *ring) push(ev Event) {
	r.seq++
	ev.Seq = r.seq
	if r.capacity == 0 {
		r.dropped++
		return
	}
	if r.n == len(r.buf) && r.n < r.capacity {
		// Nothing has been overwritten yet, so the live events are
		// buf[:n] in order and the grown buffer keeps start at 0.
		grown := make([]Event, min(max(2*r.n, ringStart), r.capacity))
		copy(grown, r.buf)
		r.buf = grown
	}
	if r.n == len(r.buf) {
		r.buf[r.start] = ev
		r.start = (r.start + 1) % len(r.buf)
		r.dropped++
		return
	}
	r.buf[(r.start+r.n)%len(r.buf)] = ev
	r.n++
}

// events returns the live contents oldest-first, filtered by minimum
// severity and (when non-empty) subsystem.
func (r *ring) events(minSev Severity, subsystem string) []Event {
	out := make([]Event, 0, r.n)
	for i := 0; i < r.n; i++ {
		ev := r.buf[(r.start+i)%len(r.buf)]
		if ev.Sev < minSev {
			continue
		}
		if subsystem != "" && ev.Subsystem != subsystem {
			continue
		}
		out = append(out, ev)
	}
	return out
}
