package trace

import (
	"encoding/csv"
	"strings"
	"testing"

	"iatsim/internal/cache"
	"iatsim/internal/core"
	"iatsim/internal/policy"
	"iatsim/internal/telemetry"
)

func sampleInfo(t float64, state policy.State) core.IterationInfo {
	return core.IterationInfo{
		NowNS:    t,
		State:    state,
		Stable:   state == policy.LowKeep,
		Action:   "test",
		DDIOWays: 2,
		DDIOMask: cache.ContiguousMask(9, 2),
		Masks: []core.GroupMask{
			{CLOS: 1, Mask: cache.ContiguousMask(0, 3)},
			{CLOS: 4, Mask: cache.ContiguousMask(3, 2)},
		},
		DDIOHitPS:  1e6,
		DDIOMissPS: 5e3,
	}
}

func TestWriterEmitsHeaderAndRows(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	if err := w.Record(sampleInfo(1e9, policy.LowKeep)); err != nil {
		t.Fatal(err)
	}
	if err := w.Record(sampleInfo(2e9, policy.IODemand)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	hdr := strings.Join(rows[0], ",")
	if !strings.Contains(hdr, "clos1_mask") || !strings.Contains(hdr, "clos4_mask") {
		t.Fatalf("header missing CLOS columns: %s", hdr)
	}
	if rows[1][0] != "1.000" || rows[2][1] != "IODemand" {
		t.Fatalf("data rows wrong: %v / %v", rows[1], rows[2])
	}
	// Every row has the header's width.
	for i, r := range rows {
		if len(r) != len(rows[0]) {
			t.Fatalf("row %d width %d != header %d", i, len(r), len(rows[0]))
		}
	}
}

// TestRenderEventsMatchesDirectRecord proves the writer is a pure
// renderer over the daemon's event stream: replaying "iteration" events
// (IterationInfo payloads) produces the same bytes as calling Record
// directly, and foreign events are transparently skipped.
func TestRenderEventsMatchesDirectRecord(t *testing.T) {
	infos := []core.IterationInfo{
		sampleInfo(1e9, policy.LowKeep),
		sampleInfo(2e9, policy.IODemand),
	}

	var direct strings.Builder
	w := NewWriter(&direct)
	for _, info := range infos {
		if err := w.Record(info); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	reg.Emit(telemetry.Event{TimeNS: 0.5e9, Subsystem: "daemon", Name: "state", Detail: "LowKeep->IODemand"})
	for _, info := range infos {
		reg.Emit(telemetry.Event{
			TimeNS: info.NowNS, Subsystem: "daemon", Name: "iteration",
			Detail: info.Action, Data: info,
		})
	}
	reg.Emit(telemetry.Event{TimeNS: 2.5e9, Subsystem: "daemon", Name: "mask_write", Detail: "ddio=0x600"})

	var replayed strings.Builder
	if err := RenderEvents(&replayed, reg.Events(telemetry.SevDebug, "")); err != nil {
		t.Fatal(err)
	}
	if direct.String() != replayed.String() {
		t.Fatalf("event replay diverged from direct rendering\n--- direct ---\n%s\n--- replay ---\n%s",
			direct.String(), replayed.String())
	}
}

func TestHookNeverPanics(t *testing.T) {
	w := NewWriter(failWriter{})
	hook := w.Hook()
	hook(sampleInfo(1e9, policy.Reclaim)) // must swallow the error
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, &writeErr{} }

type writeErr struct{}

func (*writeErr) Error() string { return "nope" }
