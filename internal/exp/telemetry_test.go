package exp

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"iatsim/internal/telemetry"
)

// TestFigureSnapshotContents spot-checks that a harness-collected
// snapshot is valid and actually covers the instrumented layers.
func TestFigureSnapshotContents(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	t.Cleanup(func() { SetExec(Exec{}) })
	o := DefaultFig8Opts()
	o.Sizes = []int{64}
	o.WarmNS, o.MeasureNS = 0.1e9, 0.1e9
	o.IntervalNS = 0.05e9 // several daemon iterations within the short run
	dir := t.TempDir()
	SetExec(Exec{Jobs: 1, TelemetryDir: dir})
	if rows := RunFig8(io.Discard, o); len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}

	snap, err := telemetry.ReadSnapshotFile(filepath.Join(dir, "fig8_pkt_64_iat.json"))
	if err != nil {
		t.Fatal(err)
	}
	subsystems := map[string]bool{}
	for _, m := range snap.Metrics {
		subsystems[m.Subsystem] = true
	}
	for _, want := range []string{"cache", "ddio", "mem", "nic"} {
		if !subsystems[want] {
			t.Errorf("snapshot has no %q metrics (got %v)", want, subsystems)
		}
	}
	// The IAT run must carry daemon iteration events in the ring.
	if evs := snapEvents(snap, "daemon"); len(evs) == 0 {
		t.Error("iat snapshot has no daemon events")
	}
	// The Chrome trace alongside it must be structurally loadable.
	data, err := os.ReadFile(filepath.Join(dir, "fig8_pkt_64_iat.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateChromeTrace(data); err != nil {
		t.Fatal(err)
	}
}

func snapEvents(s *telemetry.Snapshot, subsystem string) []telemetry.Event {
	var out []telemetry.Event
	for _, ev := range s.Events {
		if ev.Subsystem == subsystem {
			out = append(out, ev)
		}
	}
	return out
}
