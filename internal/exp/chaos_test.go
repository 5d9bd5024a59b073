package exp

import (
	"testing"

	"iatsim/internal/faults"
	"iatsim/internal/telemetry"
)

// quickChaosOpts is a small sweep that still lets degrade/re-arm cycles
// happen within the warm window.
func quickChaosOpts() ChaosOpts {
	o := DefaultChaosOpts()
	o.Scales = []float64{0, 2}
	o.WarmNS = 0.4e9
	o.MeasureNS = 0.2e9
	o.IntervalNS = 0.1e9
	return o
}

// TestChaosPointInvariantsAndTelemetry drives one heavily faulted IAT cell
// directly and checks the acceptance criteria: zero invalid mask writes,
// a defined final state (valid allocation or safe fallback), faults
// actually injected, and every injection/recovery surfaced via telemetry.
func TestChaosPointInvariantsAndTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	o := quickChaosOpts()
	prof, err := faults.ProfileByName(o.Profile)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	row, snap := runChaosPoint(prof.Scaled(4), 4, "iat", 1234, o, reg)

	if row.InvalidMaskWrites != 0 {
		t.Fatalf("daemon requested %d invalid mask writes under faults", row.InvalidMaskWrites)
	}
	total := row.MSRFaults + row.CtrGlitches + row.NICFaults + row.PollSkips
	if total == 0 {
		t.Fatal("no faults injected at 4x the default profile")
	}
	if row.FinalState == "static" || row.FinalState == "" {
		t.Fatalf("iat row has final state %q", row.FinalState)
	}
	if row.DDIOWays < 1 || row.DDIOWays > 11 {
		t.Fatalf("final DDIO ways = %d", row.DDIOWays)
	}
	if snap == nil {
		t.Fatal("no telemetry snapshot returned")
	}
	// Every injection is an event on the faults subsystem; the injected
	// count in the row must agree with the telemetry counters.
	evs := reg.Events(telemetry.SevDebug, "faults")
	if len(evs) == 0 {
		t.Fatal("injections produced no telemetry events")
	}
	var fromCounters uint64
	for _, k := range []string{"msr-reject", "msr-sticky", "counter-zero", "counter-saturate",
		"counter-wrap", "counter-stale", "nic-drop", "nic-stall", "poll-skip"} {
		fromCounters += reg.Counter("faults", "", k).Value()
	}
	if fromCounters != total {
		t.Fatalf("telemetry counted %d injections, row counted %d", fromCounters, total)
	}
	// The daemon's self-healing activity surfaces as daemon// events.
	if row.SampleRejects > 0 || row.Degradations > 0 {
		if len(reg.Events(telemetry.SevWarn, "daemon")) == 0 {
			t.Fatal("sample rejects/degradations produced no daemon warn events")
		}
	}
}

// TestChaosBaselineUnmanaged: baseline rows carry no daemon health
// activity, and a zero fault scale injects nothing.
func TestChaosBaselineUnmanaged(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	o := quickChaosOpts()
	prof, _ := faults.ProfileByName(o.Profile)
	row, _ := runChaosPoint(prof.Scaled(0), 0, "baseline", 99, o, nil)
	if row.FinalState != "static" || row.SampleRejects != 0 || row.InvalidMaskWrites != 0 {
		t.Fatalf("fault-free baseline row: %+v", row)
	}
	if n := row.MSRFaults + row.CtrGlitches + row.NICFaults + row.PollSkips; n != 0 {
		t.Fatalf("zero-scaled profile injected %d faults", n)
	}
	if row.DDIOWays != 2 {
		t.Fatalf("baseline DDIO ways = %d, want the static 2", row.DDIOWays)
	}
}
