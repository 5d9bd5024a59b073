package core

import (
	"strings"
	"testing"

	"iatsim/internal/policy"
	"iatsim/internal/telemetry"
)

// TestDaemonEmitsTelemetryEvents drives the IODemand growth scenario
// with a telemetry sink attached and checks the daemon's full event
// contract: info-severity state transitions, one debug mask_write per
// register write actually performed, and one debug iteration event per
// pass whose payload is the same IterationInfo OnIteration receives.
func TestDaemonEmitsTelemetryEvents(t *testing.T) {
	m := newMockSys([]TenantInfo{ioTenant("fwd", 1, 0, PC)})
	d := testDaemon(t, m, Options{})
	reg := telemetry.NewRegistry()
	d.Tel = reg
	var hookInfos []IterationInfo
	d.OnIteration = func(it IterationInfo) { hookInfos = append(hookInfos, it) }

	now := 0.0
	tick := func() { now += 100e6; d.Tick(now) }
	steady(m, tick)
	steady(m, tick)
	for i := 1; i <= 10; i++ {
		m.advance(0, 1000, 2000, 100, 10)
		m.advanceDDIO(100_000, uint64(1_000_000+i*200_000)/10)
		tick()
	}
	if d.State() != policy.HighKeep {
		t.Fatalf("state = %v, want HighKeep", d.State())
	}

	states := reg.Events(telemetry.SevInfo, "daemon")
	var transitions []string
	for _, ev := range states {
		if ev.Name != "state" {
			t.Fatalf("unexpected info-severity daemon event %q", ev.Name)
		}
		transitions = append(transitions, ev.Detail)
	}
	joined := strings.Join(transitions, " ")
	if !strings.Contains(joined, "LowKeep->IODemand") || !strings.Contains(joined, "->HighKeep") {
		t.Fatalf("state transitions = %v, want LowKeep->IODemand ... ->HighKeep", transitions)
	}

	var maskWrites, iterations int
	for _, ev := range reg.Events(telemetry.SevDebug, "daemon") {
		switch ev.Name {
		case "mask_write":
			if ev.Sev != telemetry.SevDebug {
				t.Fatalf("mask_write at severity %v", ev.Sev)
			}
			maskWrites++
		case "iteration":
			info, ok := ev.Data.(IterationInfo)
			if !ok {
				t.Fatalf("iteration event payload is %T, want IterationInfo", ev.Data)
			}
			if info.NowNS != ev.TimeNS || info.Action != ev.Detail {
				t.Fatalf("iteration payload disagrees with event: %+v vs %+v", info, ev)
			}
			iterations++
		}
	}
	if got := m.maskWrites + m.ddioWrites; maskWrites != got {
		t.Fatalf("mask_write events = %d, register writes = %d", maskWrites, got)
	}
	if total, _ := d.Iterations(); iterations != int(total) {
		t.Fatalf("iteration events = %d, daemon iterations = %d", iterations, total)
	}
	if len(hookInfos) != iterations {
		t.Fatalf("OnIteration saw %d infos, telemetry %d", len(hookInfos), iterations)
	}
}

// TestDaemonTelemetryOffCostsNothing checks the zero-value path: with no
// sink the daemon emits nothing and still runs (nil-safe throughout).
func TestDaemonTelemetryOffCostsNothing(t *testing.T) {
	m := newMockSys([]TenantInfo{ioTenant("fwd", 1, 0, PC)})
	d := testDaemon(t, m, Options{})
	now := 0.0
	tick := func() { now += 100e6; d.Tick(now) }
	for i := 0; i < 5; i++ {
		steady(m, tick)
	}
	if total, _ := d.Iterations(); total == 0 {
		t.Fatal("daemon did not iterate")
	}
}
