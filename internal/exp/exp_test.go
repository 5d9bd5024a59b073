package exp

import (
	"bytes"
	"encoding/csv"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"iatsim/internal/cache"
)

// These are integration tests: each one runs a miniature version of a
// paper experiment end to end (platform + workloads + controller) and
// checks the qualitative result the paper reports. The full-size runs live
// behind cmd/experiments and the repository-root benchmarks.

// skipHeavy skips the full-physics integration tests in -short mode and
// under the race detector (see race_on_test.go); the -race invocation
// still runs the harness-concurrency tests in runner_test.go.
func skipHeavy(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("integration test")
	}
	if raceEnabled {
		t.Skip("full-physics integration test: too slow under -race")
	}
}

// pinCommittedCSV checks that rows, run at the committed configuration
// (scale 100, base seed 0), serialise to exactly results/<name>.csv: the
// shape tests below then also tie the committed ablation outputs to the
// code. A deliberate change regenerates them with
// `experiments -ablations -csv results`.
func pinCommittedCSV(t *testing.T, name string, rows any) {
	t.Helper()
	var got bytes.Buffer
	if err := WriteRowsCSV(&got, rows); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "results", name+".csv")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("rows differ from the committed %s:\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}

func TestFig3RingSizeMatters(t *testing.T) {
	skipHeavy(t)
	o := DefaultFig3Opts()
	o.Rings = []int{64, 1024}
	o.Sizes = []int{64}
	o.WarmNS, o.MeasureNS = 0.2e9, 0.4e9
	rows := RunFig3(io.Discard, o)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].MaxMpps >= rows[1].MaxMpps {
		t.Fatalf("64-entry ring (%.2f) should underperform 1024 (%.2f) at 64B",
			rows[0].MaxMpps, rows[1].MaxMpps)
	}
}

func TestFig4OverlapHurts(t *testing.T) {
	skipHeavy(t)
	o := DefaultFig4Opts()
	o.WorkingSets = []int{4}
	o.WarmNS, o.MeasureNS = 0.4e9, 0.4e9
	rows := RunFig4(io.Discard, o)
	dedicated, overlap := rows[0], rows[1]
	if overlap.MopsPerSec >= dedicated.MopsPerSec {
		t.Fatalf("DDIO overlap should cut throughput: %.2f vs %.2f",
			overlap.MopsPerSec, dedicated.MopsPerSec)
	}
	if overlap.AvgLatencyNS <= dedicated.AvgLatencyNS {
		t.Fatalf("DDIO overlap should raise latency: %.1f vs %.1f",
			overlap.AvgLatencyNS, dedicated.AvgLatencyNS)
	}
}

func TestFig8IATReducesLeak(t *testing.T) {
	skipHeavy(t)
	o := DefaultFig8Opts()
	o.Sizes = []int{1500}
	rows := RunFig8(io.Discard, o)
	var base, iat Fig8Row
	for _, r := range rows {
		if r.Mode == "baseline" {
			base = r
		} else {
			iat = r
		}
	}
	if base.DDIOMissPS == 0 {
		t.Fatal("baseline shows no Leaky DMA at 1.5KB")
	}
	if iat.DDIOMissPS >= base.DDIOMissPS/2 {
		t.Fatalf("IAT did not cut DDIO misses: %.3e vs %.3e", iat.DDIOMissPS, base.DDIOMissPS)
	}
	if iat.MemGBps >= base.MemGBps {
		t.Fatalf("IAT did not cut memory bandwidth: %.2f vs %.2f", iat.MemGBps, base.MemGBps)
	}
}

func TestFig9IATGrowsStack(t *testing.T) {
	skipHeavy(t)
	o := DefaultFig9Opts()
	o.FlowSteps = []int{1, 100000}
	o.PlateauNS, o.MeasureNS = 1.2e9, 0.4e9
	rows := RunFig9(io.Discard, o)
	var baseIPC, iatIPC float64
	var iatWays int
	for _, r := range rows {
		if r.Flows != 100000 {
			continue
		}
		if r.Mode == "baseline" {
			baseIPC = r.OVSIPC
		} else {
			iatIPC, iatWays = r.OVSIPC, r.OVSWays
		}
	}
	if iatWays <= 2 {
		t.Fatalf("IAT did not grow the stack: %d ways", iatWays)
	}
	if iatIPC <= baseIPC {
		t.Fatalf("IAT IPC %.3f not above baseline %.3f", iatIPC, baseIPC)
	}
}

func TestFig10IATBeatsCoreOnlyInPhase3(t *testing.T) {
	skipHeavy(t)
	o := DefaultFig10Opts()
	o.Sizes = []int{1500}
	o.Phase1NS, o.Phase2NS, o.Phase3NS = 1e9, 3e9, 3e9
	rows := RunFig10(io.Discard, o)
	get := func(mode string) Fig10Row {
		for _, r := range rows {
			if r.Mode == mode {
				return r
			}
		}
		t.Fatalf("mode %s missing", mode)
		return Fig10Row{}
	}
	base, coreOnly, iat := get("baseline"), get("core-only"), get("iat")
	// Phase 2: both dynamic mechanisms beat the baseline.
	if iat.P2Mops <= base.P2Mops {
		t.Fatalf("IAT P2 %.2f not above baseline %.2f", iat.P2Mops, base.P2Mops)
	}
	// Phase 3: core-only collapses toward the baseline; IAT keeps its
	// advantage (the paper's headline Latent Contender result).
	if iat.P3Mops <= coreOnly.P3Mops {
		t.Fatalf("IAT P3 %.2f not above core-only %.2f", iat.P3Mops, coreOnly.P3Mops)
	}
	if iat.P3LatNS >= base.P3LatNS {
		t.Fatalf("IAT P3 latency %.1f not below baseline %.1f", iat.P3LatNS, base.P3LatNS)
	}
}

func TestFig11SeriesShowsShuffle(t *testing.T) {
	skipHeavy(t)
	o := DefaultFig10Opts()
	o.Phase1NS, o.Phase2NS, o.Phase3NS = 1e9, 2e9, 2e9
	series := RunFig11(io.Discard, o)
	if len(series) < 20 {
		t.Fatalf("series too short: %d", len(series))
	}
	first, last := series[0], series[len(series)-1]
	if first.C4Ways == last.C4Ways && first.BE2Ways == last.BE2Ways && first.BE3Ways == last.BE3Ways {
		t.Fatal("no allocation movement over the whole trace")
	}
	// After the manual DDIO expansion the PC container must not overlap.
	if last.C4Ways.Overlaps(last.DDIOMask) {
		t.Fatalf("container 4 (%v) left overlapping DDIO (%v)", last.C4Ways, last.DDIOMask)
	}
}

func TestFig15OverheadScalesWithCores(t *testing.T) {
	skipHeavy(t)
	o := DefaultFig15Opts()
	o.TenantCounts = []int{1, 8}
	o.CoresPer = []int{1}
	o.Iterations = 30
	rows := RunFig15(io.Discard, o)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].StableUS <= rows[0].StableUS {
		t.Fatalf("polling 8 tenants (%.1fus) not costlier than 1 (%.1fus)",
			rows[1].StableUS, rows[0].StableUS)
	}
	// Unstable iterations include the stable poll plus transition and
	// re-alloc work; allow wall-clock jitter between the two separate
	// measurement runs.
	for _, r := range rows {
		if r.UnstableUS < 0.5*r.StableUS {
			t.Errorf("unstable (%.1fus) implausibly cheaper than stable (%.1fus) at %d tenants",
				r.UnstableUS, r.StableUS, r.Tenants)
		}
	}
}

func TestAppMixSoloAndCorun(t *testing.T) {
	skipHeavy(t)
	solo := RunAppMix(AppMixOpts{Net: "redis", App: "rocksdb:C", Solo: true, TargetOps: 20000})
	if solo.ExecNS <= 0 {
		t.Fatal("solo run did not finish")
	}
	worst := RunAppMix(AppMixOpts{Net: "redis", App: "rocksdb:C", Placement: PlacePC, TargetOps: 20000})
	if worst.ExecNS <= solo.ExecNS {
		t.Fatalf("DDIO-overlapped co-run (%.2fs) not slower than solo (%.2fs)",
			worst.ExecNS/1e9, solo.ExecNS/1e9)
	}
	if worst.RedisOpsPS <= 0 || worst.RedisMeanNS <= 0 {
		t.Fatal("redis metrics missing")
	}
}

func TestAppMixFastClick(t *testing.T) {
	skipHeavy(t)
	r := RunAppMix(AppMixOpts{Net: "fastclick", App: "gcc", Placement: PlaceNone,
		TargetInstr: 1 << 62, MaxNS: 1.5e9})
	if r.NFPPS <= 0 {
		t.Fatal("NF chain delivered nothing")
	}
	if r.NFMaxLatNS <= 0 {
		t.Fatal("no NF latency recorded")
	}
}

func TestTablesPrint(t *testing.T) {
	PrintTable1(io.Discard)
	PrintTable2(io.Discard)
}

func TestAblationMechanisms(t *testing.T) {
	skipHeavy(t)
	rows := RunAblationMechanisms(io.Discard)
	pinCommittedCSV(t, "abl-mech", rows)
	byName := map[string]AblationMechRow{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	if byName["ddio-only"].DDIOMissPS >= byName["baseline"].DDIOMissPS/2 {
		t.Fatalf("DDIO sizing alone should slash misses: %.3e vs %.3e",
			byName["ddio-only"].DDIOMissPS, byName["baseline"].DDIOMissPS)
	}
	if byName["full-iat"].MemGBps >= byName["baseline"].MemGBps {
		t.Fatal("full IAT should cut memory bandwidth")
	}
}

func TestAblationDDIOExtHeaderOnlyTradeoff(t *testing.T) {
	skipHeavy(t)
	rows := RunAblationDDIOExt(io.Discard)
	pinCommittedCSV(t, "abl-ddioext", rows)
	byName := map[string]AblationDDIOExtRow{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	// Header-only protects the victim...
	if byName["header-only"].VictimLatNS >= byName["stock"].VictimLatNS {
		t.Fatalf("header-only did not protect the victim: %.1f vs %.1f",
			byName["header-only"].VictimLatNS, byName["stock"].VictimLatNS)
	}
	// ...by paying memory bandwidth for the bypassed payloads.
	if byName["header-only"].MemGBps <= byName["stock"].MemGBps {
		t.Fatal("header-only should consume more memory bandwidth")
	}
	// The forwarder itself only reads headers, so it keeps line rate.
	if byName["header-only"].FwdPPS < byName["stock"].FwdPPS*0.98 {
		t.Fatal("header-only hurt the forwarder")
	}
}

func TestAblationMBAOrdersLatency(t *testing.T) {
	skipHeavy(t)
	rows := RunAblationMBA(io.Discard)
	pinCommittedCSV(t, "abl-mba", rows)
	if !(rows[0].PCLatNS > rows[1].PCLatNS && rows[1].PCLatNS > rows[2].PCLatNS) {
		t.Fatalf("PC latency not monotone in BE throttle: %+v", rows)
	}
	if !(rows[0].BEOpsPS > rows[1].BEOpsPS && rows[1].BEOpsPS > rows[2].BEOpsPS) {
		t.Fatalf("BE throughput not monotone in throttle: %+v", rows)
	}
}

func TestAblationGrowthBothConverge(t *testing.T) {
	skipHeavy(t)
	rows := RunAblationGrowth(io.Discard)
	pinCommittedCSV(t, "abl-growth", rows)
	for _, r := range rows {
		if r.ConvergeNS == 0 {
			t.Fatalf("policy %v never converged", r.Policy)
		}
		if r.FinalWays < 3 {
			t.Fatalf("policy %v grew only to %d ways", r.Policy, r.FinalWays)
		}
	}
}

func TestAblationReplacementSquatting(t *testing.T) {
	skipHeavy(t)
	rows := RunAblationReplacement(io.Discard)
	pinCommittedCSV(t, "abl-policy", rows)
	var srrip, lru AblationPolicyRow
	for _, r := range rows {
		if r.Policy.String() == "srrip" {
			srrip = r
		} else {
			lru = r
		}
	}
	// LRU lets the moved tenant keep its squatted capacity (well above
	// the control); SRRIP converges close to the control.
	lruRatio := lru.MovedMops / lru.ControlMops
	srripRatio := srrip.MovedMops / srrip.ControlMops
	if lruRatio <= srripRatio {
		t.Fatalf("LRU squat ratio %.2f not above SRRIP %.2f", lruRatio, srripRatio)
	}
	if srripRatio > 1.3 {
		t.Fatalf("SRRIP moved tenant retains %.2fx of control: squat did not decay", srripRatio)
	}
}

func TestAblationStorageLeak(t *testing.T) {
	skipHeavy(t)
	rows := RunAblationStorage(io.Discard)
	pinCommittedCSV(t, "abl-storage", rows)
	base, iat := rows[0], rows[1]
	if base.DDIOMissPS == 0 {
		t.Fatal("storage workload shows no Leaky DMA")
	}
	if iat.DDIOWays <= 2 {
		t.Fatalf("IAT did not grow DDIO for storage traffic: %d ways", iat.DDIOWays)
	}
	if iat.MemGBps >= base.MemGBps {
		t.Fatalf("IAT did not cut memory bandwidth: %.2f vs %.2f", iat.MemGBps, base.MemGBps)
	}
	if iat.IOPS < base.IOPS*0.95 {
		t.Fatalf("IAT hurt storage throughput: %.0f vs %.0f", iat.IOPS, base.IOPS)
	}
}

func TestAblationRemoteSocketPenalty(t *testing.T) {
	skipHeavy(t)
	rows := RunAblationRemoteSocket(io.Discard)
	pinCommittedCSV(t, "abl-remote", rows)
	var local, remote, direct AblationRemoteRow
	for _, r := range rows {
		switch r.Consumer {
		case "local":
			local = r
		case "remote":
			remote = r
		case "socket-direct":
			direct = r
		}
	}
	if remote.CPP <= local.CPP*1.1 {
		t.Fatalf("remote consumer CPP %.0f not clearly above local %.0f", remote.CPP, local.CPP)
	}
	if remote.FwdPPS >= local.FwdPPS {
		t.Fatalf("remote consumer throughput %.3e not below local %.3e", remote.FwdPPS, local.FwdPPS)
	}
	if direct.CPP > local.CPP*1.05 {
		t.Fatalf("socket-direct CPP %.0f should match local %.0f", direct.CPP, local.CPP)
	}
}

func TestSensitivityOutcomeRobust(t *testing.T) {
	skipHeavy(t)
	rows := RunSensitivity(io.Discard)
	pinCommittedCSV(t, "abl-sens", rows)
	baseMem := rows[0].MemGBps
	baselineScenario := 2.2 // no-controller memory bandwidth on this scenario
	for _, r := range rows {
		// Every setting must keep the data-plane win: memory bandwidth
		// clearly below the uncontrolled baseline.
		if r.MemGBps > baselineScenario*0.8 {
			t.Errorf("%s=%s: mem %.2f GB/s lost most of the win", r.Param, r.Value, r.MemGBps)
		}
		// And within 2.5x of the default outcome.
		if r.MemGBps > baseMem*2.5 {
			t.Errorf("%s=%s: mem %.2f vs default %.2f", r.Param, r.Value, r.MemGBps, baseMem)
		}
	}
}

func TestAblationResQTradeoff(t *testing.T) {
	skipHeavy(t)
	rows := RunAblationResQ(io.Discard)
	pinCommittedCSV(t, "abl-resq", rows)
	byMode := map[string]AblationResQRow{}
	for _, r := range rows {
		byMode[r.Mode] = r
	}
	// Both remedies stop the large-packet leak...
	if byMode["resq"].MemGBps >= byMode["baseline"].MemGBps*0.8 {
		t.Fatalf("ResQ did not stop the leak: %.2f vs %.2f", byMode["resq"].MemGBps, byMode["baseline"].MemGBps)
	}
	if byMode["iat"].MemGBps >= byMode["baseline"].MemGBps*0.8 {
		t.Fatalf("IAT did not stop the leak: %.2f vs %.2f", byMode["iat"].MemGBps, byMode["baseline"].MemGBps)
	}
	// ...but only ResQ pays with small-packet throughput.
	if byMode["resq"].SmallPktMpps >= byMode["iat"].SmallPktMpps {
		t.Fatalf("ResQ small-packet %.2f Mpps not below IAT %.2f", byMode["resq"].SmallPktMpps, byMode["iat"].SmallPktMpps)
	}
}

// TestResQRingEntries pins ResQ's provisioning rule.
func TestResQRingEntries(t *testing.T) {
	// 4.5MB DDIO capacity, 2 rings of 2KB buffers: 1152 entries -> 1024.
	if got := resqRingEntries(4_718_592, 2, 2048); got != 1024 {
		t.Fatalf("entries = %d", got)
	}
	// 20 rings: 115 entries -> floor at 64.
	if got := resqRingEntries(4_718_592, 20, 2048); got != 64 {
		t.Fatalf("entries = %d", got)
	}
	// Degenerate inputs floor at 64.
	if got := resqRingEntries(0, 0, 0); got != 64 {
		t.Fatalf("entries = %d", got)
	}
}

func TestWriteRowsCSV(t *testing.T) {
	rows := []Fig3Row{
		{PktSize: 64, RingSize: 128, MaxMpps: 2.5, LineRateMpps: 59.52, Trials: 7},
		{PktSize: 1500, RingSize: 1024, MaxMpps: 3.29, LineRateMpps: 3.29, Trials: 1},
	}
	var sb strings.Builder
	if err := WriteRowsCSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if !strings.HasPrefix(got, "PktSize,RingSize,MaxMpps,LineRateMpps,Trials\n") {
		t.Fatalf("header wrong: %q", got)
	}
	if !strings.Contains(got, "64,128,2.5,59.52,7") {
		t.Fatalf("row missing: %q", got)
	}
	// Stringer-typed masks render as bitmaps.
	samples := []Fig11Sample{{TimeNS: 1e9, C4MissPS: 5, C4Ways: cache.ContiguousMask(3, 2),
		DDIOMask: cache.ContiguousMask(9, 2), State: "LowKeep"}}
	sb.Reset()
	if err := WriteRowsCSV(&sb, samples); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "11000") {
		t.Fatalf("mask not rendered as bitmap: %q", sb.String())
	}
	// Non-slice input is rejected.
	if err := WriteRowsCSV(&sb, 42); err == nil {
		t.Fatal("non-slice accepted")
	}
	// Empty slice is a no-op.
	if err := WriteRowsCSV(&sb, []Fig3Row{}); err != nil {
		t.Fatal(err)
	}
}

// tableRow exercises every cell kind the renderers share: a Stringer
// mask, a bool, strings, an int, floats, and the fields both skip (an
// unexported scalar and a slice).
type tableRow struct {
	Mode   string
	Ways   cache.WayMask
	Iters  int
	Rate   float64
	Ratio  float64
	Down   bool
	State  string
	hidden int
	Series []float64
}

// TestWriteRowsTable checks the stdout table against WriteRowsCSV on the
// same slice, with no simulation: a title line, then the CSV's header
// and cells, column for column, and nothing at all for an empty slice or
// a nil writer.
func TestWriteRowsTable(t *testing.T) {
	rows := []tableRow{
		{Mode: "baseline", Ways: cache.ContiguousMask(9, 2), Iters: 12, Rate: 1.234567891e7, Ratio: 0.5,
			State: "static", hidden: 3, Series: []float64{1}},
		{Mode: "iat", Ways: cache.ContiguousMask(3, 4), Iters: 0, Rate: 3, Ratio: 1.0 / 3, Down: true,
			State: "LowKeep"},
	}
	var csvOut, table strings.Builder
	if err := WriteRowsCSV(&csvOut, rows); err != nil {
		t.Fatal(err)
	}
	writeRowsTable(&table, "Title — with (dynamic) parts 7", rows)
	records, err := csv.NewReader(strings.NewReader(csvOut.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(table.String(), "\n"), "\n")
	if lines[0] != "Title — with (dynamic) parts 7" {
		t.Fatalf("title line = %q", lines[0])
	}
	lines = lines[1:]
	if len(lines) != len(records) {
		t.Fatalf("table has %d lines under its title, CSV %d records:\n%s", len(lines), len(records), table.String())
	}
	if want := []string{"Mode", "Ways", "Iters", "Rate", "Ratio", "Down", "State"}; !reflect.DeepEqual(records[0], want) {
		t.Fatalf("CSV header = %v, want %v", records[0], want)
	}
	for i, line := range lines {
		if got := strings.Fields(line); !reflect.DeepEqual(got, records[i]) {
			t.Errorf("table line %d cells %q, CSV record %q", i, got, records[i])
		}
		if len(line) != len(lines[0]) || strings.HasSuffix(line, " ") {
			t.Errorf("table line %d %q is not aligned with the header %q", i, line, lines[0])
		}
	}
	if records[1][1] != cache.ContiguousMask(9, 2).String() || records[2][5] != "true" {
		t.Errorf("mask or bool cell not rendered as in the CSV: %v", records)
	}

	table.Reset()
	writeRowsTable(&table, "empty", []tableRow{})
	if table.Len() != 0 {
		t.Errorf("empty slice printed %q", table.String())
	}
	writeRowsTable(nil, "nil writer", rows) // must not panic
}
