package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"iatsim/internal/telemetry"
)

// goldenFile pins the byte-exact outputs of every goldenCases entry —
// CSV rows, per-job telemetry snapshots and fleet rollups — as sorted
// "artifact sha256" lines. TestGoldenGate is the package's determinism
// gate: each entry must write byte-identical artifacts at 1 and 4
// workers, and those artifacts must hash exactly to this file, so a
// simplification or optimisation that shifts a single simulated
// trajectory fails here.
//
// Regenerate (only for an intentional, reviewed behaviour change; the
// test refuses to write when the 1- and 4-worker outputs differ or when
// an entry did not run):
//
//	IATSIM_UPDATE_GOLDEN=1 go test ./internal/exp -run TestGoldenGate
const goldenFile = "testdata/golden-output-hashes.txt"

// goldenHash is the one canonical digest: SHA-256, hex.
func goldenHash(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// artifacts maps an output's stable name to its bytes.
type artifacts map[string][]byte

// csv stores rows as CSV bytes under name, requiring n rows (a failed
// sweep point drops its row instead of failing the run).
func (a artifacts) csv(t *testing.T, name string, rows any, n int) {
	t.Helper()
	if got := reflect.ValueOf(rows).Len(); got != n {
		t.Fatalf("%s: %d rows, want %d", name, got, n)
	}
	var buf bytes.Buffer
	if err := WriteRowsCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	a[name] = buf.Bytes()
}

// json stores a telemetry snapshot's JSON bytes under name.
func (a artifacts) json(t *testing.T, name string, snap *telemetry.Snapshot) {
	t.Helper()
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	a[name] = buf.Bytes()
}

// goldenCase is one gate entry: a runner at fixed options under a base
// seed. run stores the entry's rows (and any output the runner returns
// rather than writes) in out; the gate adds every telemetry file the
// harness wrote. heavy entries skip under -race, as skipHeavy does.
type goldenCase struct {
	name  string
	seed  int64
	heavy bool
	run   func(t *testing.T, out artifacts)
}

// goldenCases is every hashed output. fig3, fig11 and chaos keep the
// options their hashes were first recorded with; fleet and tournament
// run at the canonical seed 0.
var goldenCases = []goldenCase{
	{"fig3", 42, false, func(t *testing.T, out artifacts) {
		out.csv(t, "fig3.csv", RunFig3(io.Discard, goldenFig3Opts()), 2)
	}},
	{"fig4", 42, false, func(t *testing.T, out artifacts) {
		out.csv(t, "fig4.csv", RunFig4(io.Discard, goldenFig4Opts()), 2)
	}},
	{"fig8", 42, false, func(t *testing.T, out artifacts) {
		o := DefaultFig8Opts()
		o.Sizes = []int{64}
		o.WarmNS, o.MeasureNS = 0.1e9, 0.1e9
		out.csv(t, "fig8.csv", RunFig8(io.Discard, o), 2)
	}},
	{"fig9", 42, true, func(t *testing.T, out artifacts) {
		o := DefaultFig9Opts()
		o.FlowSteps = []int{1, 1000}
		o.PlateauNS, o.MeasureNS = 0.4e9, 0.2e9
		out.csv(t, "fig9.csv", RunFig9(io.Discard, o), 4)
	}},
	{"fig10", 42, true, func(t *testing.T, out artifacts) {
		o := goldenFig11Opts()
		o.Sizes = []int{1500}
		out.csv(t, "fig10.csv", RunFig10(io.Discard, o), 4)
	}},
	{"fig11", 42, true, func(t *testing.T, out artifacts) {
		out.csv(t, "fig11.csv", RunFig11(io.Discard, goldenFig11Opts()), 12)
	}},
	{"chaos", 42, true, func(t *testing.T, out artifacts) {
		o := DefaultChaosOpts()
		o.Scales = []float64{0, 1}
		o.WarmNS, o.MeasureNS = 0.8e9, 0.4e9
		out.csv(t, "chaos.csv", RunChaos(io.Discard, o), 4)
	}},
	{"fleet", 0, false, func(t *testing.T, out artifacts) {
		o := testFleetOpts()
		o.Storm = "default"
		goldenFleet(t, out, "fleet", o)
	}},
	{"fleet-ckpt", 0, false, func(t *testing.T, out artifacts) {
		// Storm seed 2 downs a canary host in rounds 2-4; it rejoins
		// from its last per-round checkpoint in round 5.
		o := testFleetOpts()
		o.Storm, o.StormSeed = "heavy", 2
		o.CheckpointEvery = 1
		goldenFleet(t, out, "fleet-ckpt", o)
	}},
	{"tournament", 0, false, func(t *testing.T, out artifacts) {
		out.csv(t, "tournament.csv", RunPolicyTournament(nil, testTournamentOpts()), 4)
	}},
	{"fig12", 42, true, func(t *testing.T, out artifacts) {
		o := DefaultFig12Opts()
		o.Nets, o.Apps = []string{"fastclick"}, []string{"gcc"}
		o.TargetInstr = 1e6
		out.csv(t, "fig12.csv", RunFig12(io.Discard, o), 1)
	}},
	{"fig13", 42, true, func(t *testing.T, out artifacts) {
		o := DefaultFig12Opts()
		o.TargetOps = 5000
		o.Corners = []Placement{PlacePC}
		// Fig12Opts selects Fig. 13's workloads only as A-F or as A and
		// C, so the one-cell entry comes from the cell table.
		cell := fig13Cells(o)[0] // redis/ycsb-A
		out.csv(t, "fig13.csv", runAppMixCells([]appMixCell{cell}, fig13Row), 1)
	}},
	{"fig14", 42, true, func(t *testing.T, out artifacts) {
		// Fig. 14's window and corners are fixed inside its cells.
		cell := fig14Cells(DefaultFig12Opts())[0] // redis/ycsb-A
		cell.base.MaxNS = 0.2e9
		cell.corners = []Placement{PlaceBE10} // the corner IAT starts from
		out.csv(t, "fig14.csv", runAppMixCells([]appMixCell{cell}, fig14Row), 1)
	}},
	{"abl-mba", 42, true, func(t *testing.T, out artifacts) {
		out.csv(t, "abl-mba.csv", RunAblationMBA(io.Discard), 3)
	}},
	{"abl-remote", 42, true, func(t *testing.T, out artifacts) {
		out.csv(t, "abl-remote.csv", RunAblationRemoteSocket(io.Discard), 3)
	}},
	{"abl-storage", 42, true, func(t *testing.T, out artifacts) {
		out.csv(t, "abl-storage.csv", RunAblationStorage(io.Discard), 2)
	}},
	{"abl-ddioext", 42, true, func(t *testing.T, out artifacts) {
		out.csv(t, "abl-ddioext.csv", RunAblationDDIOExt(io.Discard), 3)
	}},
}

// goldenFig3Opts is a scaled-down Fig. 3 sweep: one packet size, two
// ring sizes, coarse RFC2544 tolerance so the binary search stays short.
func goldenFig3Opts() Fig3Opts {
	o := DefaultFig3Opts()
	o.Sizes = []int{64}
	o.Rings = []int{64, 256}
	o.WarmNS, o.MeasureNS = 0.05e9, 0.1e9
	o.Tol = 0.1
	return o
}

// goldenFig4Opts is one working set, dedicated vs overlapped; the gate
// also re-runs it at another seed.
func goldenFig4Opts() Fig4Opts {
	o := DefaultFig4Opts()
	o.WorkingSets = []int{4}
	o.WarmNS, o.MeasureNS = 0.1e9, 0.1e9
	return o
}

// goldenFig11Opts compresses the Figs. 10/11 three-phase timeline enough
// for a unit test while still driving the daemon through real transitions.
func goldenFig11Opts() Fig10Opts {
	o := DefaultFig10Opts()
	o.Phase1NS, o.Phase2NS, o.Phase3NS = 0.4e9, 0.4e9, 0.4e9
	o.IntervalNS = 0.1e9
	return o
}

// goldenFleet runs a fleet and stores its round CSV, the controller's
// telemetry snapshot and the merged per-host rollup — the three files
// fleetd writes.
func goldenFleet(t *testing.T, out artifacts, name string, o FleetOpts) {
	t.Helper()
	o.Tel = telemetry.NewRegistry()
	rep, hosts, err := RunFleet(nil, o)
	if err != nil {
		t.Fatal(err)
	}
	out.csv(t, name+".csv", rep.Rows, o.Rounds)
	out.json(t, name+".controller.json", o.Tel.Snapshot(hosts[0].P.NowNS()))
	merged, err := MergeFleetTelemetry(hosts)
	if err != nil {
		t.Fatal(err)
	}
	out.json(t, name+".hosts.json", merged)
}

// runGoldenCase runs one entry at a base seed and worker count and
// returns its artifacts, with each telemetry file the harness wrote
// named tel/<file>.
func runGoldenCase(t *testing.T, c goldenCase, seed int64, jobs int) artifacts {
	t.Helper()
	dir := t.TempDir()
	SetExec(Exec{Jobs: jobs, Seed: seed, TelemetryDir: dir})
	out := artifacts{}
	c.run(t, out)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out["tel/"+e.Name()] = data
	}
	return out
}

// gateRun names one entry's run at its own seed and a worker count.
type gateRun struct {
	name string
	jobs int
}

// gateHashes holds the artifact hashes of each entry's latest run at its
// own seed, so the tests after TestGoldenGate check their property over
// the gate's outputs instead of simulating them again.
var gateHashes = map[gateRun]map[string]string{}

// hashAll maps each artifact to its goldenHash.
func hashAll(a artifacts) map[string]string {
	h := make(map[string]string, len(a))
	for name, data := range a {
		h[name] = goldenHash(data)
	}
	return h
}

// entryHashes returns the named entry's artifact hashes at jobs workers,
// from the gate's run when it made one (a -run filter may leave it out)
// and from a run of its own otherwise. Like the gate, it skips heavy
// entries under -race.
func entryHashes(t *testing.T, name string, jobs int) map[string]string {
	t.Helper()
	i := slices.IndexFunc(goldenCases, func(c goldenCase) bool { return c.name == name })
	if i < 0 {
		t.Fatalf("no golden entry %q", name)
	}
	c := goldenCases[i]
	if c.heavy && raceEnabled {
		t.Skip("heavy entry: too slow under -race")
	}
	k := gateRun{name, jobs}
	if h, ok := gateHashes[k]; ok {
		return h
	}
	t.Cleanup(func() { SetExec(Exec{}) })
	gateHashes[k] = hashAll(runGoldenCase(t, c, c.seed, jobs))
	return gateHashes[k]
}

// entryArtifact reports whether an artifact name belongs to the entry:
// every entry names its CSV and telemetry files after itself.
func entryArtifact(artifact, entry string) bool {
	rest, ok := strings.CutPrefix(strings.TrimPrefix(artifact, "tel/"), entry)
	return ok && (strings.HasPrefix(rest, ".") || strings.HasPrefix(rest, "_"))
}

// sortedNames returns m's keys in order, so failures list reproducibly.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// parseGoldenHashes reads "name hash" lines.
func parseGoldenHashes(s string) map[string]string {
	m := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
		if name, hash, ok := strings.Cut(line, " "); ok {
			m[name] = hash
		}
	}
	return m
}

// TestGoldenGate runs every goldenCases entry at 1 and 4 workers,
// requires byte-identical artifacts, and compares their hashes with
// goldenFile, naming each artifact that moved, went missing or is new.
// It also re-runs fig4 at another base seed, which must change its
// bytes. Light entries run under -race (make race), which also proves
// the parallel harness race-clean.
func TestGoldenGate(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: simulates several seconds of platform time")
	}
	t.Cleanup(func() { SetExec(Exec{}) })

	got := map[string]string{}
	complete := true
	for _, c := range goldenCases {
		ran := false
		t.Run(c.name, func(t *testing.T) {
			if c.heavy && raceEnabled {
				t.Skip("heavy entry: too slow under -race")
			}
			seq := runGoldenCase(t, c, c.seed, 1)
			par := runGoldenCase(t, c, c.seed, 4)
			gateHashes[gateRun{c.name, 1}] = hashAll(seq)
			gateHashes[gateRun{c.name, 4}] = hashAll(par)
			if len(seq) != len(par) {
				t.Errorf("jobs=1 wrote %d artifacts, jobs=4 wrote %d", len(seq), len(par))
			}
			for _, name := range sortedNames(par) {
				if !bytes.Equal(seq[name], par[name]) {
					t.Errorf("%s: bytes differ between jobs=1 and jobs=4", name)
				}
				got[name] = goldenHash(par[name])
			}
			ran = true
		})
		complete = complete && ran
	}

	t.Run("fig4-seed7", func(t *testing.T) {
		want, ok := got["fig4.csv"]
		if !ok {
			t.Skip("fig4 entry did not run")
		}
		SetExec(Exec{Jobs: 4, Seed: 7})
		other := artifacts{}
		other.csv(t, "fig4.csv", RunFig4(io.Discard, goldenFig4Opts()), 2)
		if goldenHash(other["fig4.csv"]) == want {
			t.Fatal("seeds 42 and 7 wrote identical fig4 CSV bytes: the seed is not reaching the scenario")
		}
	})

	if os.Getenv("IATSIM_UPDATE_GOLDEN") != "" {
		if t.Failed() {
			t.Fatal("refusing to record golden hashes: the gate failed above")
		}
		if !complete {
			t.Fatal("refusing to record golden hashes: not every entry ran (heavy entries skip under -race)")
		}
		var b strings.Builder
		for _, name := range sortedNames(got) {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden hashes recorded at %s", goldenFile)
		return
	}

	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("missing golden data (%v); record with IATSIM_UPDATE_GOLDEN=1 from known-good code", err)
	}
	want := parseGoldenHashes(string(data))
	moved := false
	for _, name := range sortedNames(want) {
		switch g, ok := got[name]; {
		case !ok && complete:
			t.Errorf("%s: artifact missing from this run", name)
			moved = true
		case ok && g != want[name]:
			t.Errorf("%s: output bytes changed (hash %s -> %s)", name, want[name][:12], g[:12])
			moved = true
		}
	}
	for _, name := range sortedNames(got) {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: new artifact not in golden set", name)
			moved = true
		}
	}
	if moved {
		t.Fatal("simulated outputs changed; if intentional, record with IATSIM_UPDATE_GOLDEN=1")
	}
}

// preOptimizationEntries are the outputs goldenFile pinned before the
// hot-path performance pass; the rest of the file was added later.
var preOptimizationEntries = []string{"fig3", "fig11", "chaos"}

// TestGoldenOutputsMatchPreOptimizationPaths is the pre/post
// differential check of the hot-path performance pass: the fig3, fig11
// and chaos artifacts (CSV bytes and telemetry snapshots) at seed 42 and
// 4 workers must hash exactly to the lines recorded from the
// unoptimised code, with none missing and none new.
func TestGoldenOutputsMatchPreOptimizationPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: simulates several seconds of platform time")
	}
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("missing golden data (%v)", err)
	}
	want := parseGoldenHashes(string(data))
	for _, entry := range preOptimizationEntries {
		t.Run(entry, func(t *testing.T) {
			got := entryHashes(t, entry, 4)
			for _, name := range sortedNames(want) {
				if !entryArtifact(name, entry) {
					continue
				}
				switch g, ok := got[name]; {
				case !ok:
					t.Errorf("%s: artifact missing from this run", name)
				case g != want[name]:
					t.Errorf("%s: output bytes changed (hash %s -> %s)", name, want[name][:12], g[:12])
				}
			}
			for _, name := range sortedNames(got) {
				if _, ok := want[name]; !ok {
					t.Errorf("%s: new artifact not in golden set", name)
				}
			}
		})
	}
}

// TestGoldenHashesStableAcrossWorkerCounts proves the pre-optimisation
// comparison is scheduling-independent: the fig3, fig11 and chaos
// artifacts must hash identically at 1 and 4 workers, so a golden
// failure cannot be blamed on worker count.
func TestGoldenHashesStableAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: simulates several seconds of platform time")
	}
	for _, entry := range preOptimizationEntries {
		t.Run(entry, func(t *testing.T) {
			seq, par := entryHashes(t, entry, 1), entryHashes(t, entry, 4)
			if !maps.Equal(seq, par) {
				t.Fatalf("golden hashes depend on worker count:\n jobs=1: %v\n jobs=4: %v", seq, par)
			}
		})
	}
}

// TestSameSeedByteIdenticalCSV renders fig4 afresh at seed 42 and 4
// workers: its CSV bytes must equal the gate's runs at 4 and at 1
// worker, and seed 7 must change them.
func TestSameSeedByteIdenticalCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	t.Cleanup(func() { SetExec(Exec{}) })
	render := func(seed int64, jobs int) string {
		SetExec(Exec{Jobs: jobs, Seed: seed})
		out := artifacts{}
		out.csv(t, "fig4.csv", RunFig4(io.Discard, goldenFig4Opts()), 2)
		return goldenHash(out["fig4.csv"])
	}
	again := render(42, 4)
	if first := entryHashes(t, "fig4", 4)["fig4.csv"]; again != first {
		t.Fatalf("same seed, same jobs: CSV bytes diverged (hash %s -> %s)", first[:12], again[:12])
	}
	if sequential := entryHashes(t, "fig4", 1)["fig4.csv"]; again != sequential {
		t.Fatalf("same seed, jobs=4 vs jobs=1: CSV bytes diverged (hash %s vs %s)", again[:12], sequential[:12])
	}
	if render(7, 4) == again {
		t.Fatal("different seeds produced identical CSV bytes: seed is not reaching the scenario")
	}
}
