package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// loadFixture analyzes one testdata package under the given import path
// (the path controls the analyzers' package-scope rules) and returns all
// findings, suppressed included.
func loadFixture(t *testing.T, fixture, importPath string) []Finding {
	t.Helper()
	mod, err := LoadDir(filepath.Join("testdata", fixture), importPath)
	if err != nil {
		t.Fatalf("load %s: %v", fixture, err)
	}
	pkg := mod.Pkgs[0]
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture %s has type errors: %v", fixture, pkg.TypeErrors)
	}
	return RunAnalyzers(mod, Analyzers())
}

// active filters out suppressed findings.
func active(findings []Finding) []Finding {
	var out []Finding
	for _, f := range findings {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

// loadFixtureModule analyzes a multi-package fixture module (a testdata
// directory with its own go.mod) through the same loader path the real
// tree uses, so cross-package propagation is exercised for real.
func loadFixtureModule(t *testing.T, fixture string) []Finding {
	t.Helper()
	mod, err := LoadModule(filepath.Join("testdata", fixture))
	if err != nil {
		t.Fatalf("load module %s: %v", fixture, err)
	}
	for _, pkg := range mod.Pkgs {
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("fixture package %s has type errors: %v", pkg.Path, pkg.TypeErrors)
		}
	}
	return RunAnalyzers(mod, Analyzers())
}

var wantRe = regexp.MustCompile(`//\s*want (\w+)`)

// wantMarkers scans a fixture tree for "// want <analyzer>" comments and
// returns the expected "file:line:analyzer" set. Module fixtures keep
// their Go files in nested packages, so the scan walks; base filenames
// must be unique within one fixture. It reads the same files the loader
// would (goSourceFiles), so a marker cannot hide in a file the analyzers
// never see.
func wantMarkers(t *testing.T, fixture string) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	root := filepath.Join("testdata", fixture)
	dirs, err := packageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		files, err := goSourceFiles(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				if m := wantRe.FindStringSubmatch(line); m != nil {
					want[fmt.Sprintf("%s:%d:%s", filepath.Base(file), i+1, m[1])] = true
				}
			}
		}
	}
	return want
}

// checkAgainstMarkers compares active findings to the fixture's want
// markers, reporting both missed and unexpected findings.
func checkAgainstMarkers(t *testing.T, fixture string, findings []Finding) {
	t.Helper()
	want := wantMarkers(t, fixture)
	got := map[string]bool{}
	for _, f := range active(findings) {
		got[fmt.Sprintf("%s:%d:%s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Analyzer)] = true
	}
	var missed, extra []string
	for k := range want {
		if !got[k] {
			missed = append(missed, k)
		}
	}
	for k := range got {
		if !want[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(missed)
	sort.Strings(extra)
	if len(missed) > 0 || len(extra) > 0 {
		t.Fatalf("fixture %s: missed findings %v, unexpected findings %v\nall: %v",
			fixture, missed, extra, active(findings))
	}
}

func TestDetlintCatchesSeededViolations(t *testing.T) {
	checkAgainstMarkers(t, "detbad", loadFixture(t, "detbad", "iatsim/internal/detbad"))
}

func TestDetlintPassesCleanSimulationCode(t *testing.T) {
	if got := active(loadFixture(t, "detok", "iatsim/internal/detok")); len(got) != 0 {
		t.Fatalf("detok should be clean, got %v", got)
	}
}

func TestDetlintPassesSeededFaultInjector(t *testing.T) {
	// The fault-injection pattern — a private splitmix64 stream derived
	// from an explicit seed — is detlint-clean under the real injector's
	// import path: fault schedules are part of the determinism guarantee.
	if got := active(loadFixture(t, "faultsok", "iatsim/internal/faults")); len(got) != 0 {
		t.Fatalf("faultsok should be clean, got %v", got)
	}
}

func TestDetlintScopeIsInternalOnly(t *testing.T) {
	// The same violating file outside internal/ is out of detlint's
	// scope entirely.
	if got := active(loadFixture(t, "detbad", "iatsim/cmd/detbad")); len(got) != 0 {
		t.Fatalf("cmd-scoped package should be out of scope, got %v", got)
	}
}

func TestDetlintHarnessAllowlist(t *testing.T) {
	// Under the harness path, wall-clock reads and go statements are
	// allowlisted; the global-rand rule still applies.
	got := active(loadFixture(t, "detbad", "iatsim/internal/harness"))
	if len(got) != 2 {
		t.Fatalf("harness-scoped fixture: want exactly the 2 rand findings, got %v", got)
	}
	for _, f := range got {
		if !strings.Contains(f.Message, "global source") {
			t.Fatalf("unexpected finding under harness allowlist: %v", f)
		}
	}
}

func TestIgnoreDirectives(t *testing.T) {
	findings := loadFixture(t, "detignore", "iatsim/internal/detignore")

	var suppressed, activeDet, meta []Finding
	for _, f := range findings {
		switch {
		case f.Suppressed:
			suppressed = append(suppressed, f)
		case f.Analyzer == DetLint.Name:
			activeDet = append(activeDet, f)
		case f.Analyzer == MetaAnalyzer:
			meta = append(meta, f)
		}
	}
	if len(suppressed) != 2 {
		t.Fatalf("want 2 suppressed findings (trailing + line-above), got %v", suppressed)
	}
	for _, f := range suppressed {
		if f.Reason == "" {
			t.Fatalf("suppressed finding lost its reason: %v", f)
		}
	}
	// The reason-less directive suppresses nothing, so its time.Now
	// stays active.
	if len(activeDet) != 1 {
		t.Fatalf("want 1 active detlint finding (reason-less directive), got %v", activeDet)
	}
	// Meta findings: missing reason, unused directive, unknown analyzer.
	if len(meta) != 3 {
		t.Fatalf("want 3 simlint meta findings, got %v", meta)
	}
	wantParts := []string{"needs a written reason", "unused suppression", "unknown analyzer"}
	for _, part := range wantParts {
		found := false
		for _, f := range meta {
			if strings.Contains(f.Message, part) {
				found = true
			}
		}
		if !found {
			t.Fatalf("no meta finding containing %q in %v", part, meta)
		}
	}
}

func TestDetlintCoversTelemetry(t *testing.T) {
	// internal/telemetry is fully inside detlint's scope: the same
	// seeded violations must be reported under its import path exactly
	// as under any other internal package (no accidental allowlisting —
	// the subsystem's determinism claims depend on it).
	checkAgainstMarkers(t, "detbad", loadFixture(t, "detbad", "iatsim/internal/telemetry"))
}

func TestMapOrderCoversSnapshotExports(t *testing.T) {
	// The snapshot-export shapes: collect-then-sort passes, unsorted
	// CSV/row/event emission from map iteration is flagged — including
	// .Emit calls, which bake map order into event sequence numbers.
	checkAgainstMarkers(t, "mapsnap", loadFixture(t, "mapsnap", "iatsim/internal/telemetry"))
}

func TestLintCoversFleet(t *testing.T) {
	// internal/fleet is fully inside both analyzers' scope: the fleet's
	// byte-identical-at-any-jobs contract relies on no wall clock and no
	// raw goroutines in the stepping path (parallelism is delegated to
	// internal/harness) and no map-ordered aggregate output. The fixture
	// seeds one violation of each rule next to the sanctioned
	// collect-then-sort shape, which must stay clean.
	checkAgainstMarkers(t, "fleetagg", loadFixture(t, "fleetagg", "iatsim/internal/fleet"))
}

func TestLintCoversPolicy(t *testing.T) {
	// internal/policy is fully inside statelint's scope: its Kind and
	// State enums are //simlint:enum-marked, so a dispatch switch that
	// forgets a policy kind is flagged under the real import path...
	findings := loadFixture(t, "policybad", "iatsim/internal/policy")
	checkAgainstMarkers(t, "policybad", findings)
	for _, f := range active(findings) {
		if !strings.Contains(f.Message, "KindGreedy") {
			t.Errorf("finding should name the missing member KindGreedy: %s", f)
		}
	}
	// ...while the shapes the package actually ships — exhaustive
	// dispatch and the defaulted String() fallback — stay clean.
	if got := active(loadFixture(t, "policyok", "iatsim/internal/policy")); len(got) != 0 {
		t.Fatalf("policyok should be clean, got %v", got)
	}
}

func TestMapOrderCatchesSeededViolations(t *testing.T) {
	checkAgainstMarkers(t, "mapbad", loadFixture(t, "mapbad", "iatsim/internal/mapbad"))
}

func TestMapOrderPassesSortedAndOrderFreeCode(t *testing.T) {
	if got := active(loadFixture(t, "mapok", "iatsim/internal/mapok")); len(got) != 0 {
		t.Fatalf("mapok should be clean, got %v", got)
	}
}

func TestMSRLintCatchesSeededViolations(t *testing.T) {
	checkAgainstMarkers(t, "msrbad", loadFixture(t, "msrbad", "iatsim/internal/msrbad"))
}

func TestMSRLintPassesInnocentLiterals(t *testing.T) {
	if got := active(loadFixture(t, "msrok", "iatsim/internal/msrok")); len(got) != 0 {
		t.Fatalf("msrok should be clean, got %v", got)
	}
}

func TestMSRLintExemptsTheRegisterFile(t *testing.T) {
	// The same addresses inside internal/msr are the register map
	// definition, not a layering leak.
	if got := active(loadFixture(t, "msrbad", "iatsim/internal/msr")); len(got) != 0 {
		t.Fatalf("internal/msr must be exempt, got %v", got)
	}
}

// findingAt returns the findings (suppressed included) at base:line.
func findingAt(findings []Finding, base string, line int) []Finding {
	var out []Finding
	for _, f := range findings {
		if filepath.Base(f.Pos.Filename) == base && f.Pos.Line == line {
			out = append(out, f)
		}
	}
	return out
}

// lineOf returns the 1-based line of the first fixture line containing
// needle.
func lineOf(t *testing.T, fixture, base, needle string) int {
	t.Helper()
	root := filepath.Join("testdata", fixture)
	dirs, err := packageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		data, err := os.ReadFile(filepath.Join(dir, base))
		if err != nil {
			continue
		}
		for i, line := range strings.Split(string(data), "\n") {
			if strings.Contains(line, needle) {
				return i + 1
			}
		}
	}
	t.Fatalf("no line containing %q in %s/%s", needle, fixture, base)
	return 0
}

func TestInterproceduralChains(t *testing.T) {
	findings := loadFixtureModule(t, "chainmod")
	checkAgainstMarkers(t, "chainmod", findings)

	// The chain must be spelled out in the message, outermost caller
	// first, ending at the leaf violation.
	wantChains := map[string]string{
		"return util.Elapsed() // want detlint":  "sim.Step -> util.Elapsed -> time.Now",
		"return localNow() // want detlint":      "sim.Tick -> sim.localNow -> util.Elapsed -> time.Now",
		"return util.Draw() // want detlint":     "sim.Roll -> util.Draw -> rand.Intn",
		"spawn() // want detlint":                "sim.Par -> sim.spawn -> go statement",
		"for k, v := range m { // want maporder": "util.EmitRow -> fmt.Printf",
	}
	for needle, chain := range wantChains {
		line := lineOf(t, "chainmod", "sim.go", needle)
		fs := findingAt(findings, "sim.go", line)
		if len(fs) != 1 {
			t.Fatalf("want exactly 1 finding at sim.go:%d, got %v", line, fs)
		}
		if !strings.Contains(fs[0].Message, chain) {
			t.Errorf("finding at sim.go:%d lacks chain %q: %s", line, chain, fs[0].Message)
		}
	}

	// Exactly two suppressed findings: the sanctioned origin's direct
	// read, and the caller-side declaration-suppressed chain. Both keep
	// their written reasons, and every directive is consumed (no meta
	// findings).
	var suppressed, meta []Finding
	for _, f := range findings {
		if f.Suppressed {
			suppressed = append(suppressed, f)
			if f.Reason == "" {
				t.Errorf("suppressed finding lost its reason: %v", f)
			}
		}
		if f.Analyzer == MetaAnalyzer {
			meta = append(meta, f)
		}
	}
	if len(suppressed) != 2 {
		t.Errorf("want 2 suppressed findings, got %v", suppressed)
	}
	if len(meta) != 0 {
		t.Errorf("all directives should be consumed, got meta findings %v", meta)
	}
}

func TestSeedFlowCatchesSeededViolations(t *testing.T) {
	checkAgainstMarkers(t, "seedbad", loadFixture(t, "seedbad", "iatsim/internal/seedbad"))
}

func TestSeedFlowPassesDerivedSeeds(t *testing.T) {
	if got := active(loadFixture(t, "seedok", "iatsim/internal/seedok")); len(got) != 0 {
		t.Fatalf("seedok should be clean, got %v", got)
	}
}

func TestSeedFlowScopeIsInternalOnly(t *testing.T) {
	// Outside internal/, constant seeds are legitimate (cmd flag
	// defaults).
	if got := active(loadFixture(t, "seedbad", "iatsim/cmd/seedbad")); len(got) != 0 {
		t.Fatalf("cmd-scoped package should be out of seedflow's scope, got %v", got)
	}
}

func TestStateLintCatchesMissingCases(t *testing.T) {
	findings := loadFixture(t, "statebad", "iatsim/internal/statebad")
	checkAgainstMarkers(t, "statebad", findings)
	for _, f := range active(findings) {
		if !strings.Contains(f.Message, "Stopped") {
			t.Errorf("finding should name the missing member Stopped: %s", f)
		}
	}
}

func TestStateLintPassesHandledSwitches(t *testing.T) {
	if got := active(loadFixture(t, "stateok", "iatsim/internal/stateok")); len(got) != 0 {
		t.Fatalf("stateok should be clean, got %v", got)
	}
}

func TestTelemLint(t *testing.T) {
	findings := loadFixtureModule(t, "telemmod")
	checkAgainstMarkers(t, "telemmod", findings)

	// The wrapper finding reports at the call site and names the wrapper.
	line := lineOf(t, "telemmod", "telapp.go", "bump(r, which) // want telemlint")
	fs := findingAt(findings, "telapp.go", line)
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "telapp.bump") {
		t.Errorf("wrapper finding should name telapp.bump: %v", fs)
	}
}

func TestMultipleIgnoresOnOneFinding(t *testing.T) {
	findings := loadFixture(t, "multiignore", "iatsim/internal/multiignore")
	var suppressed int
	for _, f := range findings {
		switch {
		case f.Suppressed:
			suppressed++
		default:
			t.Errorf("unexpected active finding: %s", f)
		}
	}
	// One finding, suppressed once — and both stacked directives count as
	// used, so neither shows up as an unused-suppression meta finding.
	if suppressed != 1 {
		t.Errorf("want exactly 1 suppressed finding, got %d", suppressed)
	}
}

func TestFindingStringDegradesGracefully(t *testing.T) {
	cases := []struct {
		f    Finding
		want string
	}{
		{Finding{Analyzer: "detlint", Message: "m", Pos: token.Position{Filename: "a.go", Line: 3}}, "a.go:3: [detlint] m"},
		{Finding{Analyzer: "simlint", Message: "m", Pos: token.Position{Filename: "b.go"}}, "b.go: [simlint] m"},
		{Finding{Analyzer: "simlint", Message: "m"}, "[simlint] m"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestLoaderToleratesSyntaxErrors(t *testing.T) {
	dir := t.TempDir()
	good := "// Package broken mixes a good and a broken file.\npackage broken\n\n// OK is fine.\nfunc OK() int { return 1 }\n"
	bad := "package broken\n\nfunc Broken( {\n"
	if err := os.WriteFile(filepath.Join(dir, "good.go"), []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	mod, err := LoadDir(dir, "iatsim/internal/broken")
	if err != nil {
		t.Fatalf("a syntax error must not fail the load: %v", err)
	}
	if len(mod.ParseErrors) == 0 {
		t.Fatal("want recorded parse errors")
	}
	if len(mod.Pkgs) != 1 || len(mod.Pkgs[0].Files) != 1 {
		t.Fatalf("the good file should still be analyzed, got %+v", mod.Pkgs)
	}
	findings := RunAnalyzers(mod, Analyzers())
	found := false
	for _, f := range findings {
		if f.Analyzer == MetaAnalyzer && strings.Contains(f.Message, "syntax error") {
			found = true
			if f.Pos.Filename == "" {
				t.Errorf("syntax-error finding lost its position: %v", f)
			}
		}
	}
	if !found {
		t.Fatalf("want a [simlint] syntax error finding, got %v", findings)
	}
}

func TestLoaderToleratesFullyBrokenPackage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte("package broken\nfunc ( {\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	mod, err := LoadDir(dir, "iatsim/internal/broken")
	if err != nil {
		t.Fatalf("an all-broken package must still load as findings: %v", err)
	}
	findings := RunAnalyzers(mod, Analyzers())
	if len(active(findings)) == 0 {
		t.Fatal("want syntax-error findings from the broken package")
	}
}

// headSuppressions lists every suppressed finding at HEAD as
// "file analyzer", sorted: five Fig. 15 wall-clock reads in the daemon,
// the per-kind fault counters indexed by the closed Kind enum, and the
// goroutine serving the -pprof debug endpoint. A new //simlint:ignore
// fails TestModuleIsCleanAtHead until it is added here, so every
// suppression is reviewed as a test edit.
var headSuppressions = []string{
	"internal/core/daemon.go detlint",
	"internal/core/daemon.go detlint",
	"internal/core/daemon.go detlint",
	"internal/core/daemon.go detlint",
	"internal/core/daemon.go detlint",
	"internal/faults/injector.go telemlint",
	"internal/prof/prof.go detlint",
}

// TestModuleIsCleanAtHead is the enforcement test: the repository's own
// tree must lint clean, and its suppressed findings must be exactly
// headSuppressions. It is the same check `make lint` runs, kept in
// tier-1 so a PR cannot land a violation even if it skips the Makefile.
func TestModuleIsCleanAtHead(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	if raceEnabled {
		t.Skip("whole-module type-check is slow under -race; make lint covers it")
	}
	mod, err := LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	var suppressed []string
	for _, f := range RunAnalyzers(mod, Analyzers()) {
		if !f.Suppressed {
			t.Errorf("%s", f)
			continue
		}
		if f.Reason == "" {
			t.Errorf("suppression without reason: %s", f)
		}
		rel, err := filepath.Rel(mod.Dir, f.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		suppressed = append(suppressed, filepath.ToSlash(rel)+" "+f.Analyzer)
	}
	sort.Strings(suppressed)
	if !slices.Equal(suppressed, headSuppressions) {
		t.Errorf("suppressed findings:\n  %s\nwant headSuppressions:\n  %s",
			strings.Join(suppressed, "\n  "), strings.Join(headSuppressions, "\n  "))
	}
}
