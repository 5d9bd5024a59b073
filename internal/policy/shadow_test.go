package policy

import (
	"math"
	"strings"
	"testing"

	"iatsim/internal/cache"
	"iatsim/internal/telemetry"
)

// mustSpecs parses a shadow list or fails the test.
func mustSpecs(t *testing.T, text string) []Spec {
	t.Helper()
	specs, err := ParseShadowSpecs(text)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// tick feeds one sample to the evaluator as if the daemon had executed a
// stable decision at the sample's allocation.
func tick(e *Evaluator, s Sample) {
	active := Actions{Stable: true, State: s.State, DDIOWays: s.DDIOWays, Desc: desc(descStable, 0)}
	e.Tick(s, active, s.DDIOMask)
}

func TestEvaluatorEmpty(t *testing.T) {
	var nilEv *Evaluator
	if !nilEv.Empty() {
		t.Fatal("nil evaluator not empty")
	}
	if !NewEvaluator(nil).Empty() {
		t.Fatal("zero-shadow evaluator not empty")
	}
	if NewEvaluator(mustSpecs(t, "iat")).Empty() {
		t.Fatal("one-shadow evaluator empty")
	}
}

// TestEvaluatorCounterfactualMachine: a static:5 shadow beside an active
// policy holding 2 DDIO ways must adopt the machine state on the first
// tick, move its OWN machine to 5 ways (one would-grow), then agree with
// the active "stable" stream forever after — with a persistent nonzero
// mask Hamming distance measuring the allocation gap.
func TestEvaluatorCounterfactualMachine(t *testing.T) {
	e := NewEvaluator(mustSpecs(t, "static:5"))
	s := sample(LowKeep, 2, 0)
	for i := 0; i < 3; i++ {
		s.NowNS = float64(i) * 1e8
		tick(e, s)
	}
	sums := e.Summaries()
	if len(sums) != 1 {
		t.Fatalf("summaries = %+v", sums)
	}
	sum := sums[0]
	if sum.Name != "static:5" || sum.Ticks != 3 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.WouldGrowDDIO != 1 || sum.FinalDDIO != 5 {
		t.Fatalf("counterfactual machine did not converge once: %+v", sum)
	}
	// Tick 1 disagrees (grow-ddio vs stable), ticks 2-3 agree.
	if sum.Agreements != 2 || sum.AgreeRate() < 0.6 || sum.AgreeRate() > 0.7 {
		t.Fatalf("agreement = %+v (rate %v)", sum, sum.AgreeRate())
	}
	// Applied mask is ways {9,10}; counterfactual is {6..10}: 3 bits apart
	// on every tick once converged (and already after the tick-1 commit).
	if sum.HammingTotal != 9 || sum.MeanHamming() != 3 {
		t.Fatalf("hamming = %+v", sum)
	}

	rows := e.Rows()
	if len(rows) != 3 || e.Dropped() != 0 {
		t.Fatalf("rows = %d dropped = %d", len(rows), e.Dropped())
	}
	r := rows[0]
	if r.ActiveClass != "stable" || r.ShadowClass != "grow-ddio" || r.Agree ||
		r.ShadowDDIO != 5 || r.Hamming != 3 || r.ShadowDesc.String() != "static: ddio=5" {
		t.Fatalf("row 0 = %+v", r)
	}
	if !rows[1].Agree || rows[1].ShadowClass != "stable" {
		t.Fatalf("row 1 = %+v", rows[1])
	}
}

// TestEvaluatorTenantCommit: a greedy shadow granting a tenant way must
// grow only its counterfactual width map, visible in the next rebased
// sample, never the real sample's groups.
func TestEvaluatorTenantCommit(t *testing.T) {
	e := NewEvaluator(mustSpecs(t, "greedy"))
	s := sample(LowKeep, 2, 0)
	s.Groups = []GroupView{
		{CLOS: 1, Width: 2, Mask: cache.ContiguousMask(0, 2), MissPS: 6e6},
		{CLOS: 2, Width: 2, Mask: cache.ContiguousMask(2, 2), MissPS: 1e3},
	}
	tick(e, s)
	tick(e, s)
	sum := e.Summaries()[0]
	if sum.WouldGrowTenant != 2 {
		t.Fatalf("summary = %+v", sum)
	}
	if s.Groups[0].Width != 2 {
		t.Fatal("real sample mutated")
	}
	// The second row's decision was made against the counterfactual width
	// of 3, so greedy keeps granting the same CLOS.
	rows := e.Rows()
	if rows[1].ShadowDesc.String() != "greedy: +1 way clos 1" {
		t.Fatalf("row 1 = %+v", rows[1])
	}
}

// TestEvaluatorBaselineShadows: the paper's comparison points as
// shadows. Their grants and steals reach the counterfactual widths
// through Grow/Shrink: Core-only grants the two idle ways (the DDIO ways
// it does not know about) and then holds; I/O-iso, with the ways below
// DDIO already full, takes best-effort ways one at a time until every
// best-effort group is down to one.
func TestEvaluatorBaselineShadows(t *testing.T) {
	e := NewEvaluator(mustSpecs(t, "core-only,io-iso"))
	s := sample(LowKeep, 2, 0)
	s.Groups = []GroupView{
		{CLOS: 1, Width: 3, Mask: cache.ContiguousMask(0, 3), MissRate: 0.5},
		{CLOS: 2, Width: 3, Mask: cache.ContiguousMask(3, 3), BestEffort: true, MissPS: 1e3, MissRate: 0.01},
		{CLOS: 3, Width: 3, Mask: cache.ContiguousMask(6, 3), BestEffort: true, MissPS: 1e3, MissRate: 0.01},
	}
	for i := 0; i < 6; i++ {
		s.NowNS = float64(i) * 1e8
		s.Groups[0].MissPS = 1e6 * math.Pow(1.5, float64(i))
		tick(e, s)
	}
	sums := e.Summaries()
	if c := sums[0]; c.Name != "core-only" || c.WouldGrowTenant != 2 || c.WouldShrinkTenant != 0 || c.Ticks != 6 {
		t.Fatalf("core-only summary = %+v", c)
	}
	if c := sums[1]; c.Name != "io-iso" || c.WouldGrowTenant != 4 || c.WouldShrinkTenant != 4 {
		t.Fatalf("io-iso summary = %+v", c)
	}
	var classes []string
	for _, r := range e.Rows() {
		classes = append(classes, r.Policy+":"+r.ShadowClass)
	}
	want := "core-only:warmup io-iso:warmup core-only:grow-tenant io-iso:grow-tenant " +
		"core-only:grow-tenant io-iso:grow-tenant core-only:hold io-iso:grow-tenant " +
		"core-only:hold io-iso:grow-tenant core-only:hold io-iso:hold"
	if got := strings.Join(classes, " "); got != want {
		t.Fatalf("shadow classes\n got %s\nwant %s", got, want)
	}
	if s.Groups[0].Width != 3 {
		t.Fatal("real sample mutated")
	}
}

// TestEvaluatorReset: Reset() re-adopts the machine allocation and
// restarts policy baselines, while summaries and rows persist.
func TestEvaluatorReset(t *testing.T) {
	e := NewEvaluator(mustSpecs(t, "static:5"))
	tick(e, sample(LowKeep, 2, 0))
	if e.Summaries()[0].FinalDDIO != 5 {
		t.Fatalf("summary = %+v", e.Summaries()[0])
	}
	e.Reset()
	tick(e, sample(LowKeep, 2, 0))
	sum := e.Summaries()[0]
	// Re-adopted 2 ways, so the shadow had to grow again: two would-grows
	// over a persistent tick count.
	if sum.Ticks != 2 || sum.WouldGrowDDIO != 2 {
		t.Fatalf("post-reset summary = %+v", sum)
	}
	if len(e.Rows()) != 2 {
		t.Fatalf("rows dropped on reset: %d", len(e.Rows()))
	}
}

// TestEvaluatorRowCapAndCSV: the per-tick log stops at maxRows and counts
// the overflow; WriteCSV emits the pinned header plus one line per kept
// row.
func TestEvaluatorRowCapAndCSV(t *testing.T) {
	e := NewEvaluator(mustSpecs(t, "static:5"))
	e.maxRows = 2
	s := sample(LowKeep, 2, 0)
	for i := 0; i < 4; i++ {
		s.NowNS = float64(i) * 1e8
		tick(e, s)
	}
	if len(e.Rows()) != 2 || e.Dropped() != 2 {
		t.Fatalf("rows = %d dropped = %d", len(e.Rows()), e.Dropped())
	}
	var b strings.Builder
	if err := e.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "time_ns,policy,active_class,shadow_class,agree,active_ddio,shadow_ddio,hamming,shadow_desc" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 3 {
		t.Fatalf("csv has %d lines, want header+2", len(lines))
	}
	if lines[1] != "0,static:5,stable,grow-ddio,0,2,5,3,static: ddio=5" {
		t.Fatalf("row 1 = %q", lines[1])
	}
}

// TestEvaluatorTelemetry: per-shadow counters land under subsystem
// "policy" with the shadow's name as scope.
func TestEvaluatorTelemetry(t *testing.T) {
	e := NewEvaluator(mustSpecs(t, "static:5,greedy"))
	r := telemetry.NewRegistry()
	e.Tel = r
	s := sample(LowKeep, 2, 0)
	for i := 0; i < 3; i++ {
		s.NowNS = float64(i) * 1e8
		tick(e, s)
	}
	snap := r.Snapshot(3e8)
	got := map[telemetry.Key]float64{}
	for _, m := range snap.Metrics {
		got[m.Key()] = float64(m.Counter) + m.Gauge
	}
	checks := map[telemetry.Key]float64{
		{Subsystem: "policy", Scope: "static:5", Name: "shadow_ticks"}:           3,
		{Subsystem: "policy", Scope: "static:5", Name: "shadow_agreements"}:      2,
		{Subsystem: "policy", Scope: "static:5", Name: "shadow_would_grow_ddio"}: 1,
		{Subsystem: "policy", Scope: "static:5", Name: "shadow_hamming_total"}:   9,
		{Subsystem: "policy", Scope: "static:5", Name: "shadow_ddio_ways"}:       5,
		{Subsystem: "policy", Scope: "greedy", Name: "shadow_ticks"}:             3,
		// An idle sample never makes greedy move: full agreement, no mask gap.
		{Subsystem: "policy", Scope: "greedy", Name: "shadow_agreements"}: 3,
		{Subsystem: "policy", Scope: "greedy", Name: "shadow_ddio_ways"}:  2,
	}
	for k, want := range checks {
		if got[k] != want {
			t.Errorf("%v = %v, want %v", k, got[k], want)
		}
	}
	if v := got[telemetry.Key{Subsystem: "policy", Scope: "greedy", Name: "shadow_hamming_total"}]; v != 0 {
		t.Errorf("agreeing shadow accumulated hamming %v", v)
	}
}
