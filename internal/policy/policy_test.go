package policy

import (
	"maps"
	"strings"
	"testing"
)

// TestKindString pins the flag-level names and the out-of-range default
// branch (a corrupted kind must render its raw value, not crash).
func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindIAT: "iat", KindStatic: "static", KindIOCA: "ioca", KindGreedy: "greedy",
		KindCoreOnly: "core-only", KindIOIso: "io-iso",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if got := Kind(9).String(); got != "Kind(9)" {
		t.Errorf("Kind(9).String() = %q, want Kind(9)", got)
	}
}

// TestParseSpecRoundTrip: every valid syntax parses, re-renders via
// Spec.String into something that parses to the same spec, and builds a
// policy of the matching kind and name.
func TestParseSpecRoundTrip(t *testing.T) {
	cases := []struct {
		text string
		kind Kind
		name string
	}{
		{"iat", KindIAT, "iat"},
		{"static", KindStatic, "static:2"}, // bare static = hardware default
		{"static:4", KindStatic, "static:4"},
		{"ioca", KindIOCA, "ioca"},
		{"greedy", KindGreedy, "greedy"},
		{"core-only", KindCoreOnly, "core-only"},
		{"io-iso", KindIOIso, "io-iso"},
	}
	for _, c := range cases {
		sp, err := ParseSpec(c.text)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.text, err)
		}
		if sp.Kind != c.kind {
			t.Errorf("ParseSpec(%q).Kind = %v, want %v", c.text, sp.Kind, c.kind)
		}
		again, err := ParseSpec(sp.String())
		if err != nil || again != sp {
			t.Errorf("round trip %q -> %q -> %+v (%v)", c.text, sp.String(), again, err)
		}
		if p := sp.New(); p.Name() != c.name {
			t.Errorf("ParseSpec(%q).New() = name %q, want %q", c.text, p.Name(), c.name)
		}
	}
}

func TestParseSpecRejects(t *testing.T) {
	for _, text := range []string{"", "bogus", "static:", "static:x", "static:0", "static:33", "STATIC:2", "iat "} {
		if sp, err := ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q) accepted: %+v", text, sp)
		}
	}
	// The unknown-policy error must teach the valid syntaxes.
	_, err := ParseSpec("bogus")
	if err == nil || !strings.Contains(err.Error(), "static[:WAYS]") {
		t.Errorf("unknown-policy error %v does not list valid specs", err)
	}
}

func TestParseShadowSpecs(t *testing.T) {
	if specs, err := ParseShadowSpecs(""); err != nil || specs != nil {
		t.Fatalf("empty = %v, %v", specs, err)
	}
	if specs, err := ParseShadowSpecs("   "); err != nil || specs != nil {
		t.Fatalf("blank = %v, %v", specs, err)
	}
	// Order preserved, whitespace trimmed, empty elements skipped.
	specs, err := ParseShadowSpecs(" static:3 ,, greedy ")
	if err != nil || len(specs) != 2 || specs[0].String() != "static:3" || specs[1].String() != "greedy" {
		t.Fatalf("list = %+v, %v", specs, err)
	}
	// Duplicates are rejected by canonical name — "static" and "static:2"
	// are the same shadow.
	if _, err := ParseShadowSpecs("static,static:2"); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("aliased duplicate accepted: %v", err)
	}
	if _, err := ParseShadowSpecs("iat,iat"); err == nil {
		t.Fatal("duplicate accepted")
	}
	// One bad element fails the whole list.
	if _, err := ParseShadowSpecs("greedy,bogus"); err == nil {
		t.Fatal("bad element accepted")
	}
}

// FuzzParseSpec: the -policy and -shadow parsers never panic, every
// accepted spec (or shadow list) round-trips through String, and every
// rejection is a "policy:" error.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"iat", "static", "static:4", "ioca", "greedy", "core-only", "io-iso",
		"static:0", "static:33", "static:-1", "static:+3", "", ",,", " , ",
		"iat,iat", "static,static:2", "core-only,io-iso", "io-iso,core-only,io-iso",
		"greedy,bogus", "CORE-ONLY",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if sp, err := ParseSpec(text); err != nil {
			if !strings.HasPrefix(err.Error(), "policy:") {
				t.Fatalf("ParseSpec(%q) error %q lacks the policy: prefix", text, err)
			}
		} else if again, err := ParseSpec(sp.String()); err != nil || again != sp {
			t.Fatalf("ParseSpec(%q) = %+v; its String %q parses to %+v, %v", text, sp, sp.String(), again, err)
		}
		specs, err := ParseShadowSpecs(text)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "policy:") {
				t.Fatalf("ParseShadowSpecs(%q) error %q lacks the policy: prefix", text, err)
			}
			return
		}
		names := make([]string, len(specs))
		for i, sp := range specs {
			names[i] = sp.String()
		}
		again, err := ParseShadowSpecs(strings.Join(names, ","))
		if err != nil || len(again) != len(specs) {
			t.Fatalf("ParseShadowSpecs(%q) = %v; rendered %q parses to %v, %v", text, specs, names, again, err)
		}
		for i := range specs {
			if again[i] != specs[i] {
				t.Fatalf("ParseShadowSpecs(%q)[%d] = %+v, round trip %+v", text, i, specs[i], again[i])
			}
		}
	})
}

// TestClassify drives every decision class — Classify is the agreement
// unit of shadow evaluation, so its precedence order (warmup > stable >
// shuffle > ddio > tenant > hold) is part of the contract.
func TestClassify(t *testing.T) {
	cases := []struct {
		a    Actions
		want string
	}{
		{Actions{Warmup: true}, "warmup"},
		{Actions{Stable: true, DDIOWays: 2}, "stable"},
		{Actions{TryShuffle: true, DDIOWays: 2}, "shuffle"},
		{Actions{DDIOWays: 3}, "grow-ddio"},
		{Actions{DDIOWays: 1}, "shrink-ddio"},
		{Actions{DDIOWays: 2, Grow: Ref(1)}, "grow-tenant"},
		{Actions{DDIOWays: 2, Shrink: Ref(1)}, "shrink-tenant"},
		{Actions{DDIOWays: 2}, "hold"},
	}
	for _, c := range cases {
		if got := Classify(c.a, 2); got != c.want {
			t.Errorf("Classify(%+v, 2) = %q, want %q", c.a, got, c.want)
		}
	}
}

// tally counts decisions by their Classify class, each against the DDIO
// way count of the sample it was made on.
type tally map[string]int

// decide runs p on s and counts the decision's class.
func (t tally) decide(p Policy, s Sample) Actions {
	a := p.Decide(s)
	t[Classify(a, s.DDIOWays)]++
	return a
}

// TestStaticConvergesThenHolds: one corrective move to the target, then
// stable forever; the target clamps into the configured DDIO bounds.
func TestStaticConvergesThenHolds(t *testing.T) {
	p, mix := NewStatic(4), tally{}
	a := mix.decide(p, sample(LowKeep, 2, 0))
	if a.Stable || a.DDIOWays != 4 || a.State != LowKeep || a.Desc.String() != "static: ddio=4" {
		t.Fatalf("corrective move = %+v", a)
	}
	if a := mix.decide(p, sample(LowKeep, 4, 0)); !a.Stable || a.DDIOWays != 4 || a.Desc.String() != "stable" {
		t.Fatalf("at target = %+v", a)
	}
	if want := (tally{"grow-ddio": 1, "stable": 1}); !maps.Equal(mix, want) {
		t.Fatalf("decision mix = %v, want %v", mix, want)
	}
}

func TestStaticClampsAndRespectsDisable(t *testing.T) {
	// A target above DDIOWaysMax clamps down; below DDIOWaysMin clamps up.
	p := NewStatic(9)
	if a := p.Decide(sample(LowKeep, 2, 0)); a.DDIOWays != limits().DDIOWaysMax {
		t.Fatalf("over-max target = %+v", a)
	}
	lo := NewStatic(1)
	s := sample(LowKeep, 3, 0)
	s.Limits.DDIOWaysMin = 2
	if a := lo.Decide(s); a.DDIOWays != 2 {
		t.Fatalf("under-min target = %+v", a)
	}
	// NewStatic(0) falls back to the hardware default.
	if NewStatic(0).Name() != "static:2" {
		t.Fatal("zero ways did not default")
	}
	// With DDIO adjustment disabled the policy may only hold.
	q := NewStatic(4)
	s = sample(LowKeep, 2, 0)
	s.Limits.DisableDDIOAdjust = true
	if a := q.Decide(s); !a.Stable || a.DDIOWays != 2 {
		t.Fatalf("disabled adjust still moved: %+v", a)
	}
}

// iocaSample builds a sample with an explicit DDIO hit/miss split so the
// miss ratio (and the absolute pressing gate) can be placed precisely.
func iocaSample(ddio int, hitPS, missPS float64) Sample {
	s := sample(LowKeep, ddio, missPS)
	s.DDIOHitPS = hitPS
	return s
}

// TestIOCAPatience: a single contended interval is not enough; the second
// consecutive one grows DDIO by one, entering High Keep at the max bound.
func TestIOCAPatience(t *testing.T) {
	p := NewIOCAStyle()
	hot := iocaSample(2, 1e7, 5e6) // ratio 0.33, pressing
	if a := p.Decide(hot); !a.Stable {
		t.Fatalf("one hot interval already acted: %+v", a)
	}
	a := p.Decide(hot)
	if a.DDIOWays != 3 || a.State != IODemand || !strings.HasPrefix(a.Desc.String(), "ioca: contended") {
		t.Fatalf("second hot interval = %+v", a)
	}
	// At max-1 the grow enters High Keep.
	q := NewIOCAStyle()
	edge := iocaSample(limits().DDIOWaysMax-1, 1e7, 5e6)
	q.Decide(edge)
	if a := q.Decide(edge); a.DDIOWays != limits().DDIOWaysMax || a.State != HighKeep {
		t.Fatalf("grow at max boundary = %+v", a)
	}
	// At max, even a sustained hot streak holds.
	if a := q.Decide(iocaSample(limits().DDIOWaysMax, 1e7, 5e6)); !a.Stable {
		t.Fatalf("grew past max: %+v", a)
	}
}

// TestIOCAQuietShrinks: two quiet intervals shrink by one (Reclaim),
// entering Low Keep at the min bound and holding there.
func TestIOCAQuietShrinks(t *testing.T) {
	p := NewIOCAStyle()
	quiet := iocaSample(3, 1e7, 1e3) // not pressing
	p.Decide(quiet)
	a := p.Decide(quiet)
	if a.DDIOWays != 2 || a.State != Reclaim || !strings.HasPrefix(a.Desc.String(), "ioca: quiet") {
		t.Fatalf("second quiet interval = %+v", a)
	}
	if a := p.Decide(iocaSample(2, 1e7, 1e3)); a.DDIOWays != 1 || a.State != LowKeep {
		t.Fatalf("shrink to min = %+v", a)
	}
	if a := p.Decide(iocaSample(1, 1e7, 1e3)); !a.Stable {
		t.Fatalf("shrank below min: %+v", a)
	}
}

// TestIOCABandStallsStreaks: an interval inside the hysteresis band
// (pressing, ratio between low and high) freezes both streaks without
// resetting them — one borderline sample must not erase evidence — while
// Reset() does restart them.
func TestIOCABandStallsStreaks(t *testing.T) {
	p := NewIOCAStyle()
	hot := iocaSample(2, 1e7, 5e6)   // ratio 0.33
	band := iocaSample(2, 14e6, 2e6) // ratio 0.125, pressing
	p.Decide(hot)
	if a := p.Decide(band); !a.Stable {
		t.Fatalf("band interval acted: %+v", a)
	}
	if a := p.Decide(hot); a.DDIOWays != 3 {
		t.Fatalf("streak was erased by the band interval: %+v", a)
	}

	q := NewIOCAStyle()
	q.Decide(hot)
	q.Reset()
	if a := q.Decide(hot); !a.Stable {
		t.Fatalf("Reset did not restart the streak: %+v", a)
	}
}

// TestGreedyDemandSelection pins the tie-break contract: DDIO is
// considered first and wins exact ties; tenant groups compete by strict >
// in registration order.
func TestGreedyDemandSelection(t *testing.T) {
	p := NewGreedy()

	// Idle (all rates at or under the noise floor): hold.
	idle := sample(LowKeep, 2, limits().ThresholdMissLowPerSec/10)
	if a := p.Decide(idle); !a.Stable || a.Desc.String() != "stable" {
		t.Fatalf("idle = %+v", a)
	}

	// DDIO wins an exact tie with a tenant group.
	s := sample(LowKeep, 2, 5e6)
	s.Groups = []GroupView{{CLOS: 1, Width: 2, MissPS: 5e6}}
	a := p.Decide(s)
	if a.DDIOWays != 3 || a.State != IODemand || a.Grow.Set || a.Desc.String() != "greedy: ddio=3" {
		t.Fatalf("ddio tie = %+v", a)
	}

	// A strictly louder group beats DDIO; equal groups tie-break to the
	// first registered.
	s = sample(LowKeep, 2, 5e6)
	s.Groups = []GroupView{
		{CLOS: 4, Width: 2, MissPS: 6e6},
		{CLOS: 1, Width: 2, MissPS: 6e6},
	}
	a = p.Decide(s)
	if a.State != CoreDemand || a.Grow != Ref(4) || a.Desc.String() != "greedy: +1 way clos 4" {
		t.Fatalf("group demand = %+v", a)
	}
}

func TestGreedySaturation(t *testing.T) {
	p := NewGreedy()

	// DDIO at max: demand can only hold in High Keep.
	s := sample(HighKeep, limits().DDIOWaysMax, 5e6)
	if a := p.Decide(s); a.State != HighKeep || a.DDIOWays != limits().DDIOWaysMax || a.Desc.String() != "greedy: ddio saturated" {
		t.Fatalf("ddio saturated = %+v", a)
	}
	// Grow into High Keep at max-1.
	s = sample(IODemand, limits().DDIOWaysMax-1, 5e6)
	if a := p.Decide(s); a.State != HighKeep || a.DDIOWays != limits().DDIOWaysMax {
		t.Fatalf("grow to max = %+v", a)
	}

	// Tenant widths filling the cache: no way left to grant.
	s = sample(LowKeep, 2, 0)
	s.Groups = []GroupView{
		{CLOS: 1, Width: 6, MissPS: 6e6},
		{CLOS: 2, Width: 5, MissPS: 1e5},
	}
	if a := p.Decide(s); a.Desc.String() != "greedy: tenants saturated" || a.Grow.Set {
		t.Fatalf("tenants saturated = %+v", a)
	}
}
