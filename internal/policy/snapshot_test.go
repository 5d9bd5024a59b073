package policy

import (
	"bytes"
	"testing"
)

// allSpecs lists one spec per policy implementation.
func allSpecs(t *testing.T) []Spec {
	t.Helper()
	var specs []Spec
	for _, text := range []string{"iat", "static:3", "ioca", "greedy", "core-only", "io-iso"} {
		sp, err := ParseSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sp)
	}
	return specs
}

// drive feeds the policy a deterministic sample stream that exercises
// warmup, growth and reclaim phases, returning the action descriptions.
func drive(p Policy, from, to int) []string {
	var out []string
	for i := from; i < to; i++ {
		missPS := 5e6
		if i%7 > 3 {
			missPS = 1e3
		}
		s := sample(LowKeep, 2+i%4, missPS)
		s.NowNS = float64(i) * 1e8
		s.DDIOHitPS = 1e7 + float64(i%5)*3e6
		s.TotalRefsPS = 2e7
		out = append(out, p.Decide(s).Desc.String())
	}
	return out
}

// TestPolicySnapshotRoundTrip: for every implementation, running k
// samples, snapshotting, restoring into a fresh instance, and continuing
// yields exactly the decision stream of an uninterrupted run — and the
// restored snapshot re-serialises to identical bytes.
func TestPolicySnapshotRoundTrip(t *testing.T) {
	for _, sp := range allSpecs(t) {
		t.Run(sp.String(), func(t *testing.T) {
			full := sp.New()
			wantAll := drive(full, 0, 40)

			orig := sp.New()
			drive(orig, 0, 25)
			snap, err := orig.AppendSnapshot(nil)
			if err != nil {
				t.Fatal(err)
			}

			restored := sp.New()
			if err := restored.Restore(snap); err != nil {
				t.Fatal(err)
			}
			resnap, err := restored.AppendSnapshot(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap, resnap) {
				t.Fatalf("restore+snapshot not byte-identical:\n%s\nvs\n%s", snap, resnap)
			}
			got := drive(restored, 25, 40)
			want := wantAll[25:]
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("decision %d after restore = %q, want %q", 25+i, got[i], want[i])
				}
			}
		})
	}
}

// TestPolicyRestoreErrors: malformed bytes and mismatched configurations
// are typed errors, never panics, and leave the policy untouched.
func TestPolicyRestoreErrors(t *testing.T) {
	for _, sp := range allSpecs(t) {
		p := sp.New()
		if err := p.Restore([]byte("{not json")); err == nil {
			t.Errorf("%s: garbage restore accepted", sp)
		}
	}
	// A static snapshot carries its way count; restoring into a
	// differently-configured instance must be rejected.
	s2 := NewStatic(2)
	snap, err := s2.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewStatic(4).Restore(snap); err == nil {
		t.Error("static:4 accepted a static:2 snapshot")
	}
}

// TestEvaluatorSnapshotRoundTrip: a mid-run evaluator snapshot restored
// into a freshly built evaluator reproduces the original's summaries and
// future tick behaviour.
func TestEvaluatorSnapshotRoundTrip(t *testing.T) {
	specs := mustSpecs(t, "static:5,greedy")
	run := func(e *Evaluator, from, to int) {
		for i := from; i < to; i++ {
			s := sample(LowKeep, 2, 5e6)
			s.NowNS = float64(i) * 1e8
			s.DDIOHitPS = 1e7
			tick(e, s)
		}
	}
	full := NewEvaluator(specs)
	run(full, 0, 20)

	orig := NewEvaluator(specs)
	run(orig, 0, 12)
	snap, err := orig.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	restored := NewEvaluator(specs)
	run(restored, 0, 3) // pre-restore state must be overwritten
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	run(restored, 12, 20)
	wantSums, gotSums := full.Summaries(), restored.Summaries()
	for i := range wantSums {
		if gotSums[i] != wantSums[i] {
			t.Fatalf("shadow %d summary after restore = %+v, want %+v", i, gotSums[i], wantSums[i])
		}
	}

	// Mismatched shadow sets are rejected.
	if err := NewEvaluator(mustSpecs(t, "static:5")).Restore(snap); err == nil {
		t.Error("evaluator with fewer shadows accepted the snapshot")
	}
	if err := NewEvaluator(mustSpecs(t, "greedy,static:5")).Restore(snap); err == nil {
		t.Error("evaluator with reordered shadows accepted the snapshot")
	}
}

// TestEvaluatorRestart: a cold start zeroes summaries, rows, and the
// counterfactual machines.
func TestEvaluatorRestart(t *testing.T) {
	e := NewEvaluator(mustSpecs(t, "static:5"))
	for i := 0; i < 5; i++ {
		s := sample(LowKeep, 2, 5e6)
		s.NowNS = float64(i) * 1e8
		tick(e, s)
	}
	if len(e.Rows()) == 0 || e.Summaries()[0].Ticks == 0 {
		t.Fatal("evaluator did not accumulate state to restart from")
	}
	e.Restart()
	if len(e.Rows()) != 0 || e.Dropped() != 0 {
		t.Fatal("restart kept divergence rows")
	}
	sum := e.Summaries()[0]
	if sum.Ticks != 0 || sum.FinalDDIO != 0 || sum.Name != "static:5" {
		t.Fatalf("restart kept summary state: %+v", sum)
	}
	var nilEv *Evaluator
	nilEv.Restart() // must not panic
}
