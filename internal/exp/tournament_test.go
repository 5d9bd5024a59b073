package exp

import (
	"bytes"
	"strings"
	"testing"
)

// testTournamentOpts is a grid small and time-compressed enough for the
// race-enabled suite: two policies, one workload, fault-free vs default
// faults.
func testTournamentOpts() TournamentOpts {
	return TournamentOpts{
		Scale:      3200,
		Policies:   []string{"iat", "greedy"},
		Workloads:  []string{"pkt1500"},
		Profiles:   []string{"off", "default"},
		WarmNS:     0.4e9,
		MeasureNS:  0.2e9,
		IntervalNS: 0.05e9,
	}
}

// TestTournamentRanking checks the ranking invariants: every (workload,
// faults) cell ranks each entered policy exactly once, 1..N, ordered by
// non-increasing OVS IPC.
func TestTournamentRanking(t *testing.T) {
	t.Cleanup(func() { SetExec(Exec{}) })
	SetExec(Exec{Jobs: 4})
	o := testTournamentOpts()
	rows := RunPolicyTournament(nil, o)
	if len(rows) != len(o.Policies)*len(o.Workloads)*len(o.Profiles) {
		t.Fatalf("got %d rows, want %d", len(rows), len(o.Policies)*len(o.Workloads)*len(o.Profiles))
	}
	cells := map[string][]TournamentRow{}
	for _, r := range rows {
		k := r.Workload + "/" + r.Faults
		cells[k] = append(cells[k], r)
	}
	for k, cell := range cells {
		if len(cell) != len(o.Policies) {
			t.Fatalf("cell %s has %d rows, want %d", k, len(cell), len(o.Policies))
		}
		seen := map[string]bool{}
		for i, r := range cell {
			if r.Rank != i+1 {
				t.Errorf("cell %s row %d has rank %d", k, i, r.Rank)
			}
			if i > 0 && cell[i-1].OVSIPC < r.OVSIPC {
				t.Errorf("cell %s not sorted by OVS IPC: %.4f before %.4f", k, cell[i-1].OVSIPC, r.OVSIPC)
			}
			seen[r.Policy] = true
		}
		for _, p := range o.Policies {
			if !seen[p] {
				t.Errorf("cell %s missing policy %s", k, p)
			}
		}
	}
}

// TestTournamentPrintsLeaderboard: the human-readable output ends with a
// leaderboard covering every entered policy.
func TestTournamentPrintsLeaderboard(t *testing.T) {
	t.Cleanup(func() { SetExec(Exec{}) })
	SetExec(Exec{Jobs: 4})
	o := testTournamentOpts()
	var out bytes.Buffer
	RunPolicyTournament(&out, o)
	s := out.String()
	if !strings.Contains(s, "leaderboard:") {
		t.Fatalf("output lacks leaderboard:\n%s", s)
	}
	for _, p := range o.Policies {
		if !strings.Contains(s, p) {
			t.Errorf("output never mentions policy %s", p)
		}
	}
}
