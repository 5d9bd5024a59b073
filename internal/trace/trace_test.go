package trace

import (
	"encoding/csv"
	"strings"
	"testing"

	"iatsim/internal/cache"
	"iatsim/internal/core"
	"iatsim/internal/policy"
)

func sampleInfo(t float64, state policy.State) core.IterationInfo {
	return core.IterationInfo{
		NowNS:    t,
		State:    state,
		Stable:   state == policy.LowKeep,
		Action:   "test",
		DDIOWays: 2,
		DDIOMask: cache.ContiguousMask(9, 2),
		Masks: []core.GroupMask{
			{CLOS: 1, Mask: cache.ContiguousMask(0, 3)},
			{CLOS: 4, Mask: cache.ContiguousMask(3, 2)},
		},
		DDIOHitPS:  1e6,
		DDIOMissPS: 5e3,
	}
}

func TestWriterEmitsHeaderAndRows(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	if err := w.Record(sampleInfo(1e9, policy.LowKeep)); err != nil {
		t.Fatal(err)
	}
	if err := w.Record(sampleInfo(2e9, policy.IODemand)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	hdr := strings.Join(rows[0], ",")
	if !strings.Contains(hdr, "clos1_mask") || !strings.Contains(hdr, "clos4_mask") {
		t.Fatalf("header missing CLOS columns: %s", hdr)
	}
	if rows[1][0] != "1.000" || rows[2][1] != "IODemand" {
		t.Fatalf("data rows wrong: %v / %v", rows[1], rows[2])
	}
	// Every row has the header's width.
	for i, r := range rows {
		if len(r) != len(rows[0]) {
			t.Fatalf("row %d width %d != header %d", i, len(r), len(rows[0]))
		}
	}
}
