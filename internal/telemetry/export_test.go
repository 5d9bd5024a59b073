package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// sampleSnapshot builds the fixed snapshot behind the golden files: one
// of every metric kind plus events at two severities.
func sampleSnapshot() *Snapshot {
	r := NewRegistry()
	r.Counter("cache", "slice0", "hits").Add(41)
	r.Counter("cache", "slice0", "misses").Add(7)
	r.Gauge("nic", "vf0", "rx_ring_occupancy").Set(12.5)
	h := r.Histogram("mem", "", "read_latency_ns", []float64{60, 120, 240})
	for _, v := range []float64{50, 100, 200, 400, 90} {
		h.Observe(v)
	}
	r.Emit(Event{TimeNS: 1e9, Sev: SevInfo, Subsystem: "daemon", Name: "state", Detail: "LowKeep->IODemand"})
	r.Emit(Event{TimeNS: 1.5e9, Sev: SevDebug, Subsystem: "daemon", Name: "mask_write", Detail: "ddio=0x3"})
	return r.Snapshot(2e9)
}

// checkGolden compares rendered bytes against testdata/<name>, or
// rewrites the golden under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/telemetry -update` to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func render(t *testing.T, f func(w *bytes.Buffer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGoldenCSV(t *testing.T) {
	s := sampleSnapshot()
	checkGolden(t, "snapshot.csv", render(t, func(w *bytes.Buffer) error { return s.WriteCSV(w) }))
}

func TestGoldenJSON(t *testing.T) {
	s := sampleSnapshot()
	checkGolden(t, "snapshot.json", render(t, func(w *bytes.Buffer) error { return s.WriteJSON(w) }))
}

func TestGoldenChromeTrace(t *testing.T) {
	s := sampleSnapshot()
	checkGolden(t, "snapshot.trace.json", render(t, func(w *bytes.Buffer) error { return s.WriteChromeTrace(w) }))
}

// The Chrome trace must pass the same structural checks Perfetto's JSON
// importer applies, independent of the golden bytes.
func TestChromeTraceStructure(t *testing.T) {
	s := sampleSnapshot()
	data := render(t, func(w *bytes.Buffer) error { return s.WriteChromeTrace(w) })
	if err := ValidateChromeTrace(data); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	var instants, counters int
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "i":
			instants++
			// trace_event ts is microseconds; events sit at 1s and 1.5s.
			if ev.TS != 1e6 && ev.TS != 1.5e6 {
				t.Fatalf("instant %q at ts=%v, want µs conversion of sim time", ev.Name, ev.TS)
			}
		case "C":
			counters++
			if ev.TS != 2e6 {
				t.Fatalf("counter %q at ts=%v, want snapshot time 2e6 µs", ev.Name, ev.TS)
			}
		}
	}
	if instants != 2 {
		t.Fatalf("trace has %d instant events, want 2", instants)
	}
	// Histograms are not representable as trace counters; the two
	// cache counters and the NIC gauge are.
	if counters != 3 {
		t.Fatalf("trace has %d counter events, want 3", counters)
	}

	if ValidateChromeTrace([]byte(`{}`)) == nil {
		t.Fatal("trace without traceEvents accepted")
	}
	if ValidateChromeTrace([]byte(`{"traceEvents":[{"ph":"i","pid":1,"tid":1,"ts":0}]}`)) == nil {
		t.Fatal("unnamed trace event accepted")
	}
}

func TestWriteFilesRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	base := filepath.Join(t.TempDir(), "sub", "snap") // WriteFiles must create parents
	if err := s.WriteFiles(base); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile(base + ".json")
	if err != nil {
		t.Fatal(err)
	}
	if got.TimeNS != s.TimeNS || len(got.Metrics) != len(s.Metrics) || len(got.Events) != len(s.Events) {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	for i := range s.Metrics {
		if got.Metrics[i].Key() != s.Metrics[i].Key() || got.Metrics[i].Kind != s.Metrics[i].Kind {
			t.Fatalf("metric %d mismatch: %+v vs %+v", i, got.Metrics[i], s.Metrics[i])
		}
	}
	for _, ext := range []string{".csv", ".trace.json"} {
		if _, err := os.Stat(base + ext); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(base + ".trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(data); err != nil {
		t.Fatal(err)
	}
	if err := ValidateSnapshotJSON([]byte(`{"metrics":[{"subsystem":"b","name":"x","kind":"counter"},{"subsystem":"a","name":"x","kind":"counter"}]}`)); err == nil {
		t.Fatal("unsorted snapshot JSON accepted")
	}
}

// FuzzValidateSnapshotJSON feeds arbitrary bytes to the two validators
// behind `iatstat -validate`: neither panics, and any snapshot
// ValidateSnapshotJSON accepts re-encodes with WriteJSON into a file it
// accepts again.
func FuzzValidateSnapshotJSON(f *testing.F) {
	for _, name := range []string{"snapshot.json", "snapshot.trace.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"metrics":[{"subsystem":"a","name":"h","kind":"histogram","histogram":{"bounds":[1],"counts":[0,0]}}]}`))
	f.Add([]byte(`{"traceEvents":[{"name":"x","ph":"C","ts":1e400,"pid":1,"tid":1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = ValidateChromeTrace(data)
		if ValidateSnapshotJSON(data) != nil {
			return
		}
		var s Snapshot
		if err := json.Unmarshal(data, &s); err != nil {
			t.Fatalf("validated snapshot does not decode: %v", err)
		}
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		if err := ValidateSnapshotJSON(buf.Bytes()); err != nil {
			t.Fatalf("re-encoded snapshot fails validation: %v\n%s", err, buf.Bytes())
		}
	})
}
