package telemetry

import (
	"testing"
)

func TestNilHandlesNoOp(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(1)
	h.Observe(42)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read as zero")
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	if r.Counter("a", "", "b") != nil {
		t.Fatal("nil registry must hand out nil counter handles")
	}
	if r.Gauge("a", "", "b") != nil || r.Histogram("a", "", "b", nil) != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	r.Emit(Event{Name: "x"})
	if r.Events(SevDebug, "") != nil || r.Dropped() != 0 || r.Snapshot(0) != nil {
		t.Fatal("nil registry must be fully inert")
	}
}

// A typed-nil *Registry stored in the Sink interface must behave like a
// nil sink rather than panic — components store Sink, not *Registry.
func TestTypedNilSink(t *testing.T) {
	var s Sink = (*Registry)(nil)
	c := s.Counter("cache", "slice0", "hits")
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("typed-nil sink must degrade to nil handles")
	}
	s.Emit(Event{Name: "x"})
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cache", "slice0", "hits")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	if r.Counter("cache", "slice0", "hits") != c {
		t.Fatal("same key must return the same handle")
	}

	g := r.Gauge("nic", "vf0", "occ")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %g, want 4", g.Value())
	}

	h := r.Histogram("mem", "", "lat", []float64{10, 20})
	for _, v := range []float64{5, 15, 25, 10} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 55 {
		t.Fatalf("histogram count=%d sum=%g, want 4/55", h.Count(), h.Sum())
	}
	snap := r.Snapshot(0)
	var hist *HistogramData
	for _, m := range snap.Metrics {
		if m.Kind == KindHistogram {
			hist = m.Hist
		}
	}
	// 5 and 10 land in le:10 (upper-inclusive), 15 in le:20, 25 in +Inf.
	want := []uint64{2, 1, 1}
	for i, w := range want {
		if hist.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, hist.Counts[i], w, hist.Counts)
		}
	}
}

// Re-registering a key under a different kind must not corrupt the first
// registrant; the mismatched caller gets an inert nil handle.
func TestKindMismatchReturnsNilHandle(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cache", "", "hits")
	c.Add(9)
	g := r.Gauge("cache", "", "hits")
	if g != nil {
		t.Fatal("kind mismatch must return a nil handle")
	}
	g.Set(123) // must no-op
	if c.Value() != 9 {
		t.Fatalf("counter corrupted by kind mismatch: %d", c.Value())
	}
}

func TestHistogramBoundsFixedByFirstRegistration(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("mem", "", "lat", []float64{10})
	h2 := r.Histogram("mem", "", "lat", []float64{99, 100, 101})
	if h1 != h2 {
		t.Fatal("same key must return the same histogram")
	}
	h1.Observe(50)
	snap := r.Snapshot(0)
	h := snap.Metrics[0].Hist
	if len(h.Bounds) != 1 || h.Bounds[0] != 10 {
		t.Fatalf("bounds = %v, want the first registration's [10]", h.Bounds)
	}
}

func TestRingOverflowAndFiltering(t *testing.T) {
	r := NewRegistrySized(3)
	for i := 0; i < 5; i++ {
		sev := SevDebug
		if i%2 == 1 {
			sev = SevInfo
		}
		r.Emit(Event{TimeNS: float64(i), Sev: sev, Subsystem: "daemon", Name: "ev"})
	}
	evs := r.Events(SevDebug, "")
	if len(evs) != 3 {
		t.Fatalf("ring holds %d events, want 3", len(evs))
	}
	// Oldest two (seq 1, 2) were overwritten.
	if evs[0].Seq != 3 || evs[2].Seq != 5 {
		t.Fatalf("ring kept seqs %d..%d, want 3..5", evs[0].Seq, evs[2].Seq)
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", r.Dropped())
	}
	if got := r.Events(SevInfo, ""); len(got) != 1 || got[0].Sev != SevInfo {
		t.Fatalf("severity filter returned %v", got)
	}
	if got := r.Events(SevDebug, "nic"); len(got) != 0 {
		t.Fatalf("subsystem filter returned %v", got)
	}
	if got := r.Events(SevDebug, "daemon"); len(got) != 3 {
		t.Fatalf("subsystem match returned %d events, want 3", len(got))
	}
}

func TestZeroCapacityRingDisablesCapture(t *testing.T) {
	r := NewRegistrySized(0)
	r.Emit(Event{Name: "x"})
	if len(r.Events(SevDebug, "")) != 0 || r.Dropped() != 1 {
		t.Fatal("zero-capacity ring must drop everything while counting")
	}
}

// TestRingGrowsOnDemand: the event ring starts small and doubles up to
// its capacity, and at every step keeps exactly the events, sequence
// numbers and drop count of a ring allocated at full capacity: the last
// min(pushed, capacity) events, oldest first.
func TestRingGrowsOnDemand(t *testing.T) {
	for _, capacity := range []int{-1, 0, 1, 5, ringStart, ringStart + 1, 100, 300} {
		r := NewRegistrySized(capacity)
		want := max(capacity, 0)
		for pushed := 1; pushed <= 3*want+2*ringStart; pushed++ {
			r.Emit(Event{TimeNS: float64(pushed), Subsystem: "x", Name: "ev"})
			kept := min(pushed, want)
			evs := r.Events(SevDebug, "")
			if len(evs) != kept || r.Dropped() != uint64(pushed-kept) {
				t.Fatalf("capacity %d after %d events: %d kept, %d dropped; want %d, %d",
					capacity, pushed, len(evs), r.Dropped(), kept, pushed-kept)
			}
			for i, ev := range evs {
				if seq := uint64(pushed - kept + i + 1); ev.Seq != seq || ev.TimeNS != float64(seq) {
					t.Fatalf("capacity %d after %d events: event %d has seq %d time %v, want %d",
						capacity, pushed, i, ev.Seq, ev.TimeNS, seq)
				}
			}
			// The buffer holds at most twice the live events (or the
			// first buffer), never more than the capacity.
			if n := len(r.ring.buf); n > want || n > max(2*kept, ringStart) {
				t.Fatalf("capacity %d after %d events: buffer of %d", capacity, pushed, n)
			}
		}
	}
	// A default registry that records a fleet host's ~100 events holds
	// 128 of them, not DefaultEventCapacity.
	r := NewRegistry()
	for i := 0; i < 99; i++ {
		r.Emit(Event{Name: "ev"})
	}
	if n := len(r.ring.buf); n != 128 {
		t.Fatalf("99 events in a default registry use a buffer of %d, want 128", n)
	}
}

func TestSnapshotSortedAndValid(t *testing.T) {
	r := NewRegistry()
	// Register deliberately out of key order.
	r.Counter("nic", "vf1", "rx").Inc()
	r.Counter("cache", "slice1", "hits").Add(2)
	r.Counter("cache", "slice0", "hits").Add(1)
	r.Gauge("cache", "slice0", "dirty").Set(4)
	r.Emit(Event{TimeNS: 1, Sev: SevInfo, Subsystem: "daemon", Name: "state"})

	s := r.Snapshot(42e9)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	wantKeys := []Key{
		{"cache", "slice0", "dirty"},
		{"cache", "slice0", "hits"},
		{"cache", "slice1", "hits"},
		{"nic", "vf1", "rx"},
	}
	for i, w := range wantKeys {
		if s.Metrics[i].Key() != w {
			t.Fatalf("metric %d = %v, want %v", i, s.Metrics[i].Key(), w)
		}
	}
	if s.TimeNS != 42e9 || len(s.Events) != 1 {
		t.Fatalf("snapshot time/events wrong: %+v", s)
	}
}

// A snapshot must stay immutable after the registry keeps accumulating.
func TestSnapshotIsDeepCopy(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mem", "", "lat", []float64{10})
	h.Observe(5)
	s := r.Snapshot(0)
	h.Observe(5)
	h.Observe(500)
	if s.Metrics[0].Hist.Count != 1 || s.Metrics[0].Hist.Counts[0] != 1 {
		t.Fatal("snapshot histogram mutated by later observations")
	}
}

func TestDiff(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cache", "", "hits")
	g := r.Gauge("nic", "vf0", "occ")
	h := r.Histogram("mem", "", "lat", []float64{10})
	c.Add(3)
	g.Set(1)
	h.Observe(5)
	before := r.Snapshot(1e9)

	c.Add(4)
	g.Set(9)
	h.Observe(7)
	h.Observe(8)
	r.Counter("ddio", "", "drops").Add(2) // appears only in after
	after := r.Snapshot(2e9)

	ds := Diff(before, after)
	want := []Delta{
		{Key{"cache", "", "hits"}, KindCounter, 3, 7},
		{Key{"ddio", "", "drops"}, KindCounter, 0, 2},
		{Key{"mem", "", "lat"}, KindHistogram, 1, 3},
		{Key{"nic", "vf0", "occ"}, KindGauge, 1, 9},
	}
	if len(ds) != len(want) {
		t.Fatalf("diff has %d rows, want %d: %+v", len(ds), len(want), ds)
	}
	for i, w := range want {
		if ds[i] != w {
			t.Fatalf("diff[%d] = %+v, want %+v", i, ds[i], w)
		}
	}

	// Diff against nil treats the missing side as zero.
	ds = Diff(nil, after)
	if len(ds) != 4 || ds[0].Before != 0 || ds[0].After != 7 {
		t.Fatalf("diff(nil, after) = %+v", ds)
	}
	if got := Diff(nil, nil); len(got) != 0 {
		t.Fatalf("diff(nil, nil) = %+v", got)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	mk := func() *Snapshot {
		r := NewRegistry()
		r.Counter("b", "", "x").Inc()
		r.Counter("a", "", "x").Inc()
		r.Histogram("m", "", "h", []float64{1, 2}).Observe(1.5)
		r.Emit(Event{TimeNS: 1, Name: "e1"})
		r.Emit(Event{TimeNS: 2, Name: "e2"})
		return r.Snapshot(0)
	}

	s := mk()
	if err := s.Validate(); err != nil {
		t.Fatalf("healthy snapshot rejected: %v", err)
	}

	s = mk()
	s.Metrics[0], s.Metrics[1] = s.Metrics[1], s.Metrics[0]
	if s.Validate() == nil {
		t.Fatal("unsorted metrics accepted")
	}

	s = mk()
	for i := range s.Metrics {
		if s.Metrics[i].Kind == KindHistogram {
			s.Metrics[i].Hist.Count = 99
		}
	}
	if s.Validate() == nil {
		t.Fatal("inconsistent histogram count accepted")
	}

	s = mk()
	s.Events[1].Seq = s.Events[0].Seq
	if s.Validate() == nil {
		t.Fatal("non-increasing event seq accepted")
	}

	if (*Snapshot)(nil).Validate() == nil {
		t.Fatal("nil snapshot accepted")
	}
}
