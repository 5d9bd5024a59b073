package cache

import (
	"testing"

	"iatsim/internal/telemetry"
)

// The uninstrumented hot path must not allocate: an unattached LLC's
// telemetry handles are nil, and nil-handle increments are single
// branches. This is the contract that lets every layer wire telemetry
// unconditionally.
func TestAccessNilSinkAllocatesNothing(t *testing.T) {
	l := testLLC(1)
	mask := FullMask(8)
	var a uint64
	allocs := testing.AllocsPerRun(1000, func() {
		l.Access(0, a, false, mask)
		a += LineSize
	})
	if allocs != 0 {
		t.Fatalf("uninstrumented Access allocates %v per run, want 0", allocs)
	}
}

// Telemetry-on runs also must not allocate per access: handles are
// resolved once at attach time and increments are field updates.
func TestAccessLiveSinkAllocatesNothing(t *testing.T) {
	l := testLLC(1)
	l.AttachTelemetry(telemetry.NewRegistry())
	mask := FullMask(8)
	var a uint64
	allocs := testing.AllocsPerRun(1000, func() {
		l.Access(0, a, false, mask)
		a += LineSize
	})
	if allocs != 0 {
		t.Fatalf("instrumented Access allocates %v per run, want 0", allocs)
	}
}

// Once a core's private caches exist, demand accesses must not allocate:
// building them on first use may not leak into the steady state.
func TestHierarchyAccessAllocatesNothing(t *testing.T) {
	h := testHierarchy()
	mask := FullMask(8)
	h.Access(0, 0, false, mask)
	var a uint64
	allocs := testing.AllocsPerRun(1000, func() {
		h.Access(0, a, a&LineSize == 0, mask)
		a += LineSize
	})
	if allocs != 0 {
		t.Fatalf("Hierarchy.Access allocates %v per run, want 0", allocs)
	}
}

func TestAttachTelemetryCounts(t *testing.T) {
	l := testLLC(1)
	reg := telemetry.NewRegistry()
	l.AttachTelemetry(reg)
	mask := FullMask(8)

	const line = 0x4000
	l.Access(0, line, false, mask) // miss + app fill
	l.Access(0, line, false, mask) // hit
	l.IOWrite(0x8000, mask)        // DDIO write allocate

	sum := func(name string) (total uint64) {
		for _, m := range reg.Snapshot(0).Metrics {
			if m.Subsystem == "cache" && m.Name == name {
				total += m.Counter
			}
		}
		return total
	}
	if got := sum("hits"); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
	if got := sum("misses"); got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}
	if got := sum("fills_app"); got != 1 {
		t.Fatalf("fills_app = %d, want 1", got)
	}
	if got := sum("fills_ddio"); got != 1 {
		t.Fatalf("fills_ddio = %d, want 1", got)
	}
	// Telemetry must agree with the LLC's own demand statistics.
	st := l.TotalStats()
	if st.Hits != 1 || st.Lookups != 2 {
		t.Fatalf("LLC stats disagree: %+v", st)
	}
}

// benchAccess drives the demand path over a working set that overflows
// the test LLC, exercising hits, misses, and evictions.
func benchAccess(b *testing.B, l *LLC) {
	mask := FullMask(8)
	var a uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Access(0, a, i%8 == 0, mask)
		a = (a + 3*LineSize) % (1 << 22)
	}
}

func BenchmarkLLCAccessNilSink(b *testing.B) {
	benchAccess(b, testLLC(1))
}

func BenchmarkLLCAccessLiveSink(b *testing.B) {
	l := testLLC(1)
	l.AttachTelemetry(telemetry.NewRegistry())
	benchAccess(b, l)
}

func BenchmarkHistogramObserve(b *testing.B) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("mem", "", "lat", []float64{60, 90, 120, 180, 240, 360, 480, 720, 960})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 1024))
	}
}

func BenchmarkSnapshot(b *testing.B) {
	l := testLLC(1)
	reg := telemetry.NewRegistry()
	l.AttachTelemetry(reg)
	mask := FullMask(8)
	for i := 0; i < 4096; i++ {
		l.Access(0, uint64(i)*LineSize, false, mask)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Snapshot(float64(i))
	}
}
