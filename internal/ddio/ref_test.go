package ddio

import (
	"testing"
	_ "unsafe" // for go:linkname

	"iatsim/internal/cache"
	"iatsim/internal/mem"
	"iatsim/internal/msr"
	"iatsim/internal/telemetry"
)

// refEngine is the DDIO datapath as it was before bursts became one
// cache call: a loop over the burst's lines that invalidates the
// consumer's private copy and calls LLC.IOWrite (or IORead) per line,
// issuing each memory transfer as its line is handled. It drives the
// single-line cache entry points, which the cache package's
// differential tests check against its reference models.
type refEngine struct {
	hier    *cache.Hierarchy
	mc      *mem.Controller
	enabled bool
	stats   Stats

	// The engine's telemetry counters.
	updates, allocs, drops, readsLLC, readsMem uint64
}

// write is the inbound path; st, when not &e.stats, is a port's counters
// (the engine's accumulate too).
func (e *refEngine) write(a uint64, n, consumer int, mask cache.WayMask, st *Stats) {
	for line := a &^ 63; n > 0 && line <= (a+uint64(n)-1)&^63; line += 64 {
		d := Stats{LinesWritten: 1}
		if consumer >= 0 {
			e.hier.InvalidatePrivate(consumer, line)
		}
		if !e.enabled {
			e.drops++
			e.mc.Write(cache.LineSize)
		} else if hit, v := e.hier.LLC().IOWrite(line, mask); hit {
			d.WriteUpdates = 1
			e.updates++
		} else {
			d.WriteAllocs = 1
			e.allocs++
			if v.Valid && v.Dirty {
				e.mc.Write(cache.LineSize)
			}
		}
		e.account(st, d)
	}
}

func (e *refEngine) bypass(a uint64, n, consumer int, st *Stats) {
	for line := a &^ 63; n > 0 && line <= (a+uint64(n)-1)&^63; line += 64 {
		e.account(st, Stats{LinesBypassed: 1})
		e.drops++
		if consumer >= 0 {
			e.hier.InvalidatePrivate(consumer, line)
		}
		e.mc.Write(cache.LineSize)
	}
}

func (e *refEngine) read(a uint64, n int, st *Stats) {
	for line := a &^ 63; n > 0 && line <= (a+uint64(n)-1)&^63; line += 64 {
		if e.enabled && e.hier.LLC().IORead(line) {
			e.account(st, Stats{LinesRead: 1, ReadsFromLLC: 1})
			e.readsLLC++
			continue
		}
		e.account(st, Stats{LinesRead: 1, ReadsFromMem: 1})
		e.readsMem++
		e.mc.Read(cache.LineSize)
	}
}

func (e *refEngine) account(st *Stats, d Stats) {
	st.add(d)
	if st != &e.stats {
		e.stats.add(d)
	}
}

// portWrite is Port.Write over the reference datapath.
func (e *refEngine) portWrite(a uint64, n, consumer int, mask cache.WayMask, header int, st *Stats) {
	ddioBytes := n
	if header > 0 && header < n {
		ddioBytes = header
	}
	e.write(a, ddioBytes, consumer, mask, st)
	if ddioBytes < n {
		e.bypass(a+uint64(ddioBytes), n-ddioBytes, consumer, st)
	}
}

// TestEngineBurstDifferential drives the engine (one cache call per
// burst, memory traffic after it) and refEngine on identical machines
// through random DMA bursts: the global path, a port with its own mask,
// and a header-only port, with DDIO toggled off and on, the DDIO
// register reprogrammed, cores caching the buffers in between, and
// consumers -1, a built core and a core whose caches are built only in
// the second half. Engine and port counters, telemetry, memory traffic,
// LLC counters and the residency of every line must agree throughout.
// It runs once per probe path, so hosts with and without AVX2 cover the
// same ground.
func TestEngineBurstDifferential(t *testing.T) {
	for _, path := range []struct {
		name   string
		scalar bool
	}{{"kernel", false}, {"scalar", true}} {
		t.Run(path.name, func(t *testing.T) {
			defer forceScalarProbes(forceScalarProbes(path.scalar))
			runEngineBurstDifferential(t)
		})
	}
}

// forceScalarProbes is internal/cache's test hook: caches built while it
// is on probe their tag rows with the scalar loop, not the tag-match
// kernel. It returns the previous setting.
//
//go:linkname forceScalarProbes iatsim/internal/cache.forceScalarProbes
func forceScalarProbes(on bool) (was bool)

func runEngineBurstDifferential(t *testing.T) {
	cfg := cache.HierarchyConfig{
		Cores: 3,
		L1:    cache.LevelConfig{SizeBytes: 2 << 10, Ways: 4, HitCycles: 4},
		L2:    cache.LevelConfig{SizeBytes: 8 << 10, Ways: 8, HitCycles: 14},
		LLC:   cache.LLCConfig{Slices: 2, Ways: 8, SetsPerSlice: 16, HitCycles: 44},
	}
	type machine struct {
		f   *msr.File
		h   *cache.Hierarchy
		mc  *mem.Controller
		reg *telemetry.Registry
	}
	build := func() machine {
		mc := mem.NewController(mem.Config{})
		return machine{msr.NewFile(), cache.NewHierarchy(cfg, 2.3, mc), mc, telemetry.NewRegistry()}
	}
	m, rm := build(), build()
	e := New(m.f, m.h, m.mc)
	e.AttachTelemetry(m.reg)
	New(rm.f, rm.h, rm.mc) // programs the same default register
	ref := &refEngine{hier: rm.h, mc: rm.mc, enabled: true}

	masked := e.NewPort()
	if err := masked.SetMask(cache.ContiguousMask(3, 2)); err != nil {
		t.Fatal(err)
	}
	header := e.NewPort()
	header.SetHeaderOnly(128)
	var refMasked, refHeader Stats

	const buffers, bufSize = 96, 2048
	rng := uint64(7)
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % n
	}
	for i := 0; i < 20000; i++ {
		if i%400 == 0 {
			m.mc.BeginEpoch(5e4)
			rm.mc.BeginEpoch(5e4)
		}
		a := next(buffers)*bufSize + next(cache.LineSize)
		n := int(next(1600)) - 10    // a few empty and negative sizes
		consumer := int(next(4)) - 1 // core 2's caches are built in the second half
		mask := e.Mask()
		switch op := next(16); {
		case op < 5:
			e.DeviceWrite(a, n, consumer)
			ref.write(a, n, consumer, mask, &ref.stats)
		case op < 7:
			masked.Write(a, n, consumer)
			ref.portWrite(a, n, consumer, cache.ContiguousMask(3, 2), 0, &refMasked)
		case op < 9:
			header.Write(a, n, consumer)
			ref.portWrite(a, n, consumer, mask, 128, &refHeader)
		case op < 11:
			e.DeviceRead(a, n)
			ref.read(a, n, &ref.stats)
		case op < 12:
			header.Read(a, n)
			ref.read(a, n, &refHeader)
		case op < 14:
			core := int(next(2))
			if i >= 10000 {
				core = int(next(3))
			}
			write := next(2) == 0
			if got, want := m.h.Access(core, a, write, cache.FullMask(8)), rm.h.Access(core, a, write, cache.FullMask(8)); got != want {
				t.Fatalf("op %d: Access latency %d, ref %d", i, got, want)
			}
		case op < 15:
			e.Enabled = !e.Enabled
			ref.enabled = e.Enabled
		default:
			w := cache.ContiguousMask(int(next(7)), 2)
			if err := m.f.Write(msr.IIOLLCWays, uint64(w)); err != nil {
				t.Fatal(err)
			}
			if err := rm.f.Write(msr.IIOLLCWays, uint64(w)); err != nil {
				t.Fatal(err)
			}
		}
		if e.Stats() != ref.stats || masked.Stats() != refMasked || header.Stats() != refHeader {
			t.Fatalf("op %d: stats %+v / %+v / %+v, ref %+v / %+v / %+v",
				i, e.Stats(), masked.Stats(), header.Stats(), ref.stats, refMasked, refHeader)
		}
		if got, want := m.mc.Stats(), rm.mc.Stats(); got != want {
			t.Fatalf("op %d: memory traffic %v, ref %v", i, got, want)
		}
	}
	for name, want := range map[string]uint64{
		"write_updates": ref.updates, "write_allocates": ref.allocs, "drops_to_mem": ref.drops,
		"reads_from_llc": ref.readsLLC, "reads_from_mem": ref.readsMem,
	} {
		if got := m.reg.Counter("ddio", "", name).Value(); got != want {
			t.Errorf("telemetry ddio/%s = %d, ref %d", name, got, want)
		}
	}
	if got, want := m.h.LLC().TotalStats(), rm.h.LLC().TotalStats(); got != want {
		t.Fatalf("LLC counters %+v, ref %+v", got, want)
	}
	for line := uint64(0); line < buffers*bufSize; line += cache.LineSize {
		if got, want := m.h.LLC().WayOf(line), rm.h.LLC().WayOf(line); got != want {
			t.Fatalf("WayOf(%#x) = %d, ref %d", line, got, want)
		}
		for c := 0; c < cfg.Cores; c++ {
			if got, want := m.h.PrivateContains(c, line), rm.h.PrivateContains(c, line); got != want {
				t.Fatalf("core %d PrivateContains(%#x) = %v, ref %v", c, line, got, want)
			}
		}
	}
}
