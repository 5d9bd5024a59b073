// Package ddio implements the Data Direct I/O engine: the path by which a
// PCIe device's DMA reads and writes interact with the LLC instead of
// memory (Sec. II-B of the paper).
//
// Inbound (device-to-host) writes perform "write update" when the target
// line is resident anywhere in the LLC, and "write allocate" into the
// current IIO_LLC_WAYS mask otherwise, evicting dirty victims to memory.
// Outbound (host-to-device) reads are served from the LLC when resident and
// from memory otherwise, never allocating. The engine also issues the
// coherence invalidation of the consuming core's private caches that a real
// DMA write performs.
package ddio

import (
	"iatsim/internal/cache"
	"iatsim/internal/mem"
	"iatsim/internal/msr"
	"iatsim/internal/telemetry"
)

// Stats counts engine activity (line granularity).
type Stats struct {
	LinesWritten uint64 // inbound DMA lines
	WriteUpdates uint64 // lines that hit (write update)
	WriteAllocs  uint64 // lines that missed (write allocate)
	LinesRead    uint64 // outbound DMA lines
	ReadsFromLLC uint64 // outbound lines served by the LLC
	ReadsFromMem uint64 // outbound lines served by memory
	// LinesBypassed counts inbound payload lines steered straight to
	// memory by an application-aware (header-only) port policy.
	LinesBypassed uint64
}

// Engine is the DDIO datapath. One engine serves all devices of a socket.
type Engine struct {
	f     *msr.File
	hier  *cache.Hierarchy
	mc    *mem.Controller
	stats Stats
	tel   engineTel

	// Memoized IIO_LLC_WAYS value, keyed on the register file's
	// generation: Mask runs once per inbound DMA burst, and the register
	// only changes on a wrmsr.
	maskGen uint64
	maskOK  bool
	mask    cache.WayMask

	// Enabled mirrors the BIOS knob: when false, inbound data still
	// transits the coherence domain but is immediately evicted, so every
	// inbound line becomes a memory write and every device read a memory
	// read (Sec. II-B's description of DDIO-disabled behaviour).
	Enabled bool
}

// New builds the engine and programs the default 2-way DDIO mask (the two
// highest ways, the hardware default the paper describes) into the register
// file.
func New(f *msr.File, hier *cache.Hierarchy, mc *mem.Controller) *Engine {
	e := &Engine{f: f, hier: hier, mc: mc, Enabled: true}
	ways := hier.Config().LLC.Ways
	def := cache.ContiguousMask(ways-2, 2)
	// Direct write: the engine owns this register's initial value.
	if err := f.Write(msr.IIOLLCWays, uint64(def)); err != nil {
		panic(err)
	}
	return e
}

// Mask returns the current DDIO way mask (read without charging an MSR op
// to the management plane; the hardware datapath does not pay rdmsr costs).
func (e *Engine) Mask() cache.WayMask {
	if g := e.f.Generation(); !e.maskOK || g != e.maskGen {
		e.mask = cache.WayMask(e.f.Peek(msr.IIOLLCWays))
		e.maskGen, e.maskOK = g, true
	}
	return e.mask
}

// DeviceWrite DMAs n contiguous bytes starting at a into the host,
// consumerCore being the core that will process the data (its private
// caches are invalidated line by line). Returns the number of lines that
// missed (write allocates), mostly for tests.
func (e *Engine) DeviceWrite(a uint64, n int, consumerCore int) (allocs int) {
	before := e.stats.WriteAllocs
	e.deviceWriteMasked(a, n, consumerCore, e.Mask(), &e.stats)
	return int(e.stats.WriteAllocs - before)
}

// deviceWriteMasked is the inbound datapath with an explicit mask and stats
// sink (the global counters for DeviceWrite, per-port counters for Ports).
// Per-port writes also accumulate into the engine's global stats. The
// burst is one cache call; its dirty victims are written back to memory
// after it, which keeps the memory controller's order, since no other
// memory traffic falls inside a burst.
func (e *Engine) deviceWriteMasked(a uint64, n, consumerCore int, mask cache.WayMask, st *Stats) {
	if n <= 0 {
		return
	}
	first, last, lines := lineSpan(a, n)
	d := Stats{LinesWritten: lines}
	writes := lines
	if e.Enabled {
		updates, allocs, writebacks := e.hier.IOWriteRange(consumerCore, first, last, mask)
		d.WriteUpdates, d.WriteAllocs = uint64(updates), uint64(allocs)
		writes = uint64(writebacks)
		e.tel.writeUpdates.Add(d.WriteUpdates)
		e.tel.writeAllocs.Add(d.WriteAllocs)
	} else {
		// DDIO off: data lands in the coherence domain and is
		// immediately written out to memory.
		e.hier.InvalidatePrivateRange(consumerCore, first, last)
		e.tel.drops.Add(lines)
	}
	e.account(st, d)
	for ; writes > 0; writes-- {
		e.mc.Write(cache.LineSize)
	}
}

// deviceWriteBypass writes inbound data straight to memory (the
// application-aware payload path) and invalidates the consumer's private
// copies only. An LLC copy of a payload line is left in place, stale: the
// consumer's next read of that line hits it instead of fetching the fresh
// data from DRAM (ROADMAP.md lists the defect).
func (e *Engine) deviceWriteBypass(a uint64, n, consumerCore int, st *Stats) {
	if n <= 0 {
		return
	}
	first, last, lines := lineSpan(a, n)
	e.hier.InvalidatePrivateRange(consumerCore, first, last)
	e.tel.drops.Add(lines)
	e.account(st, Stats{LinesBypassed: lines})
	for i := uint64(0); i < lines; i++ {
		e.mc.Write(cache.LineSize)
	}
}

// DeviceRead DMAs n contiguous bytes starting at a out of the host (e.g. a
// NIC transmitting a packet). Lines resident in the LLC are read from
// there; the rest come from memory without being allocated.
func (e *Engine) DeviceRead(a uint64, n int) {
	e.deviceReadInto(a, n, &e.stats)
}

func (e *Engine) deviceReadInto(a uint64, n int, st *Stats) {
	if n <= 0 {
		return
	}
	first, last, lines := lineSpan(a, n)
	var fromLLC uint64
	if e.Enabled {
		fromLLC = uint64(e.hier.LLC().IOReadRange(first, last))
	}
	fromMem := lines - fromLLC
	e.account(st, Stats{LinesRead: lines, ReadsFromLLC: fromLLC, ReadsFromMem: fromMem})
	e.tel.readsLLC.Add(fromLLC)
	e.tel.readsMem.Add(fromMem)
	for i := uint64(0); i < fromMem; i++ {
		e.mc.Read(cache.LineSize)
	}
}

// lineSpan returns the first and last line addresses of the n > 0 bytes
// at a, and how many lines they span.
func lineSpan(a uint64, n int) (first, last, lines uint64) {
	first = a &^ (cache.LineSize - 1)
	last = (a + uint64(n) - 1) &^ (cache.LineSize - 1)
	return first, last, (last-first)/cache.LineSize + 1
}

// account adds a burst's counters to st and, when st is a port's, to the
// engine's global counters too.
func (e *Engine) account(st *Stats, d Stats) {
	st.add(d)
	if st != &e.stats {
		e.stats.add(d)
	}
}

// add accumulates o into s.
func (s *Stats) add(o Stats) {
	s.LinesWritten += o.LinesWritten
	s.WriteUpdates += o.WriteUpdates
	s.WriteAllocs += o.WriteAllocs
	s.LinesRead += o.LinesRead
	s.ReadsFromLLC += o.ReadsFromLLC
	s.ReadsFromMem += o.ReadsFromMem
	s.LinesBypassed += o.LinesBypassed
}

// Stats returns cumulative engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// engineTel mirrors the inbound/outbound decision counters into the
// telemetry plane. All-nil (zero value) when uninstrumented.
type engineTel struct {
	writeUpdates *telemetry.Counter // inbound line hit resident copy (write update)
	writeAllocs  *telemetry.Counter // inbound line allocated into the DDIO mask
	drops        *telemetry.Counter // inbound line steered to memory (DDIO off or bypass policy)
	readsLLC     *telemetry.Counter // outbound line served by the LLC
	readsMem     *telemetry.Counter // outbound line served by memory
}

// AttachTelemetry resolves the engine's counters from s (nil-safe).
func (e *Engine) AttachTelemetry(s telemetry.Sink) {
	if s == nil {
		return
	}
	e.tel = engineTel{
		writeUpdates: s.Counter("ddio", "", "write_updates"),
		writeAllocs:  s.Counter("ddio", "", "write_allocates"),
		drops:        s.Counter("ddio", "", "drops_to_mem"),
		readsLLC:     s.Counter("ddio", "", "reads_from_llc"),
		readsMem:     s.Counter("ddio", "", "reads_from_mem"),
	}
}
