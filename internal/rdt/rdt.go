// Package rdt is the pqos-like library of the reproduction: a thin,
// validated API over the MSR register file for Intel Resource Director
// Technology — Cache Allocation Technology (CAT), Cache Monitoring
// Technology (CMT)-style per-core counters, and the DDIO way-mask extension
// the paper's authors added to pqos (the "enhanced RDT library (pqos) with
// DDIO functionalities" released with the paper).
//
// Everything IAT knows about the machine flows through this package, which
// is why the daemon in internal/core would drive real silicon unchanged if
// this package were re-implemented with rdmsr/wrmsr.
package rdt

import (
	"fmt"

	"iatsim/internal/cache"
	"iatsim/internal/msr"
)

// CounterBits is the implemented width of the hardware event counters:
// cumulative values count modulo 2^CounterBits, as the 48-bit general
// counters on Skylake-SP do. Deltas between samples must therefore be
// taken modularly — a counter that wrapped between two polls would
// otherwise produce a huge bogus delta instead of the true small one.
const CounterBits = 48

// counterDelta is the wraparound-aware difference cur - prev modulo
// 2^CounterBits. For unwrapped counters it is plain subtraction.
func counterDelta(cur, prev uint64) uint64 {
	return (cur - prev) & ((uint64(1) << CounterBits) - 1)
}

// CoreCounters is one sample of the per-core hardware events the daemon
// polls (Sec. IV-B: IPC from instructions and cycles, plus LLC references
// and misses).
type CoreCounters struct {
	Instructions uint64
	Cycles       uint64
	LLCRefs      uint64
	LLCMisses    uint64
}

// Add accumulates o into c (used to aggregate multi-core tenants).
func (c *CoreCounters) Add(o CoreCounters) {
	c.Instructions += o.Instructions
	c.Cycles += o.Cycles
	c.LLCRefs += o.LLCRefs
	c.LLCMisses += o.LLCMisses
}

// Sub returns the delta c - o, modulo 2^CounterBits per event (see
// CounterBits: wrapped cumulative counters yield their true delta, not a
// huge two's-complement residue).
func (c CoreCounters) Sub(o CoreCounters) CoreCounters {
	return CoreCounters{
		Instructions: counterDelta(c.Instructions, o.Instructions),
		Cycles:       counterDelta(c.Cycles, o.Cycles),
		LLCRefs:      counterDelta(c.LLCRefs, o.LLCRefs),
		LLCMisses:    counterDelta(c.LLCMisses, o.LLCMisses),
	}
}

// IPC returns instructions per cycle for the sample, or 0 when no cycles
// elapsed.
func (c CoreCounters) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Instructions) / float64(c.Cycles)
}

// MissRate returns LLC misses per reference in [0,1], or 0 when there were
// no references.
func (c CoreCounters) MissRate() float64 {
	if c.LLCRefs == 0 {
		return 0
	}
	return float64(c.LLCMisses) / float64(c.LLCRefs)
}

// DDIOCounters is one sample of the chip-wide DDIO events, obtained by
// sampling one CHA and scaling by the slice count (Sec. V).
type DDIOCounters struct {
	Hits   uint64 // write updates
	Misses uint64 // write allocates
}

// Sub returns the delta d - o, modulo 2^CounterBits per event.
func (d DDIOCounters) Sub(o DDIOCounters) DDIOCounters {
	return DDIOCounters{
		Hits:   counterDelta(d.Hits, o.Hits),
		Misses: counterDelta(d.Misses, o.Misses),
	}
}

// Config sizes the controller.
type Config struct {
	Cores    int // logical cores under management
	Ways     int // LLC associativity (CBM width)
	NumCLOS  int // classes of service supported (16 on SKX)
	Slices   int // LLC slice count, for DDIO counter extrapolation
	MinWays  int // minimum CBM population (1 on real hardware)
	SampleSl int // which slice to sample for DDIO counters (default 0)
}

// Controller is the library handle.
type Controller struct {
	cfg Config
	f   *msr.File

	// Datapath memoization. The cache model resolves MaskForCore on every
	// fill and the MBA model resolves MBAThrottleForCore after every missing
	// microtick — each a two-register indirection through the register
	// file's mutex. Both resolutions are pure functions of register
	// contents, so they are cached per core and invalidated wholesale when
	// the file's generation moves (any wrmsr). Peek-based and therefore
	// invisible to the Ops accounting and the fault hook, exactly like the
	// hardware datapath the pre-memoized MBAThrottleForCore modelled.
	memoGen  uint64
	maskOK   []bool
	maskMemo []cache.WayMask
	mbaOK    []bool
	mbaMemo  []int

	// badMasks counts mask writes rejected for the mask's shape.
	badMasks uint64
}

// New builds a controller over the register file. It programs every CLOS to
// the full mask and associates every core with CLOS 0, matching the
// hardware's reset state.
func New(cfg Config, f *msr.File) (*Controller, error) {
	if cfg.Cores <= 0 || cfg.Ways <= 0 || cfg.Ways > 32 {
		return nil, fmt.Errorf("rdt: bad config %+v", cfg)
	}
	if cfg.NumCLOS == 0 {
		cfg.NumCLOS = 16
	}
	if cfg.MinWays == 0 {
		cfg.MinWays = 1
	}
	c := &Controller{
		cfg:      cfg,
		f:        f,
		maskOK:   make([]bool, cfg.Cores),
		maskMemo: make([]cache.WayMask, cfg.Cores),
		mbaOK:    make([]bool, cfg.Cores),
		mbaMemo:  make([]int, cfg.Cores),
	}
	full := cache.FullMask(cfg.Ways)
	for clos := 0; clos < cfg.NumCLOS; clos++ {
		if err := f.Write(msr.L3MaskAddr(clos), uint64(full)); err != nil {
			return nil, err
		}
	}
	for core := 0; core < cfg.Cores; core++ {
		if err := f.Write(msr.PQRAssocAddr(core), 0); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// NumWays returns the CBM width (LLC associativity).
func (c *Controller) NumWays() int { return c.cfg.Ways }

// SetCLOSMask programs the CAT capacity bitmask of a class of service. Real
// CAT rejects empty and non-contiguous masks; so do we.
func (c *Controller) SetCLOSMask(clos int, m cache.WayMask) error {
	if clos < 0 || clos >= c.cfg.NumCLOS {
		return fmt.Errorf("rdt: clos %d out of range [0,%d)", clos, c.cfg.NumCLOS)
	}
	if m.Count() < c.cfg.MinWays {
		c.badMasks++
		return fmt.Errorf("rdt: mask %v populates fewer than %d ways", m, c.cfg.MinWays)
	}
	if !m.Contiguous() {
		c.badMasks++
		return fmt.Errorf("rdt: mask %v is not contiguous", m)
	}
	if m.Highest() >= c.cfg.Ways {
		c.badMasks++
		return fmt.Errorf("rdt: mask %v exceeds %d ways", m, c.cfg.Ways)
	}
	return c.f.Write(msr.L3MaskAddr(clos), uint64(m))
}

// CLOSMask reads back the CAT mask of a class of service.
func (c *Controller) CLOSMask(clos int) cache.WayMask {
	return cache.WayMask(c.f.Read(msr.L3MaskAddr(clos)))
}

// Assoc associates a core with a class of service (IA32_PQR_ASSOC).
func (c *Controller) Assoc(core, clos int) error {
	if core < 0 || core >= c.cfg.Cores {
		return fmt.Errorf("rdt: core %d out of range [0,%d)", core, c.cfg.Cores)
	}
	if clos < 0 || clos >= c.cfg.NumCLOS {
		return fmt.Errorf("rdt: clos %d out of range [0,%d)", clos, c.cfg.NumCLOS)
	}
	return c.f.Write(msr.PQRAssocAddr(core), uint64(clos))
}

// CoreCLOS returns the class of service a core is associated with.
func (c *Controller) CoreCLOS(core int) int {
	return int(c.f.Read(msr.PQRAssocAddr(core)))
}

// refreshMemo drops every memoized datapath resolution when the register
// file has mutated since the memo was built.
func (c *Controller) refreshMemo() {
	g := c.f.Generation()
	if g == c.memoGen {
		return
	}
	c.memoGen = g
	for i := range c.maskOK {
		c.maskOK[i] = false
		c.mbaOK[i] = false
	}
}

// MaskForCore resolves the effective allocation mask of a core (its CLOS's
// CBM). The cache model consults this on every fill, so the resolution is
// memoized per core against the register file's generation; like the
// hardware datapath it does not charge management-plane MSR operations.
func (c *Controller) MaskForCore(core int) cache.WayMask {
	c.refreshMemo()
	if c.maskOK[core] {
		return c.maskMemo[core]
	}
	clos := int(c.f.Peek(msr.PQRAssocAddr(core)))
	m := cache.WayMask(c.f.Peek(msr.L3MaskAddr(clos)))
	c.maskMemo[core] = m
	c.maskOK[core] = true
	return m
}

// SetDDIOMask programs the IIO_LLC_WAYS register. The same contiguity rule
// applies (the register is a way bitmap like a CBM).
func (c *Controller) SetDDIOMask(m cache.WayMask) error {
	if m.Count() < 1 {
		c.badMasks++
		return fmt.Errorf("rdt: DDIO mask must populate at least one way")
	}
	if !m.Contiguous() {
		c.badMasks++
		return fmt.Errorf("rdt: DDIO mask %v is not contiguous", m)
	}
	if m.Highest() >= c.cfg.Ways {
		c.badMasks++
		return fmt.Errorf("rdt: DDIO mask %v exceeds %d ways", m, c.cfg.Ways)
	}
	return c.f.Write(msr.IIOLLCWays, uint64(m))
}

// BadMaskWrites returns how many SetCLOSMask and SetDDIOMask requests
// were rejected for the mask's shape: empty, not contiguous, or past the
// last way. No real CAT or DDIO register accepts such a mask. A request
// rejected for an out-of-range CLOS is not counted.
func (c *Controller) BadMaskWrites() uint64 { return c.badMasks }

// DDIOMask reads back the current DDIO way mask.
func (c *Controller) DDIOMask() cache.WayMask {
	return cache.WayMask(c.f.Read(msr.IIOLLCWays))
}

// SetMBAThrottle programs a CLOS's Memory Bandwidth Allocation delay value:
// the percentage (0-90, in steps of 10, as real MBA exposes) by which the
// class's memory request rate is throttled. 0 disables throttling.
func (c *Controller) SetMBAThrottle(clos, percent int) error {
	if clos < 0 || clos >= c.cfg.NumCLOS {
		return fmt.Errorf("rdt: clos %d out of range [0,%d)", clos, c.cfg.NumCLOS)
	}
	if percent < 0 || percent > 90 || percent%10 != 0 {
		return fmt.Errorf("rdt: MBA throttle %d%% invalid (0-90 in steps of 10)", percent)
	}
	return c.f.Write(msr.MBAThrtlAddr(clos), uint64(percent))
}

// MBAThrottle reads back a CLOS's MBA throttle percentage.
func (c *Controller) MBAThrottle(clos int) int {
	return int(c.f.Read(msr.MBAThrtlAddr(clos)))
}

// MBAThrottleForCore resolves the effective throttle of a core's CLOS
// without charging management-plane MSR operations (the hardware datapath
// consults it on every memory request). Memoized like MaskForCore.
func (c *Controller) MBAThrottleForCore(core int) int {
	c.refreshMemo()
	if c.mbaOK[core] {
		return c.mbaMemo[core]
	}
	clos := int(c.f.Peek(msr.PQRAssocAddr(core)))
	t := int(c.f.Peek(msr.MBAThrtlAddr(clos)))
	c.mbaMemo[core] = t
	c.mbaOK[core] = true
	return t
}

// ReadCore reads the four per-core event counters of one core (4 rdmsr
// operations, as the real daemon pays).
func (c *Controller) ReadCore(core int) CoreCounters {
	return CoreCounters{
		Instructions: c.f.Read(msr.CoreCounterAddr(core, msr.EvInstructions)),
		Cycles:       c.f.Read(msr.CoreCounterAddr(core, msr.EvCycles)),
		LLCRefs:      c.f.Read(msr.CoreCounterAddr(core, msr.EvLLCRefs)),
		LLCMisses:    c.f.Read(msr.CoreCounterAddr(core, msr.EvLLCMisses)),
	}
}

// ReadDDIO samples the DDIO hit/miss counters of one CHA and extrapolates
// to the whole chip by multiplying by the slice count, exactly as Sec. V
// describes ("by only accessing one LLC slice's performance counters, we
// can infer the full picture ... by multiplying it by the number of
// slices").
func (c *Controller) ReadDDIO() DDIOCounters {
	s := c.cfg.SampleSl
	n := uint64(c.cfg.Slices)
	if n == 0 {
		n = 1
	}
	return DDIOCounters{
		Hits:   c.f.Read(msr.CHACounterAddr(s, msr.EvDDIOHit)) * n,
		Misses: c.f.Read(msr.CHACounterAddr(s, msr.EvDDIOMiss)) * n,
	}
}
