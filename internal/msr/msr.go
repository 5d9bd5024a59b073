// Package msr emulates the model-specific-register interface the paper's
// daemon uses to talk to the hardware: the CAT capacity bitmask registers
// (IA32_L3_QOS_MASK_n), the per-core class-of-service association register
// (IA32_PQR_ASSOC), the Skylake-SP DDIO way register (IIO_LLC_WAYS), and
// memory-mapped uncore performance counters.
//
// Reads of counter registers are routed to handler callbacks registered by
// the platform, so the register file stays a pure register file while the
// counters live where the events happen (LLC slices, cores). The file also
// counts read/write operations: the paper's Fig. 15 shows that the daemon's
// cost is dominated by MSR accesses (each a ring-0 context switch on real
// hardware), so the counted operations drive our overhead model.
package msr

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Register addresses. The numeric values follow the real Intel layout where
// one exists; synthetic counters use a private 0xF000+ range.
const (
	// IA32PQRAssocBase + core is the per-core CLOS association register.
	// (Real hardware exposes one IA32_PQR_ASSOC per logical processor
	// selected by CPU affinity; we flatten that into an address range.)
	IA32PQRAssocBase uint32 = 0x0C8F_0000

	// IA32L3MaskBase + clos is the CAT capacity bitmask for a CLOS
	// (IA32_L3_QOS_MASK_n, real base 0xC90).
	IA32L3MaskBase uint32 = 0x0000_0C90

	// IIOLLCWays is the DDIO way-mask register (undocumented MSR 0xC8B on
	// Skylake-SP, the register the paper's enhanced pqos writes).
	IIOLLCWays uint32 = 0x0000_0C8B

	// IA32MBAThrtlBase + clos is the Memory Bandwidth Allocation
	// throttle register of a CLOS (IA32_L2_QoS_Ext_BW_Thrtl_n, real
	// base 0xD50). The paper's Sec. VI-C points to MBA as the remedy
	// for the residual memory-bandwidth interference IAT does not
	// address.
	IA32MBAThrtlBase uint32 = 0x0000_0D50

	// PerfCoreBase + core*16 + event addresses a per-core counter.
	PerfCoreBase uint32 = 0xF000_0000
	// PerfCHABase + slice*16 + event addresses a per-CHA (LLC slice)
	// uncore counter.
	PerfCHABase uint32 = 0xF100_0000
)

// Per-core counter event numbers (offsets under PerfCoreBase).
const (
	EvInstructions = 0 // INST_RETIRED.ANY
	EvCycles       = 1 // CPU_CLK_UNHALTED.THREAD
	EvLLCRefs      = 2 // LONGEST_LAT_CACHE.REFERENCE
	EvLLCMisses    = 3 // LONGEST_LAT_CACHE.MISS
)

// Per-CHA uncore event numbers (offsets under PerfCHABase).
const (
	EvDDIOHit  = 0 // inbound write update  (LLC_LOOKUP with IO filter, hit)
	EvDDIOMiss = 1 // inbound write allocate (miss)
)

// CoreCounterAddr returns the register address of a per-core counter.
func CoreCounterAddr(core, event int) uint32 {
	return PerfCoreBase + uint32(core)*16 + uint32(event)
}

// CHACounterAddr returns the register address of a per-slice uncore counter.
func CHACounterAddr(slice, event int) uint32 {
	return PerfCHABase + uint32(slice)*16 + uint32(event)
}

// PQRAssocAddr returns the association register address of a core.
func PQRAssocAddr(core int) uint32 { return IA32PQRAssocBase + uint32(core) }

// L3MaskAddr returns the CAT mask register address of a CLOS.
func L3MaskAddr(clos int) uint32 { return IA32L3MaskBase + uint32(clos) }

// MBAThrtlAddr returns the MBA throttle register address of a CLOS.
func MBAThrtlAddr(clos int) uint32 { return IA32MBAThrtlBase + uint32(clos) }

// ReadHandler supplies the value of a read-only (counter) register.
type ReadHandler func() uint64

// FaultHook intercepts counted register-file operations, the seam the
// chaos harness (internal/faults) uses to model misbehaving hardware.
// Peek bypasses the hook: the simulated datapath and diagnostics see the
// machine's true state — only the management plane's rdmsr/wrmsr view is
// perturbed, exactly as on real hardware where the registers themselves
// are fine and the *accesses* fail.
type FaultHook interface {
	// FilterWrite sees the register's current value and the value being
	// written; it returns the value to store, or a non-nil error to
	// reject the write (the register then keeps old).
	FilterWrite(addr uint32, old, v uint64) (uint64, error)
	// FilterRead may substitute the value served by a read.
	FilterRead(addr uint32, v uint64) uint64
}

// Ops counts register file operations, the basis of the control-plane
// overhead model (Fig. 15).
type Ops struct {
	Reads  uint64
	Writes uint64
}

// Sub returns o1 - o2 component-wise.
func (o Ops) Sub(p Ops) Ops { return Ops{Reads: o.Reads - p.Reads, Writes: o.Writes - p.Writes} }

// File is the register file. It is safe for concurrent use.
type File struct {
	mu       sync.Mutex
	regs     map[uint32]uint64
	handlers map[uint32]ReadHandler
	hook     FaultHook
	ops      Ops
	// gen is bumped under mu, after the mutation it counts, and read
	// without it: the datapath polls it every microtick.
	gen atomic.Uint64
}

// NewFile returns an empty register file.
func NewFile() *File {
	return &File{
		regs:     make(map[uint32]uint64),
		handlers: make(map[uint32]ReadHandler),
	}
}

// MapRead installs a handler supplying the value of a read-only register.
func (f *File) MapRead(addr uint32, h ReadHandler) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.handlers[addr] = h
	f.gen.Add(1)
}

// SetFaultHook installs (or, with nil, removes) the fault hook applied to
// subsequent Read and Write calls. Arm it only after the platform is
// assembled: construction-time programming is not part of the fault
// surface.
func (f *File) SetFaultHook(h FaultHook) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hook = h
}

// Read returns the value of a register (rdmsr).
func (f *File) Read(addr uint32) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops.Reads++
	var v uint64
	if h, ok := f.handlers[addr]; ok {
		v = h()
	} else {
		v = f.regs[addr]
	}
	if f.hook != nil {
		v = f.hook.FilterRead(addr, v)
	}
	return v
}

// Write sets the value of a register (wrmsr). Writing a handler-backed
// register is rejected, as counter registers are read-only in this model.
func (f *File) Write(addr uint32, v uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops.Writes++
	if _, ok := f.handlers[addr]; ok {
		return fmt.Errorf("msr: register %#x is read-only", addr)
	}
	if f.hook != nil {
		stored, err := f.hook.FilterWrite(addr, f.regs[addr], v)
		if err != nil {
			return err
		}
		v = stored
	}
	f.regs[addr] = v
	f.gen.Add(1)
	return nil
}

// Peek returns a register value without counting an operation; for tests
// and displays that should not perturb the overhead accounting.
func (f *File) Peek(addr uint32) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if h, ok := f.handlers[addr]; ok {
		return h()
	}
	return f.regs[addr]
}

// Ops returns the cumulative operation counters.
func (f *File) Ops() Ops {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Generation returns a counter that advances on every mutation of the
// file's contents (Write or MapRead). Datapath-side caches of register-
// derived state (the effective CAT mask of a core, the DDIO way mask) key
// their validity on it: an unchanged generation guarantees every register
// still Peeks the same value. It takes no lock: a caller that reads the
// generation and then Peeks sees at least the state that generation
// counts.
func (f *File) Generation() uint64 { return f.gen.Load() }
