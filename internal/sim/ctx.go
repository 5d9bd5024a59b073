package sim

import "iatsim/internal/cache"

// Ctx is the execution context handed to a Worker for one microtick on one
// core. It charges every memory access and every instruction against the
// core's cycle budget and accumulates the per-core counters (instructions,
// cycles) that back the emulated performance-counter MSRs.
type Ctx struct {
	p      *Platform
	core   int
	mask   cache.WayMask
	budget int64
	spent  int64
	nowNS  float64
}

// Core returns the core this context executes on.
func (c *Ctx) Core() int { return c.core }

// NowNS returns the simulated time at the start of the microtick.
func (c *Ctx) NowNS() float64 { return c.nowNS }

// Remaining returns the unconsumed cycle budget. It can go slightly
// negative when the last operation overshoots; the engine carries the debt
// into the next microtick.
func (c *Ctx) Remaining() int64 { return c.budget - c.spent }

// Access performs a demand load or store of the line holding address a,
// charging its latency and retiring one instruction. It returns the latency
// in core cycles (workloads use it to build latency histograms).
func (c *Ctx) Access(a uint64, write bool) int64 {
	lat := c.p.Hier.Access(c.core, a, write, c.mask)
	c.spent += lat
	c.p.instr[c.core]++
	return lat
}

// StreamMLP is the memory-level parallelism of streaming (sequential)
// accesses: hardware prefetchers and out-of-order execution overlap
// consecutive line transfers, so a bulk copy pays roughly 1/StreamMLP of
// the serialised latency. Dependent accesses (pointer chases) use Access
// directly and pay full latency.
const StreamMLP = 4

// AccessRange touches every line of [a, a+n) sequentially — a streaming
// read (write=false) or write (write=true), e.g. a packet copy or a value
// read. Cache state is updated per line, but the charged latency is divided
// by StreamMLP to model prefetch/out-of-order overlap. Returns the charged
// cycles.
func (c *Ctx) AccessRange(a uint64, n int, write bool) int64 {
	if n <= 0 {
		return 0
	}
	first := a &^ (cache.LineSize - 1)
	last := (a + uint64(n) - 1) &^ (cache.LineSize - 1)
	tot := c.p.Hier.AccessRange(c.core, first, last, write, c.mask)
	c.p.instr[c.core] += (last-first)/cache.LineSize + 1
	charged := tot / StreamMLP
	if charged < 1 {
		charged = 1
	}
	c.spent += charged
	return charged
}

// AccessPipelined performs a demand access whose miss latency overlaps
// with neighbouring independent work — the software-prefetch-across-burst
// pattern of DPDK applications (l3fwd issues the flow-table prefetch for
// packet i+k while processing packet i). The cache state is updated as for
// Access, but only 1/StreamMLP of the latency is charged.
func (c *Ctx) AccessPipelined(a uint64, write bool) int64 {
	lat := c.p.Hier.Access(c.core, a, write, c.mask)
	c.p.instr[c.core]++
	charged := lat / StreamMLP
	if charged < 1 {
		charged = 1
	}
	c.spent += charged
	return charged
}

// Compute retires n non-memory instructions at the platform's base CPI.
func (c *Ctx) Compute(n int64) {
	if n <= 0 {
		return
	}
	c.spent += int64(float64(n) * c.p.Cfg.BaseCPI)
	c.p.instr[c.core] += uint64(n)
}

// Stall burns cycles without retiring instructions (e.g. a pause-loop in a
// rate-limited poller).
func (c *Ctx) Stall(cycles int64) {
	if cycles > 0 {
		c.spent += cycles
	}
}

// CyclesNS converts core cycles to nanoseconds of core time (at the
// unscaled clock), for workload latency metrics.
func (c *Ctx) CyclesNS(cycles int64) float64 {
	return float64(cycles) / c.p.Cfg.FreqGHz
}

// Platform exposes the platform for workloads that need shared structures
// (queues, devices). Workloads must not advance time themselves.
func (c *Ctx) Platform() *Platform { return c.p }
