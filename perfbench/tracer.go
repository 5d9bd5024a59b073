package main

import (
	"sort"
	"time"

	"iatsim/internal/core"
	"iatsim/internal/sim"
	"iatsim/internal/telemetry"
)

// tracer collects the traced run's per-layer numbers from timers the
// benchmark wraps around the simulator's public entry points: platform
// steps, tenant workers, the daemon's Tick, fleet rounds and the
// telemetry merge. Everything stays in memory until the run ends. The
// simulation is single-threaded, so the tracer needs no locking.
type tracer struct {
	iterations int                     // traced iterations counted
	counts     map[string]float64      // per-layer counts, summed over iterations
	spans      map[string][]float64    // timed spans by metric, in the metric's unit
	workers    map[string]*workerClock // by tenant name, summed over hosts
}

func newTracer() *tracer {
	return &tracer{
		counts:  map[string]float64{},
		spans:   map[string][]float64{},
		workers: map[string]*workerClock{},
	}
}

func (t *tracer) add(name string, v float64) { t.counts[name] += v }

func (t *tracer) span(name string, v float64) { t.spans[name] = append(t.spans[name], v) }

// time runs f and records its duration divided by unitNS.
func (t *tracer) time(name string, unitNS float64, f func()) {
	t0 := time.Now()
	f()
	t.span(name, float64(time.Since(t0))/unitNS)
}

// stepFor is Platform.Run(durNS) with every Step timed.
func (t *tracer) stepFor(p *sim.Platform, durNS float64) {
	end := p.NowNS() + durNS
	for p.NowNS() < end {
		t.time("sim.step_us", 1e3, p.Step)
	}
}

// countPlatform adds p's cumulative layer counters.
func (t *tracer) countPlatform(p *sim.Platform) {
	var l1, l2 uint64
	for c := 0; c < p.Cfg.Cores; c++ {
		h, m := p.Hier.L1Stats(c)
		l1 += h + m
		h, m = p.Hier.L2Stats(c)
		l2 += h + m
	}
	llc := p.Hier.LLC().TotalStats()
	var rx uint64
	for _, d := range p.Devices() {
		for v := 0; v < d.NumVFs(); v++ {
			rx += d.VF(v).Stats.RxPackets
		}
	}
	t.add("sim.steps", p.NowNS()/p.Cfg.EpochNS)
	t.add("cache.l1_accesses", float64(l1))
	t.add("cache.l2_accesses", float64(l2))
	t.add("cache.llc_refs", float64(llc.Lookups))
	t.add("cache.llc_misses", float64(llc.Misses))
	t.add("cache.ddio_hits", float64(llc.DDIOHits))
	t.add("cache.ddio_misses", float64(llc.DDIOMisses))
	t.add("nic.packets", float64(rx))
	t.add("ddio.writes", float64(p.DDIO.Stats().LinesWritten))
	t.add("mem.bytes", float64(p.Mem.Stats().Total()))
}

// workerClock accumulates one tenant's worker calls and host time.
type workerClock struct {
	calls uint64
	ns    time.Duration
}

// timedWorker times every Run of the worker it wraps.
type timedWorker struct {
	w sim.Worker
	c *workerClock
}

func (w *timedWorker) Run(ctx *sim.Ctx) {
	t0 := time.Now()
	w.w.Run(ctx)
	w.c.ns += time.Since(t0)
	w.c.calls++
}

// wrapWorkers replaces every worker of p's tenants with a timed wrapper.
func (t *tracer) wrapWorkers(p *sim.Platform) {
	for _, ten := range p.Tenants() {
		c := t.workers[ten.Name]
		if c == nil {
			c = &workerClock{}
			t.workers[ten.Name] = c
		}
		for k, w := range ten.Workers {
			ten.Workers[k] = &timedWorker{w: w, c: c}
		}
	}
}

// timedDaemon times every Tick that ran a daemon iteration (the others
// return at the interval gate) and records the daemon's own step timings.
type timedDaemon struct {
	d  *core.Daemon
	tr *tracer
}

func (t *tracer) daemon(d *core.Daemon) sim.Controller { return &timedDaemon{d: d, tr: t} }

func (c *timedDaemon) Tick(nowNS float64) {
	before, _ := c.d.Iterations()
	t0 := time.Now()
	c.d.Tick(nowNS)
	el := time.Since(t0)
	if after, _ := c.d.Iterations(); after != before {
		tm := c.d.Timings()
		c.tr.span("core.tick_us", float64(el)/1e3)
		c.tr.span("core.poll_us", float64(tm.Poll)/1e3)
		c.tr.span("core.decide_us", float64(tm.Transition+tm.Realloc)/1e3)
	}
}

// roundClock is the fleet controller's telemetry sink with a timer on
// the per-round row event, which fleet.Run emits as each round ends.
type roundClock struct {
	*telemetry.Registry
	tr   *tracer
	last time.Time
}

func (r *roundClock) start() { r.last = time.Now() }

func (r *roundClock) Emit(ev telemetry.Event) {
	if ev.Subsystem == "fleet" && ev.Name == "round" {
		now := time.Now()
		r.tr.span("fleet.round_ms", float64(now.Sub(r.last))/1e6)
		r.last = now
	}
	r.Registry.Emit(ev)
}

// percentile is the nearest-rank q-quantile (q in [0,1]) of vs, 0 when
// vs is empty; vs is sorted in place.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	i := int(q*float64(len(vs))+0.5) - 1
	return vs[min(max(i, 0), len(vs)-1)]
}
