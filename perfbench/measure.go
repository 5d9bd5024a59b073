package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// options select what measure runs.
type options struct {
	seed   int64
	window time.Duration
	traced bool
	// want is the recorded digest for the seed ("" when none is).
	want string
	// minIterations is the fewest iterations run per phase, whatever the
	// window.
	minIterations int
}

// sample is one iteration's measurement. setup and run are process CPU
// time (see cpuTime); runWall is the run's wall-clock time.
type sample struct {
	setup, run time.Duration
	runWall    time.Duration
	simUS      float64
	allocBytes uint64
	mallocs    uint64
	gcs        uint32
	digest     string
	err        error
}

// iterate assembles and runs one iteration of w; a panic, an error or a
// failed digest computation is reported in sample.err.
func iterate(w workload, seed int64, tr *tracer) (s sample) {
	defer func() {
		if r := recover(); r != nil {
			s.err = fmt.Errorf("panic: %v", r)
		}
	}()
	// Start every iteration from a collected heap with its free memory
	// returned to the kernel, as a fresh process starts: no iteration
	// pays for the last one's garbage or reuses its pages.
	debug.FreeOSMemory()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	inst, err := w.setup(seed, tr)
	if err != nil {
		s.err = err
		return s
	}
	s.setup = cpuTime() - c0
	if w.standIn {
		// Drop the stand-in's garbage, untimed, and count memory from here.
		debug.FreeOSMemory()
		runtime.ReadMemStats(&m0)
	}
	c1, w1 := cpuTime(), time.Now()
	if err := inst.run(); err != nil {
		s.err = err
		return s
	}
	c2, w2 := cpuTime(), time.Now()
	runtime.ReadMemStats(&m1)

	s.run, s.runWall = c2-c1, w2.Sub(w1)
	s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.mallocs = m1.Mallocs - m0.Mallocs
	s.gcs = m1.NumGC - m0.NumGC
	s.simUS = inst.simUS()
	if s.digest, s.err = inst.digest(); s.err == nil && tr != nil {
		inst.count(tr)
		tr.iterations++
	}
	return s
}

// loop iterates w until the window has passed, and at least
// o.minIterations times.
func loop(w workload, o options, window time.Duration, tr *tracer) []sample {
	var out []sample
	for start := time.Now(); len(out) < o.minIterations || time.Since(start) < window; {
		out = append(out, iterate(w, o.seed, tr))
	}
	return out
}

// measure runs w for the window and reports its metrics. A traced run
// spends the first half of the window untraced, the baseline for
// trace.overhead_frac, and the second half traced under a CPU profile.
func measure(w workload, o options) *report {
	r := &report{Workload: w.name, Seed: o.seed, Traced: o.traced, Recorded: o.want != "", Metrics: map[string]value{}}
	if !o.traced {
		samples := loop(w, o, o.window, nil)
		r.check(samples, o.want)
		r.endToEnd(samples)
		return r
	}

	plain := loop(w, o, o.window/2, nil)
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		r.Notes = append(r.Notes, "cpu profile: "+err.Error())
	}
	cpu0 := readCPUMetrics()
	samples := loop(w, o, o.window/2, tr)
	cpu1 := readCPUMetrics()
	pprof.StopCPUProfile()
	r.check(append(plain, samples...), o.want)

	p, err := parseProfile(prof.Bytes())
	if err != nil {
		r.Notes = append(r.Notes, err.Error())
		p = &cpuProfile{}
	}
	r.perLayer(plain, samples, tr, p, cpu1.sub(cpu0))
	return r
}

// check compares every iteration's digest with want or, for a seed
// without a recorded digest, with the first successful iteration's.
// Iterations that failed or disagree count as failed.
func (r *report) check(samples []sample, want string) {
	ref := want
	for _, s := range samples {
		if s.err == nil && r.Digest == "" {
			r.Digest = s.digest
		}
	}
	if ref == "" {
		ref = r.Digest
	}
	r.Attempted = len(samples)
	for i, s := range samples {
		switch {
		case s.err != nil:
			r.Failed++
			r.Notes = append(r.Notes, fmt.Sprintf("iteration %d: %v", i, s.err))
		case s.digest != ref:
			r.Failed++
			r.Notes = append(r.Notes, fmt.Sprintf("iteration %d: digest %s, want %s", i, s.digest, ref))
		}
	}
	r.Correct = r.Failed == 0
}

// median of f over the samples that completed.
func median(samples []sample, f func(sample) float64) float64 {
	var vs []float64
	for _, s := range samples {
		if s.err == nil {
			vs = append(vs, f(s))
		}
	}
	return percentile(vs, 0.5)
}

func (r *report) set(name string, v float64) {
	i := catalogueIndex(name)
	if i == len(catalogue) {
		panic("perfbench: metric not in the catalogue: " + name)
	}
	r.Metrics[name] = value{Value: v, Unit: catalogue[i].unit}
}

// endToEnd sets the untraced run's metrics: medians over iterations.
func (r *report) endToEnd(samples []sample) {
	r.set("setup_s", median(samples, func(s sample) float64 { return s.setup.Seconds() }))
	r.set("run_s", median(samples, func(s sample) float64 { return s.run.Seconds() }))
	r.set("sim_us_per_s", median(samples, func(s sample) float64 { return s.simUS / s.run.Seconds() }))
	r.set("alloc_mb", median(samples, func(s sample) float64 { return float64(s.allocBytes) / 1e6 }))
	r.set("mallocs_k", median(samples, func(s sample) float64 { return float64(s.mallocs) / 1e3 }))
	r.set("peak_rss_mb", peakRSSMB())
	r.Notes = append(r.Notes, fmt.Sprintf("run wall-clock median %.4f s", median(samples, func(s sample) float64 { return s.runWall.Seconds() })))
}

// perLayer sets the traced run's metrics from the tracer, the CPU
// profile of the traced iterations and the runtime's CPU accounting.
func (r *report) perLayer(plain, traced []sample, tr *tracer, p *cpuProfile, cpu cpuMetrics) {
	n := float64(max(tr.iterations, 1))
	perIter := func(name string) float64 { return tr.counts[name] / n }

	r.set("sim.steps", perIter("sim.steps"))
	r.set("sim.step_us_p50", percentile(tr.spans["sim.step_us"], 0.5))
	r.set("sim.step_us_p99", percentile(tr.spans["sim.step_us"], 0.99))
	// The share of Step time outside the tenant workers and the
	// controllers: ingress, DMA, transmit draining and the loop itself.
	step := named("sim.(*Platform).Step")
	workersOrControllers := func(fn string) bool {
		return inPackage("workload")(fn) || inPackage("core")(fn) || inPackage("policy")(fn) ||
			strings.HasPrefix(fn, "main.(*timed")
	}
	selfShare := 0.0
	if stepNS := p.cumNS(step); stepNS > 0 {
		selfShare = float64(p.cumNSExcept(step, workersOrControllers)) / float64(stepNS)
	}
	r.set("sim.self_share", selfShare)

	for _, t := range wrappedTenants {
		var calls, nsPer float64
		if c := tr.workers[t]; c != nil && c.calls > 0 {
			calls = float64(c.calls) / n
			nsPer = float64(c.ns) / float64(c.calls)
		}
		r.set("workload."+t+".calls", calls)
		r.set("workload."+t+".ns_per_call", nsPer)
	}

	for _, c := range []string{"l1_accesses", "l2_accesses", "llc_refs", "llc_misses", "ddio_hits", "ddio_misses"} {
		r.set("cache."+c, perIter("cache."+c))
	}
	// Host time of demand accesses through the hierarchy, per L1 access,
	// and against the micro-benchmark prediction.
	demandNS := float64(p.cumNS(named("cache.(*Hierarchy).Access")))
	l1, llcRefs := tr.counts["cache.l1_accesses"], tr.counts["cache.llc_refs"]
	nsPerL1, ratio := 0.0, 0.0
	if l1 > 0 {
		nsPerL1 = demandNS / l1
		if cost, err := loadOpCosts(); err != nil {
			r.Notes = append(r.Notes, "cache.model_ratio: "+err.Error())
		} else if pred := cost.predictNS(l1, llcRefs); pred > 0 {
			ratio = demandNS / pred
		}
	}
	r.set("cache.ns_per_l1_access", nsPerL1)
	r.set("cache.model_ratio", ratio)
	r.set("cache.private.share", p.share(func(fn string) bool { return strings.HasPrefix(fn, "iatsim/internal/cache.(*private).") }))
	r.set("cache.llc_demand.share", p.share(named("cache.(*LLC).Access")))
	r.set("cache.llc_io.share", p.share(named("cache.(*LLC).IOWrite", "cache.(*LLC).IORead")))

	for _, c := range []string{"nic.packets", "ddio.writes", "mem.bytes", "core.iterations", "ckpt.writes", "faults.injected"} {
		r.set(c, perIter(c))
	}
	r.set("core.tick_us_p50", percentile(tr.spans["core.tick_us"], 0.5))
	r.set("core.poll_us", percentile(tr.spans["core.poll_us"], 0.5))
	r.set("core.decide_us", percentile(tr.spans["core.decide_us"], 0.5))
	r.set("fleet.round_ms", percentile(tr.spans["fleet.round_ms"], 0.5))
	r.set("telemetry.merge_ms", percentile(tr.spans["telemetry.merge_ms"], 0.5))
	for _, m := range profiledModules {
		if orchestration[m] {
			r.set(m+".share", float64(p.cumNSExcept(inPackage(m), step))/float64(max(p.totalNS, 1)))
		} else {
			r.set(m+".share", p.share(inPackage(m)))
		}
	}

	r.set("runtime.gc_share", cpu.gcShare())
	r.set("runtime.gc_cycles", median(traced, func(s sample) float64 { return float64(s.gcs) }))
	base := median(plain, func(s sample) float64 { return s.run.Seconds() })
	overhead := 0.0
	if base > 0 {
		overhead = median(traced, func(s sample) float64 { return s.run.Seconds() })/base - 1
	}
	r.set("trace.overhead_frac", overhead)
}

// cpuTime is the CPU time the process has used, user plus system, over
// all its threads: the simulation's and the garbage collector's. The
// kernel does not count time its virtual CPU was stolen by the host, so
// on a shared machine this reads steadier than the wall clock; on an
// idle one, the two agree for this single-threaded simulator.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}

// cpuMetrics is the runtime's estimate of CPU time spent in the
// garbage collector and in Go code.
type cpuMetrics struct{ gc, user float64 }

func readCPUMetrics() cpuMetrics {
	ss := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/user:cpu-seconds"}}
	metrics.Read(ss)
	var c cpuMetrics
	if ss[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = ss[0].Value.Float64()
	}
	if ss[1].Value.Kind() == metrics.KindFloat64 {
		c.user = ss[1].Value.Float64()
	}
	return c
}

func (c cpuMetrics) sub(o cpuMetrics) cpuMetrics { return cpuMetrics{c.gc - o.gc, c.user - o.user} }

// gcShare is the collector's share of the CPU time the process used.
func (c cpuMetrics) gcShare() float64 {
	if c.gc+c.user <= 0 {
		return 0
	}
	return c.gc / (c.gc + c.user)
}
