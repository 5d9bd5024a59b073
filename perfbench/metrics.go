package main

// metricDef is one entry of the metric catalogue: the name printed, its
// unit and which direction is better. README.md and BENCHMARK.json list
// the same metrics; main_test.go keeps them in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the untraced run's metrics: what a user of the simulator
// waits for and pays in memory. failed_frac is printed in the summary
// table and carried by the result line's attempted/failed counts.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"sim_us_per_s", "us/s", "higher"},
	{"alloc_mb", "MB", "lower"},
	{"mallocs_k", "k", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// wrappedTenants are the tenants whose workers the traced run wraps in a
// timer: those of the Leaky DMA scenario, which every fleet host also
// runs. RunAppMix assembles its platform internally, so its tenants are
// out of reach.
var wrappedTenants = []string{"ovs", "container0", "container1"}

// profiledModules are the simulator packages whose cumulative share of
// the traced run's CPU profile is reported as <module>.share.
var profiledModules = []string{
	"workload", "nic", "ddio", "tgen", "pkt", "addr", "mem", "rdt", "msr",
	"policy", "fleet", "harness", "telemetry", "ckpt", "faults",
}

// orchestration marks the modules that drive whole platforms: every
// sample of a fleet run passes through them, so their share counts only
// the time outside Platform.Step, their own work.
var orchestration = map[string]bool{"fleet": true, "harness": true}

// perLayer are the traced run's metrics, in report order.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.steps", "count", "lower"},
		{"sim.step_us_p50", "us", "lower"},
		{"sim.step_us_p99", "us", "lower"},
		{"sim.self_share", "frac", "lower"},
	}
	for _, t := range wrappedTenants {
		defs = append(defs,
			metricDef{"workload." + t + ".calls", "count", "lower"},
			metricDef{"workload." + t + ".ns_per_call", "ns", "lower"})
	}
	defs = append(defs,
		metricDef{"cache.l1_accesses", "count", "lower"},
		metricDef{"cache.l2_accesses", "count", "lower"},
		metricDef{"cache.llc_refs", "count", "lower"},
		metricDef{"cache.llc_misses", "count", "lower"},
		metricDef{"cache.ddio_hits", "count", "higher"},
		metricDef{"cache.ddio_misses", "count", "lower"},
		metricDef{"cache.ns_per_l1_access", "ns", "lower"},
		metricDef{"cache.private.share", "frac", "lower"},
		metricDef{"cache.llc_demand.share", "frac", "lower"},
		metricDef{"cache.llc_io.share", "frac", "lower"},
		metricDef{"cache.model_ratio", "ratio", "lower"},
		metricDef{"nic.packets", "count", "higher"},
		metricDef{"ddio.writes", "count", "higher"},
		metricDef{"mem.bytes", "B", "lower"},
		metricDef{"core.iterations", "count", "lower"},
		metricDef{"core.tick_us_p50", "us", "lower"},
		metricDef{"core.poll_us", "us", "lower"},
		metricDef{"core.decide_us", "us", "lower"},
		metricDef{"fleet.round_ms", "ms", "lower"},
		metricDef{"telemetry.merge_ms", "ms", "lower"},
		metricDef{"ckpt.writes", "count", "lower"},
		metricDef{"faults.injected", "count", "lower"},
	)
	for _, m := range profiledModules {
		defs = append(defs, metricDef{m + ".share", "frac", "lower"})
	}
	return append(defs,
		metricDef{"runtime.gc_share", "frac", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"trace.overhead_frac", "frac", "lower"},
	)
}()

// catalogue is every metric: end-to-end first, then per-layer.
var catalogue = append(append([]metricDef(nil), endToEnd...), perLayer...)

// catalogueIndex is name's position in the catalogue, which orders the
// printed table.
func catalogueIndex(name string) int {
	for i, d := range catalogue {
		if d.name == name {
			return i
		}
	}
	return len(catalogue)
}
