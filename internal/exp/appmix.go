package exp

import (
	"fmt"
	"math/rand"
	"strings"

	"iatsim/internal/cache"
	"iatsim/internal/core"
	"iatsim/internal/nic"
	"iatsim/internal/pkt"
	"iatsim/internal/sim"
	"iatsim/internal/tgen"
	"iatsim/internal/workload"
	"iatsim/internal/ycsb"
)

// Placement names which of the three non-networking containers starts on
// the DDIO ways in the paper's "randomly shuffled" baseline (Sec. VI-C).
type Placement string

// Placements: the representative corners of the paper's random shuffles.
const (
	// PlaceNone leaves the DDIO ways free of tenants (the baseline's
	// best case).
	PlaceNone Placement = "none"
	// PlacePC puts the performance-critical app on the DDIO ways (worst
	// case for Fig. 12/13).
	PlacePC Placement = "pc"
	// PlaceBE1 puts the 1MB X-Mem there.
	PlaceBE1 Placement = "be1"
	// PlaceBE10 puts the cache-hungry 10MB X-Mem there (worst case for
	// the networking side, Fig. 14).
	PlaceBE10 Placement = "be10"
)

// Placements lists all four corners.
func Placements() []Placement { return []Placement{PlaceNone, PlacePC, PlaceBE1, PlaceBE10} }

// AppMixOpts describes one application-study co-run (the scenario of
// Figs. 12-14).
type AppMixOpts struct {
	Scale float64
	// Net is "redis" (aggregation model, YCSB over the NICs) or
	// "fastclick" (slicing model, 4 NF-chain containers).
	Net string
	// App is the PC non-networking app: a SPEC profile name ("mcf", …)
	// or "rocksdb:A".."rocksdb:F".
	App string
	// Solo drops the networking tenants and the BE X-Mems (solo run).
	Solo bool
	// NetOnly drops the non-networking tenants (networking solo run).
	NetOnly    bool
	Placement  Placement
	IAT        bool
	IntervalNS float64
	// TargetInstr / TargetOps bound the PC app's run (execution-time
	// metric). Zero selects calibrated defaults.
	TargetInstr uint64
	TargetOps   uint64
	// RedisRatePPS is the offered YCSB request rate per NIC (scaled
	// world x Scale); zero selects the calibrated default.
	RedisRatePPS float64
	// RedisWorkload is the YCSB mix driving Redis (default C).
	RedisWorkload string
	// MaxNS caps the co-run length.
	MaxNS float64
	// Seed offsets every RNG seed in the scenario (0 = the canonical
	// seeds).
	Seed int64
}

// AppMixResult carries every metric the three figures need.
type AppMixResult struct {
	// ExecNS is the PC app's execution time (simulated ns), 0 if it did
	// not finish within MaxNS.
	ExecNS float64
	// RocksHists are the per-op latency histograms when App is rocksdb.
	RocksHists map[ycsb.Op]*ycsb.Histogram
	// RedisOpsPS is the aggregate achieved Redis throughput (ops/s,
	// unscaled), with mean and p99 latency in simulated ns.
	RedisOpsPS  float64
	RedisMeanNS float64
	RedisP99NS  float64
	// NF metrics for the fastclick mix: delivered packets/s (unscaled),
	// max latency and mean jitter (ns).
	NFPPS      float64
	NFMaxLatNS float64
	NFJitterNS float64
}

// appMix is the assembled scenario.
type appMix struct {
	p      *sim.Platform
	spec   *workload.Spec
	rocks  *workload.RocksDB
	kvs    []*workload.KVS
	nfs    []*workload.NFChain
	pcCore int
}

const (
	mixCLOSNet = 1 // OVS+Redis or the four NF chains
	mixCLOSPC  = 2
	mixCLOSBE1 = 3
	mixCLOSBE2 = 4
)

// slotMask returns the 2-way mask of non-networking slot i (0..3); slot 3
// is the DDIO pair.
func slotMask(ways, i int) cache.WayMask {
	return cache.ContiguousMask(3+2*i, 2)
}

// buildAppMix assembles the platform for o.
func buildAppMix(o AppMixOpts) *appMix {
	if o.Scale == 0 {
		o.Scale = 100
	}
	p := sim.NewPlatform(sim.XeonGold6140(o.Scale))
	m := &appMix{p: p}
	ways := p.Cfg.Hier.LLC.Ways

	// --- Networking side ---
	if !o.Solo {
		switch o.Net {
		case "fastclick":
			buildFastClick(m, o)
		default:
			buildRedis(m, o)
		}
	}

	// --- Non-networking side ---
	if !o.NetOnly {
		slots := placementSlots(o.Placement)
		mustMask(p, mixCLOSPC, slotMask(ways, slots[0]))
		mustMask(p, mixCLOSBE1, slotMask(ways, slots[1]))
		mustMask(p, mixCLOSBE2, slotMask(ways, slots[2]))

		var pcWorker sim.Worker
		if strings.HasPrefix(o.App, "rocksdb") {
			wl := "C"
			if i := strings.IndexByte(o.App, ':'); i >= 0 {
				wl = o.App[i+1:]
			}
			w, err := ycsb.WorkloadByName(wl)
			if err != nil {
				panic(err)
			}
			// The real target is armed after warmup (RunAppMix), so
			// the measured window starts once the controller has
			// converged.
			m.rocks = workload.NewRocksDB(workload.DefaultRocksDBConfig(), w, 0, p.Alloc, 31+o.Seed)
			pcWorker = m.rocks
		} else {
			prof, err := workload.SpecProfileByName(o.App)
			if err != nil {
				panic(err)
			}
			m.spec = workload.NewSpec(prof, p.Alloc, 0, 37+o.Seed)
			pcWorker = m.spec
		}
		m.pcCore = 6
		mustTenant(p, &sim.Tenant{
			Name: "pc-app", Cores: []int{6}, CLOS: mixCLOSPC,
			Priority: sim.PerformanceCritical,
			Workers:  []sim.Worker{pcWorker},
		})
		if !o.Solo {
			be1 := workload.NewXMem(p.Alloc, 1<<20, 1<<20, 41+o.Seed)
			be2 := workload.NewXMem(p.Alloc, 10<<20, 10<<20, 43+o.Seed)
			mustTenant(p, &sim.Tenant{
				Name: "be-xmem-1m", Cores: []int{7}, CLOS: mixCLOSBE1,
				Priority: sim.BestEffort, Workers: []sim.Worker{be1},
			})
			mustTenant(p, &sim.Tenant{
				Name: "be-xmem-10m", Cores: []int{8}, CLOS: mixCLOSBE2,
				Priority: sim.BestEffort, Workers: []sim.Worker{be2},
			})
		}
	}

	if o.IAT {
		// Sec. VI-C: tenant way adjustment disabled; DDIO sizing and
		// shuffling active.
		daemon := iatDaemon(o.Scale, o.IntervalNS)
		daemon.opts.DisableTenantAdjust = true
		d := attachDaemon(p, daemon, nil)
		if DebugAppMixTrace != nil {
			d.OnIteration = DebugAppMixTrace
		}
	}
	return m
}

// placementSlots maps a Placement to the slots of (PC, BE1, BE10).
func placementSlots(pl Placement) [3]int {
	switch pl {
	case PlacePC:
		return [3]int{3, 0, 1}
	case PlaceBE1:
		return [3]int{0, 3, 1}
	case PlaceBE10:
		return [3]int{0, 1, 3}
	default: // PlaceNone
		return [3]int{0, 1, 2}
	}
}

// buildRedis attaches the aggregation-model networking side: OVS on cores
// 0-1 and two 2-core Redis containers, all sharing three LLC ways, driven
// by YCSB request traffic from both NICs.
func buildRedis(m *appMix, o AppMixOpts) {
	p := m.p
	mustMask(p, mixCLOSNet, cache.ContiguousMask(0, 3))
	ovs := workload.NewOVS(64, p.Alloc)
	for i := 0; i < 2; i++ {
		dev := p.AddDevice(nic.Config{Name: devName(i), VFs: 1})
		vf := dev.VF(0)
		vf.ConsumerCore = i
		port := nic.NewVirtioPort(portName(i), 1024, p.Alloc)
		ovs.NICPorts = append(ovs.NICPorts, vf)
		ovs.VirtioPorts = append(ovs.VirtioPorts, port)

		kcfg := workload.DefaultKVSConfig()
		kvs := workload.NewKVS(port, kcfg, p.Alloc)
		kvs2 := workload.NewKVS(port, kcfg, p.Alloc) // second thread, same port
		kvs2.Burst = kvs.Burst
		m.kvs = append(m.kvs, kvs, kvs2)
		mustTenant(p, &sim.Tenant{
			Name: fmt.Sprintf("redis%d", i), Cores: []int{2 + 2*i, 3 + 2*i}, CLOS: mixCLOSNet,
			Priority: sim.PerformanceCritical, IsIO: true,
			Workers: []sim.Worker{kvs, kvs2},
		})

		wl := o.RedisWorkload
		if wl == "" {
			wl = "A" // the YCSB default mix: updates keep DDIO busy
		}
		w, err := ycsb.WorkloadByName(wl)
		if err != nil {
			panic(err)
		}
		gen := ycsb.NewGenerator(w, workload.DefaultKVSConfig().Records, int64(61+i)+o.Seed)
		flows := pkt.NewFlowSet(8, uint16(i), uint64(71+i)+uint64(o.Seed)) // 8 client threads
		rate := o.RedisRatePPS
		if rate == 0 {
			rate = 8e6 // injection cap; the closed-loop window sets the load
		}
		g := tgen.NewGenerator(p.GeneratorRate(rate), 128, flows, int64(81+i)+o.Seed)
		// YCSB clients are closed-loop with enough outstanding requests (8
		// threads x a deep pipeline per generator machine, Sec. VI-C) to
		// keep the serving pipeline at capacity, so latency degradation
		// translates directly into throughput degradation, as in the paper.
		g.Window = 64
		dev.OnTx = func(int, nic.Entry) { g.Complete() }
		g.NewApp = func(_ *rand.Rand) ycsb.Request { return gen.Next() }
		// Writes carry their 1KB value inbound; reads are small gets.
		g.SizeFor = func(r ycsb.Request) int {
			switch r.Op {
			case ycsb.Update, ycsb.Insert, ycsb.ReadModifyWrite:
				return 1088
			}
			return 128
		}
		p.AttachGenerator(g, dev, 0)
	}
	ovs.RouteNIC = func(i int, _ pkt.Flow) int { return i }
	ovs.RouteVirtio = func(i int, _ pkt.Flow) int { return i }
	mustTenant(p, &sim.Tenant{
		Name: "ovs", Cores: []int{0, 1}, CLOS: mixCLOSNet, Priority: sim.Stack, IsIO: true,
		Workers: []sim.Worker{ovs.Worker([]int{0}, []int{0}), ovs.Worker([]int{1}, []int{1})},
	})
}

// buildFastClick attaches the slicing-model networking side: two NICs with
// two VLAN VFs each, four single-core NF-chain containers sharing three
// ways, 1.5KB traffic at 20Gbps per VLAN.
func buildFastClick(m *appMix, o AppMixOpts) {
	p := m.p
	mustMask(p, mixCLOSNet, cache.ContiguousMask(0, 3))
	const flows = 4096
	for i := 0; i < 2; i++ {
		dev := p.AddDevice(nic.Config{Name: devName(i), VFs: 2})
		for v := 0; v < 2; v++ {
			idx := 2*i + v
			vf := dev.VF(v)
			vf.ConsumerCore = idx
			vf.VLAN = uint16(idx)
			nf := workload.NewNFChain(vf, flows, p.Alloc)
			m.nfs = append(m.nfs, nf)
			mustTenant(p, &sim.Tenant{
				Name: fmt.Sprintf("nf%d", idx), Cores: []int{idx}, CLOS: mixCLOSNet,
				Priority: sim.PerformanceCritical, IsIO: true,
				Workers: []sim.Worker{nf},
			})
			fs := pkt.NewFlowSet(flows, uint16(idx), uint64(90+idx)+uint64(o.Seed))
			g := tgen.NewGenerator(p.GeneratorRate(tgen.LineRatePPS(20, 1500)), 1500, fs, int64(95+idx)+o.Seed)
			p.AttachGenerator(g, dev, v)
		}
	}
}

// RunAppMix executes one co-run and collects all metrics.
func RunAppMix(o AppMixOpts) AppMixResult {
	m := buildAppMix(o)
	p := m.p
	if o.MaxNS == 0 {
		o.MaxNS = 14e9
	}
	// Warm long enough for caches to fill and the controller to converge,
	// then arm the PC app's completion target so the measured execution
	// window is steady-state.
	warm := 1.5e9
	p.Run(warm)
	if m.spec != nil {
		target := o.TargetInstr
		if target == 0 || target >= 1<<62 {
			target = 10_000_000
		}
		if o.TargetInstr >= 1<<62 {
			m.spec.TargetInstr = 1 << 62 // run forever (Fig. 14 windows)
		} else {
			m.spec.TargetInstr = m.spec.Retired() + target
		}
	}
	if m.rocks != nil {
		target := o.TargetOps
		if target == 0 {
			target = 60000
		}
		m.rocks.TargetOps = m.rocks.Stats().Ops + target
	}

	// Measurement baselines after warmup.
	var kvsA []workload.OpStats
	for _, k := range m.kvs {
		k.Hist().Reset()
		kvsA = append(kvsA, k.Stats())
	}
	var nfA []workload.OpStats
	for _, nf := range m.nfs {
		nf.Hist().Reset()
		nfA = append(nfA, nf.Stats())
	}
	if m.rocks != nil {
		for _, h := range m.rocks.Hists() {
			h.Reset()
		}
	}
	start := p.NowNS()

	appDone := func() bool {
		switch {
		case m.spec != nil:
			return m.spec.Done()
		case m.rocks != nil:
			return m.rocks.Done()
		}
		return false
	}
	for !appDone() && p.NowNS()-start < o.MaxNS {
		p.Run(100e6)
	}
	end := p.NowNS()

	res := AppMixResult{}
	switch {
	case m.spec != nil && m.spec.Done():
		res.ExecNS = m.spec.FinishNS() - start
	case m.rocks != nil && m.rocks.Done():
		res.ExecNS = m.rocks.FinishNS() - start
	}
	if m.rocks != nil {
		res.RocksHists = m.rocks.Hists()
	}
	if len(m.kvs) > 0 {
		var ops uint64
		hist := &ycsb.Histogram{}
		for i, k := range m.kvs {
			ops += k.Stats().Sub(kvsA[i]).Ops
			hist.Merge(k.Hist())
		}
		dur := (end - start) / 1e9
		res.RedisOpsPS = float64(ops) / dur * o.scaleOr100()
		res.RedisMeanNS = hist.Mean()
		res.RedisP99NS = hist.Percentile(99)
	}
	if len(m.nfs) > 0 {
		var ops uint64
		var jitter float64
		var maxLat float64
		for i, nf := range m.nfs {
			ops += nf.Stats().Sub(nfA[i]).Ops
			jitter += nf.Jitter()
			if mx := nf.Hist().Max(); mx > maxLat {
				maxLat = mx
			}
		}
		dur := (end - start) / 1e9
		res.NFPPS = float64(ops) / dur * o.scaleOr100()
		res.NFMaxLatNS = maxLat
		res.NFJitterNS = jitter / float64(maxUint64(ops, 1))
	}
	return res
}

func (o AppMixOpts) scaleOr100() float64 {
	if o.Scale == 0 {
		return 100
	}
	return o.Scale
}

func maxUint64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// DebugAppMixTrace, when set, receives every IAT iteration of app-mix runs
// (diagnostics).
var DebugAppMixTrace func(core.IterationInfo)
