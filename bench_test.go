// Package iatsim_test hosts the benchmark harness that regenerates every
// table and figure of the paper's evaluation (see DESIGN.md for the
// experiment index). Each BenchmarkFigNN runs a reduced-sweep version of
// the corresponding experiment and reports the figure's headline quantities
// via b.ReportMetric; cmd/experiments runs the full sweeps.
//
//	go test -bench=. -benchmem
package iatsim_test

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"

	"iatsim/internal/bridge"
	"iatsim/internal/cache"
	"iatsim/internal/core"
	"iatsim/internal/exp"
	"iatsim/internal/fleet"
	"iatsim/internal/mem"
	"iatsim/internal/pkt"
	"iatsim/internal/policy"
	"iatsim/internal/rdt"
	"iatsim/internal/sim"
	"iatsim/internal/telemetry"
	"iatsim/internal/tgen"
	"iatsim/internal/ycsb"
)

// TestMain pins the experiment harness to one worker: each BenchmarkFigNN
// times a whole sweep, and a machine-dependent worker count would make
// the numbers incomparable across hosts. (Rows are identical at any
// worker count; this is only about stable timings.)
func TestMain(m *testing.M) {
	exp.SetExec(exp.Exec{Jobs: 1})
	os.Exit(m.Run())
}

// BenchmarkTable1PlatformStep measures the raw simulation engine: one epoch
// of the Table I machine (18 cores, 24.75MB LLC, idle tenants).
func BenchmarkTable1PlatformStep(b *testing.B) {
	p := sim.NewPlatform(sim.XeonGold6140(100))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

// BenchmarkTable2DaemonIteration measures one IAT control iteration (poll +
// transition + re-alloc) with the Table II parameters over a quiet 8-tenant
// machine — the per-interval cost the paper bounds at 800us.
func BenchmarkTable2DaemonIteration(b *testing.B) {
	o := exp.DefaultFig15Opts()
	o.TenantCounts = []int{8}
	o.CoresPer = []int{2}
	o.Iterations = 20
	var rows []exp.Fig15Row
	for i := 0; i < b.N; i++ {
		rows = exp.RunFig15(io.Discard, o)
	}
	b.ReportMetric(rows[0].StableUS, "stable-us/iter")
	b.ReportMetric(rows[0].UnstableUS, "unstable-us/iter")
}

// BenchmarkFig03LeakyDMAMotivation regenerates one Fig. 3 contrast: the
// RFC2544 zero-drop rate of 64B l3fwd with a deep vs shallow Rx ring.
func BenchmarkFig03LeakyDMAMotivation(b *testing.B) {
	o := exp.DefaultFig3Opts()
	o.Rings = []int{64, 1024}
	o.Sizes = []int{64}
	var rows []exp.Fig3Row
	for i := 0; i < b.N; i++ {
		rows = exp.RunFig3(io.Discard, o)
	}
	b.ReportMetric(rows[0].MaxMpps, "Mpps-ring64")
	b.ReportMetric(rows[1].MaxMpps, "Mpps-ring1024")
}

// BenchmarkFig04LatentContenderMotivation regenerates one Fig. 4 contrast:
// X-Mem throughput with dedicated vs DDIO-overlapped ways at a 4MB working
// set.
func BenchmarkFig04LatentContenderMotivation(b *testing.B) {
	o := exp.DefaultFig4Opts()
	o.WorkingSets = []int{4}
	var rows []exp.Fig4Row
	for i := 0; i < b.N; i++ {
		rows = exp.RunFig4(io.Discard, o)
	}
	b.ReportMetric(rows[0].MopsPerSec, "Mops-dedicated")
	b.ReportMetric(rows[1].MopsPerSec, "Mops-ddio-ovlp")
	b.ReportMetric(rows[1].AvgLatencyNS/rows[0].AvgLatencyNS, "latency-ratio")
}

// BenchmarkFig08LeakyDMA regenerates the Fig. 8 headline at 1.5KB: DDIO
// miss rate and memory bandwidth, baseline vs IAT.
func BenchmarkFig08LeakyDMA(b *testing.B) {
	o := exp.DefaultFig8Opts()
	o.Sizes = []int{1500}
	var rows []exp.Fig8Row
	for i := 0; i < b.N; i++ {
		rows = exp.RunFig8(io.Discard, o)
	}
	base, iat := rows[0], rows[1]
	b.ReportMetric(base.DDIOMissPS, "ddio-miss/s-base")
	b.ReportMetric(iat.DDIOMissPS, "ddio-miss/s-iat")
	b.ReportMetric(base.MemGBps, "memGBps-base")
	b.ReportMetric(iat.MemGBps, "memGBps-iat")
}

// BenchmarkFig09FlowScaling regenerates the Fig. 9 headline: OVS IPC at
// 100k flows, baseline vs IAT.
func BenchmarkFig09FlowScaling(b *testing.B) {
	o := exp.DefaultFig9Opts()
	o.FlowSteps = []int{1, 100000}
	var rows []exp.Fig9Row
	for i := 0; i < b.N; i++ {
		rows = exp.RunFig9(io.Discard, o)
	}
	var baseIPC, iatIPC float64
	var ways int
	for _, r := range rows {
		if r.Flows != 100000 {
			continue
		}
		if r.Mode == "baseline" {
			baseIPC = r.OVSIPC
		} else {
			iatIPC, ways = r.OVSIPC, r.OVSWays
		}
	}
	b.ReportMetric(baseIPC, "ipc-base")
	b.ReportMetric(iatIPC, "ipc-iat")
	b.ReportMetric(float64(ways), "ovs-ways-iat")
}

// BenchmarkFig10LatentContender regenerates the Fig. 10 headline at 1.5KB:
// container 4's phase-3 throughput under baseline, core-only and IAT.
func BenchmarkFig10LatentContender(b *testing.B) {
	o := exp.DefaultFig10Opts()
	o.Sizes = []int{1500}
	o.Phase1NS, o.Phase2NS, o.Phase3NS = 1e9, 3e9, 3e9
	var rows []exp.Fig10Row
	for i := 0; i < b.N; i++ {
		rows = exp.RunFig10(io.Discard, o)
	}
	for _, r := range rows {
		switch r.Mode {
		case "baseline":
			b.ReportMetric(r.P3Mops, "P3-Mops-base")
		case "core-only":
			b.ReportMetric(r.P3Mops, "P3-Mops-coreonly")
		case "iat":
			b.ReportMetric(r.P3Mops, "P3-Mops-iat")
		}
	}
}

// BenchmarkFig11Dynamics regenerates the Fig. 11 time series and reports
// how quickly IAT reacts to the working-set phase change.
func BenchmarkFig11Dynamics(b *testing.B) {
	o := exp.DefaultFig10Opts()
	o.Phase1NS, o.Phase2NS, o.Phase3NS = 1e9, 2e9, 2e9
	var series []exp.Fig11Sample
	for i := 0; i < b.N; i++ {
		series = exp.RunFig11(io.Discard, o)
	}
	// Reaction time: first allocation change after the t=Phase1 event.
	react := 0.0
	for _, s := range series {
		if s.TimeNS > o.Phase1NS && s.C4Ways != series[0].C4Ways {
			react = (s.TimeNS - o.Phase1NS) / 1e9
			break
		}
	}
	b.ReportMetric(react, "reaction-s")
	b.ReportMetric(float64(len(series)), "samples")
}

// BenchmarkFig12Applications regenerates one Fig. 12 cell: RocksDB
// execution time co-running with Redis, worst placement, baseline vs IAT,
// normalised to solo.
func BenchmarkFig12Applications(b *testing.B) {
	var soloNS, baseNS, iatNS float64
	for i := 0; i < b.N; i++ {
		opts := exp.AppMixOpts{Net: "redis", App: "rocksdb:C", TargetOps: 30000}
		s := opts
		s.Solo = true
		soloNS = exp.RunAppMix(s).ExecNS
		w := opts
		w.Placement = exp.PlacePC
		baseNS = exp.RunAppMix(w).ExecNS
		x := w
		x.IAT = true
		x.IntervalNS = 0.25e9
		iatNS = exp.RunAppMix(x).ExecNS
	}
	b.ReportMetric(baseNS/soloNS, "norm-exec-base")
	b.ReportMetric(iatNS/soloNS, "norm-exec-iat")
}

// BenchmarkFig13RocksDBLatency regenerates one Fig. 13 cell: RocksDB
// YCSB-A normalised weighted latency under the worst placement vs IAT.
func BenchmarkFig13RocksDBLatency(b *testing.B) {
	var base, iat float64
	for i := 0; i < b.N; i++ {
		opts := exp.AppMixOpts{Net: "redis", App: "rocksdb:A", TargetOps: 30000}
		s := opts
		s.Solo = true
		solo := exp.RunAppMix(s)
		w := opts
		w.Placement = exp.PlacePC
		base = exp.WeightedLatency(exp.RunAppMix(w).RocksHists, solo.RocksHists)
		x := w
		x.IAT = true
		x.IntervalNS = 0.25e9
		iat = exp.WeightedLatency(exp.RunAppMix(x).RocksHists, solo.RocksHists)
	}
	b.ReportMetric(base, "norm-wlat-base")
	b.ReportMetric(iat, "norm-wlat-iat")
}

// BenchmarkFig14Redis regenerates one Fig. 14 cell: Redis YCSB-A mean
// latency under co-location (cache-hungry BE on the DDIO ways) vs IAT,
// normalised to the networking-solo run.
func BenchmarkFig14Redis(b *testing.B) {
	var baseAvg, iatAvg float64
	for i := 0; i < b.N; i++ {
		opts := exp.AppMixOpts{Net: "redis", App: "mcf", RedisWorkload: "A",
			TargetInstr: 1 << 62, MaxNS: 2.5e9}
		s := opts
		s.NetOnly = true
		solo := exp.RunAppMix(s)
		w := opts
		w.Placement = exp.PlaceBE10
		baseAvg = exp.RunAppMix(w).RedisMeanNS / solo.RedisMeanNS
		x := w
		x.IAT = true
		x.IntervalNS = 0.25e9
		iatAvg = exp.RunAppMix(x).RedisMeanNS / solo.RedisMeanNS
	}
	b.ReportMetric(baseAvg, "norm-avg-base")
	b.ReportMetric(iatAvg, "norm-avg-iat")
}

// BenchmarkFig15IATOverhead regenerates Fig. 15's scaling point: the
// daemon's per-iteration wall-clock cost at 17 single-core tenants.
func BenchmarkFig15IATOverhead(b *testing.B) {
	o := exp.DefaultFig15Opts()
	o.TenantCounts = []int{17}
	o.CoresPer = []int{1}
	o.Iterations = 30
	var rows []exp.Fig15Row
	for i := 0; i < b.N; i++ {
		rows = exp.RunFig15(io.Discard, o)
	}
	b.ReportMetric(rows[0].StableUS, "stable-us")
	b.ReportMetric(rows[0].UnstableUS, "unstable-us")
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkLLCAccess measures one demand access through the full LLC model.
func BenchmarkLLCAccess(b *testing.B) {
	llc := cache.NewLLC(sim.XeonGold6140(1).Hier.LLC, 18)
	mask := cache.ContiguousMask(0, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		llc.Access(0, uint64(i%100000)<<6, i&1 == 0, mask)
	}
}

// BenchmarkLLCIOWrite measures one DDIO write allocate: a stream of fresh
// lines into the default 2-way DDIO mask, which is Leaky DMA's inbound
// traffic once the Rx ring outgrows the DDIO ways.
func BenchmarkLLCIOWrite(b *testing.B) {
	cfg := sim.XeonGold6140(1).Hier.LLC
	llc := cache.NewLLC(cfg, 18)
	ddio := cache.ContiguousMask(cfg.Ways-2, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		llc.IOWrite(uint64(i&(1<<31-1))<<6, ddio)
	}
}

// BenchmarkHierarchyAccess measures one access through L1/L2/LLC/memory.
func BenchmarkHierarchyAccess(b *testing.B) {
	cfg := sim.XeonGold6140(1)
	h := cache.NewHierarchy(cfg.Hier, cfg.FreqGHz, mem.NewController(mem.Config{}))
	h.Mem().BeginEpoch(1e12)
	mask := cache.ContiguousMask(0, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, uint64(i%100000)<<6, false, mask)
	}
}

// BenchmarkHierarchyAccessRange measures one OVS 1500 B copy through the
// hierarchy's streaming path: a 24-line read of a buffer the NIC has just
// DMA-written into the DDIO ways, then a 24-line write of a guest buffer,
// on the Table I machine. The 256 Rx buffers are re-written by DMA,
// outside the timer, before each pass over them.
func BenchmarkHierarchyAccessRange(b *testing.B) {
	const (
		bufs    = 256
		bufSize = 2048
		copyLen = 1500
		rxBase  = uint64(1) << 30
		vmBase  = rxBase + bufs*bufSize
	)
	p := sim.NewPlatform(sim.XeonGold6140(1))
	mask := cache.ContiguousMask(0, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i % bufs)
		if k == 0 {
			b.StopTimer()
			for j := uint64(0); j < bufs; j++ {
				p.DDIO.DeviceWrite(rxBase+j*bufSize, copyLen, 0)
			}
			b.StartTimer()
		}
		src, dst := rxBase+k*bufSize, vmBase+k*bufSize
		p.Hier.AccessRange(0, src, src+copyLen-1, false, mask)
		p.Hier.AccessRange(0, dst, dst+copyLen-1, true, mask)
	}
}

// BenchmarkHierarchyAccessRangeHot measures one read of a 1 KB value (16
// lines) that sits in the core's L2, the KVS and RocksDB pattern: 128
// values (128 KB) are read in turn, more than the Table I machine's
// 32 KB L1 holds and far less than its 1 MB L2, so most lines miss the
// L1 (about a fifth stay in the L1 ways its fixed victim way 0 spares),
// and none reaches the LLC. The values are read once before the timer
// starts.
func BenchmarkHierarchyAccessRangeHot(b *testing.B) {
	const (
		values    = 128
		valueSize = 1024
		base      = uint64(1) << 30
	)
	p := sim.NewPlatform(sim.XeonGold6140(1))
	mask := cache.ContiguousMask(0, 4)
	for k := uint64(0); k < values; k++ {
		p.Hier.AccessRange(0, base+k*valueSize, base+k*valueSize+valueSize-1, false, mask)
	}
	_, warm := p.Hier.L2Stats(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := base + uint64(i%values)*valueSize
		p.Hier.AccessRange(0, v, v+valueSize-1, false, mask)
	}
	b.StopTimer()
	if _, misses := p.Hier.L2Stats(0); misses != warm {
		b.Fatalf("%d timed lines missed the L2", misses-warm)
	}
}

// BenchmarkDDIOWriteBurst measures one MTU inbound DMA burst (24 lines)
// through the DDIO engine into the 2 default DDIO ways of the Table I
// machine, invalidating the consuming core's private copies, over a ring
// of Rx buffers large enough to keep write-allocating.
func BenchmarkDDIOWriteBurst(b *testing.B) {
	const (
		bufs    = 4096
		bufSize = 2048
		rxBase  = uint64(1) << 30
	)
	p := sim.NewPlatform(sim.XeonGold6140(1))
	p.Hier.Access(0, rxBase, false, cache.FullMask(p.Cfg.Hier.LLC.Ways)) // build the consumer's caches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.DDIO.DeviceWrite(rxBase+uint64(i%bufs)*bufSize, 1500, 0)
	}
}

// BenchmarkGeneratorNextKV measures one Redis client packet of the Figs.
// 12-14 co-run: a flow pick, a YCSB-A request over 1M records, and the
// request's wire size (writes carry their 1KB value).
func BenchmarkGeneratorNextKV(b *testing.B) {
	w, err := ycsb.WorkloadByName("A")
	if err != nil {
		b.Fatal(err)
	}
	gen := ycsb.NewGenerator(w, 1<<20, 61)
	g := tgen.NewGenerator(8e6, 128, pkt.NewFlowSet(8, 0, 71), 81)
	g.NewApp = func(*rand.Rand) ycsb.Request { return gen.Next() }
	g.SizeFor = func(r ycsb.Request) int {
		if r.Op == ycsb.Read {
			return 128
		}
		return 1088
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kvPacketSink = g.Next()
	}
}

// kvPacketSink keeps BenchmarkGeneratorNextKV's result live.
var kvPacketSink pkt.Packet

// BenchmarkDaemonTick measures the zero-work fast path of the daemon (the
// interval gate), which runs once per simulated epoch.
func BenchmarkDaemonTick(b *testing.B) {
	p := sim.NewPlatform(sim.XeonGold6140(100))
	params := core.DefaultParams()
	d, err := core.NewDaemon(bridge.NewSystem(p), params, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	d.Tick(params.IntervalNS) // first (baseline) iteration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Tick(params.IntervalNS + 1) // gated: the fast path
	}
}

// churnSys is a core.System of eight two-core tenants whose counters
// swing every interval, so each daemon iteration is unstable: it polls,
// transitions, re-packs the layout and programs registers.
type churnSys struct {
	tenants []core.TenantInfo
	masks   map[int]cache.WayMask
	ddio    cache.WayMask
	cores   []rdt.CoreCounters
	ddioC   rdt.DDIOCounters
}

func newChurnSys() *churnSys {
	s := &churnSys{masks: map[int]cache.WayMask{}, ddio: cache.ContiguousMask(9, 2), cores: make([]rdt.CoreCounters, 16)}
	for i := 0; i < 8; i++ {
		t := core.TenantInfo{Name: fmt.Sprintf("t%d", i), Cores: []int{2 * i, 2*i + 1}, CLOS: i + 1, Priority: core.BE}
		if i == 0 {
			t.IO, t.Priority = true, core.PC
		}
		s.tenants = append(s.tenants, t)
		s.masks[t.CLOS] = cache.ContiguousMask(i, 1)
	}
	return s
}

// advance feeds interval i: steady core activity with a reference rate
// that drifts per tenant, and a DDIO miss rate that swings each interval.
func (s *churnSys) advance(i int) {
	for c := range s.cores {
		s.cores[c].Instructions += 1_000_000
		s.cores[c].Cycles += 2_000_000
		s.cores[c].LLCRefs += uint64(10_000 + (i+c)%4*5_000)
		s.cores[c].LLCMisses += 1_000
	}
	s.ddioC.Hits += 1_000_000
	if i%2 == 0 {
		s.ddioC.Misses += 2_000_000
	} else {
		s.ddioC.Misses += 100
	}
}

func (s *churnSys) Tenants() []core.TenantInfo        { return s.tenants }
func (s *churnSys) NumWays() int                      { return 11 }
func (s *churnSys) ReadCore(c int) rdt.CoreCounters   { return s.cores[c] }
func (s *churnSys) ReadDDIO() rdt.DDIOCounters        { return s.ddioC }
func (s *churnSys) CLOSMask(clos int) cache.WayMask   { return s.masks[clos] }
func (s *churnSys) DDIOMask() cache.WayMask           { return s.ddio }
func (s *churnSys) SetDDIOMask(m cache.WayMask) error { s.ddio = m; return nil }
func (s *churnSys) SetCLOSMask(clos int, m cache.WayMask) error {
	s.masks[clos] = m
	return nil
}

// BenchmarkDaemonIteration measures one full unstable IAT iteration
// (poll, sanity screen, decide, re-allocate, program, trace) with a
// telemetry sink attached, over eight tenants whose counters churn.
func BenchmarkDaemonIteration(b *testing.B) {
	sys := newChurnSys()
	params := core.DefaultParams()
	d, err := core.NewDaemon(sys, params, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	d.Tel = telemetry.NewRegistry()
	i := 0
	tick := func() {
		sys.advance(i)
		i++
		d.Tick(float64(i) * params.IntervalNS)
	}
	for i < 8 {
		tick()
	}
	_, before := d.Iterations()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		tick()
	}
	b.StopTimer()
	if _, after := d.Iterations(); after-before != uint64(b.N) {
		b.Fatalf("%d of %d iterations were unstable", after-before, b.N)
	}
}

// BenchmarkHostCheckpoint measures one fleet host checkpoint: the daemon,
// its IAT policy and two shadow policies encoded into the host's in-memory
// checkpoint slot, as the fleet does after every round.
func BenchmarkHostCheckpoint(b *testing.B) {
	o := exp.FleetOpts{
		Hosts: 1, Topology: "striped", Rollout: "canary", Shadow: "static:2,ioca",
		Scale: 3200, Rounds: 2, RoundNS: 0.2e9, IntervalNS: 0.05e9,
	}
	hosts, err := exp.BuildFleet(o)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := exp.FleetPlan(o)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := fleet.Run(fleet.Config{Hosts: hosts, Rounds: o.Rounds, RoundNS: o.RoundNS, Workers: 1, Plan: plan, CheckpointEvery: 1}); err != nil {
		b.Fatal(err)
	}
	h := hosts[0]
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := h.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMechanisms quantifies each IAT lever's contribution on
// the Leaky DMA scenario (beyond-the-paper ablation).
func BenchmarkAblationMechanisms(b *testing.B) {
	var rows []exp.AblationMechRow
	for i := 0; i < b.N; i++ {
		rows = exp.RunAblationMechanisms(io.Discard, 100)
	}
	for _, r := range rows {
		b.ReportMetric(r.DDIOMissPS, "miss/s-"+r.Variant)
	}
}

// BenchmarkAblationDDIOExt measures the Sec. VII future-DDIO proposals.
func BenchmarkAblationDDIOExt(b *testing.B) {
	var rows []exp.AblationDDIOExtRow
	for i := 0; i < b.N; i++ {
		rows = exp.RunAblationDDIOExt(io.Discard, 100)
	}
	for _, r := range rows {
		b.ReportMetric(r.VictimLatNS, "victim-ns-"+r.Variant)
	}
}

// BenchmarkNICPollRx measures one epoch of the Leaky DMA datapath: line-
// rate NIC delivery into the Rx rings, the OVS cores polling their VFs,
// and the DDIO writes the paper is about. Rings and the EMC are warmed
// first so the steady-state poll path is what's timed.
func BenchmarkNICPollRx(b *testing.B) {
	s := exp.NewLeakyScenario(exp.LeakyOpts{Scale: 100, PktSize: 64})
	s.P.Run(1e7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.P.Step()
	}
}

// BenchmarkPolicyDecide measures one Observe+Decide cycle of each
// shipped allocation policy over an 8-tenant sample, alternating quiet
// and loud I/O so the change-detection path runs every other tick — the
// pure decision cost the daemon pays per polling interval.
func BenchmarkPolicyDecide(b *testing.B) {
	limits := policy.Limits{
		ThresholdStable:        0.03,
		ThresholdMissLowPerSec: 1e6,
		DDIOWaysMin:            1,
		DDIOWaysMax:            6,
		MissDropFactor:         0.5,
		TenantMissRateFloor:    0.05,
	}
	mkSample := func(missPS float64) policy.Sample {
		s := policy.Sample{
			NumWays: 11, DDIOWays: 2,
			DDIOMask:   cache.ContiguousMask(9, 2),
			Limits:     limits,
			DDIOHitPS:  1e8,
			DDIOMissPS: missPS,
		}
		for clos := 1; clos <= 8; clos++ {
			s.Groups = append(s.Groups, policy.GroupView{
				CLOS: clos, IO: clos == 1, Width: 1,
				Mask: cache.ContiguousMask(clos-1, 1),
				IPC:  0.5, RefsPS: 1e7, MissPS: 1e5, MissRate: 0.01,
			})
		}
		return s
	}
	quiet, loud := mkSample(1e3), mkSample(5e6)
	for _, name := range []string{"iat", "static:2", "ioca", "greedy"} {
		b.Run(name, func(b *testing.B) {
			spec, err := policy.ParseSpec(name)
			if err != nil {
				b.Fatal(err)
			}
			pol := spec.New()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := quiet
				if i&1 == 1 {
					s = loud
				}
				s.NowNS = float64(i) * 1e8
				pol.Observe(s)
				_ = pol.Decide()
			}
		})
	}
}

// BenchmarkFleetRound measures the fleet simulator: one 4-host, 4-round
// canary rollout per iteration (sequential host stepping plus controller
// aggregation), reported per round.
func BenchmarkFleetRound(b *testing.B) {
	const rounds = 4
	for i := 0; i < b.N; i++ {
		o := exp.FleetOpts{
			Hosts: 4, Topology: "striped", Rollout: "canary",
			Scale: 3200, Rounds: rounds, RoundNS: 0.2e9, IntervalNS: 0.05e9,
		}
		if _, _, err := exp.RunFleet(io.Discard, o); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rounds), "ns/round")
}
