package workload_test

import (
	"testing"

	"iatsim/internal/addr"
	"iatsim/internal/cache"
	"iatsim/internal/nic"
	"iatsim/internal/nvme"
	"iatsim/internal/pkt"
	"iatsim/internal/sim"
	"iatsim/internal/tgen"
	"iatsim/internal/workload"
	"iatsim/internal/ycsb"
)

// smallPlatform builds a 4-core platform with a reduced hierarchy so
// workload unit tests run fast.
func smallPlatform() *sim.Platform {
	cfg := sim.XeonGold6140(100)
	cfg.Cores = 4
	cfg.Hier = cache.HierarchyConfig{
		Cores: 4,
		L1:    cache.LevelConfig{SizeBytes: 8 << 10, Ways: 4, HitCycles: 4},
		L2:    cache.LevelConfig{SizeBytes: 64 << 10, Ways: 8, HitCycles: 14},
		LLC:   cache.LLCConfig{Slices: 2, Ways: 8, SetsPerSlice: 512, HitCycles: 44},
	}
	cfg.AmbientFillPS = -1 // determinism for unit tests
	return sim.NewPlatform(cfg)
}

func addTenant(t *testing.T, p *sim.Platform, name string, core, clos int, w sim.Worker) {
	t.Helper()
	if err := p.AddTenant(&sim.Tenant{
		Name: name, Cores: []int{core}, CLOS: clos,
		Priority: sim.BestEffort, Workers: []sim.Worker{w},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestXMemThroughputTracksWorkingSet(t *testing.T) {
	run := func(ws uint64) uint64 {
		p := smallPlatform()
		x := workload.NewXMem(p.Alloc, 32<<20, ws, 1)
		addTenant(t, p, "x", 0, 1, x)
		p.Run(50e6)
		return x.Stats().Ops
	}
	small := run(64 << 10) // fits in L2
	large := run(16 << 20) // far exceeds the 2MB test LLC
	if small <= large {
		t.Fatalf("cache-resident X-Mem (%d ops) not faster than DRAM-bound (%d ops)", small, large)
	}
}

func TestXMemWorkingSetClamp(t *testing.T) {
	p := smallPlatform()
	x := workload.NewXMem(p.Alloc, 1<<20, 1<<20, 1)
	x.SetWorkingSet(64 << 20) // beyond the region: clamped
	if x.WorkingSetBytes() != 1<<20 {
		t.Fatalf("working set = %d", x.WorkingSetBytes())
	}
	x.SetWorkingSet(0)
	if x.WorkingSetBytes() != addr.LineSize {
		t.Fatalf("minimum working set = %d", x.WorkingSetBytes())
	}
}

func TestSpecRunsToCompletion(t *testing.T) {
	p := smallPlatform()
	prof, err := workload.SpecProfileByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	s := workload.NewSpec(prof, p.Alloc, 50_000, 1)
	addTenant(t, p, "gcc", 0, 1, s)
	p.Run(200e6)
	if !s.Done() {
		t.Fatalf("gcc not done after 200ms: retired %d", s.Retired())
	}
	if s.FinishNS() <= 0 || s.FinishNS() > 200e6 {
		t.Fatalf("finish time %v", s.FinishNS())
	}
	if s.Retired() < 50_000 {
		t.Fatalf("retired %d < target", s.Retired())
	}
	// A finished spec leaves the core idle.
	cyc := p.CoreCycles(0)
	p.Run(20e6)
	if p.CoreCycles(0) != cyc {
		t.Fatal("finished spec still burning cycles")
	}
}

func TestSpecProfilesResolvable(t *testing.T) {
	for _, prof := range workload.SpecProfiles() {
		got, err := workload.SpecProfileByName(prof.Name)
		if err != nil || got.Name != prof.Name {
			t.Errorf("profile %q not resolvable", prof.Name)
		}
		if prof.MemPer100Inst <= 0 {
			t.Errorf("profile %q has no memory intensity", prof.Name)
		}
	}
	if _, err := workload.SpecProfileByName("doom"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestSpecMemoryIntensityOrdersIPC(t *testing.T) {
	ipcOf := func(name string) float64 {
		p := smallPlatform()
		prof, _ := workload.SpecProfileByName(name)
		s := workload.NewSpec(prof, p.Alloc, 0, 1)
		addTenant(t, p, name, 0, 1, s)
		p.Run(50e6)
		return float64(p.CoreInstr(0)) / float64(p.CoreCycles(0))
	}
	if mcf, gcc := ipcOf("mcf"), ipcOf("gcc"); mcf >= gcc {
		t.Fatalf("mcf IPC %.3f should be below gcc IPC %.3f", mcf, gcc)
	}
}

func TestOVSEMCHitRate(t *testing.T) {
	p := smallPlatform()
	o := workload.NewOVS(1<<16, p.Alloc)
	o.SetFlows(1 << 16) // far above the 8192-entry EMC
	vfDev := p.AddDevice(nic.Config{Name: "n0", VFs: 1})
	vf := vfDev.VF(0)
	vf.ConsumerCore = 0
	port := nic.NewVirtioPort("p0", 256, p.Alloc)
	o.NICPorts = []*nic.VF{vf}
	o.VirtioPorts = []*nic.VirtioPort{port}
	addTenant(t, p, "ovs", 0, 1, o.Worker([]int{0}, []int{0}))
	// Feed packets directly.
	fs := pkt.NewFlowSet(1<<16, 0, 1)
	for i := 0; i < 4000; i++ {
		vfDev.DeliverRx(0, pkt.Packet{Flow: fs.At(i), Size: 64}, 0)
		if i%64 == 0 {
			p.Step()
		}
		// Drain the tenant side so the port never clogs.
		for {
			_, e, ok := port.Down.Pop()
			if !ok {
				break
			}
			port.Release(e.Buf)
		}
	}
	st := o.Stats()
	if st.Packets == 0 {
		t.Fatal("switch forwarded nothing")
	}
	rate := float64(st.EMCHits) / float64(st.EMCHits+st.MegaLookups)
	want := 8192.0 / (1 << 16)
	if rate < want/2 || rate > want*2 {
		t.Fatalf("EMC hit rate %.3f, want ~%.3f", rate, want)
	}
}

func TestOVSSetFlowsClamped(t *testing.T) {
	p := smallPlatform()
	o := workload.NewOVS(1000, p.Alloc)
	o.SetFlows(10_000_000)
	if o.Flows > 1000 {
		t.Fatalf("flows %d exceed the sized table", o.Flows)
	}
	o.SetFlows(0)
	if o.Flows != 1 {
		t.Fatalf("flows = %d", o.Flows)
	}
}

func TestVirtioBounceRoundTrip(t *testing.T) {
	p := smallPlatform()
	port := nic.NewVirtioPort("p", 64, p.Alloc)
	b := workload.NewVirtioBounce(port)
	addTenant(t, p, "bounce", 0, 1, b)
	for i := 0; i < 10; i++ {
		_, buf, ok := port.PushDown(pkt.Packet{Size: 128})
		if !ok {
			t.Fatal("push down failed")
		}
		_ = buf
	}
	p.Run(2e6)
	if port.Up.Len() != 10 {
		t.Fatalf("bounced %d of 10 packets", port.Up.Len())
	}
	if b.Stats().Ops != 10 {
		t.Fatalf("ops = %d", b.Stats().Ops)
	}
}

// TestKVSBurstAllocatesNothing guards the KV serving path: pushing one
// burst of requests through the virtio port, serving it and draining the
// responses allocates nothing once the platform is warm.
func TestKVSBurstAllocatesNothing(t *testing.T) {
	p := smallPlatform()
	port := nic.NewVirtioPort("p", 64, p.Alloc)
	cfg := workload.KVSConfig{Records: 1 << 12, ValueSize: 1024, RespSize: 1088}
	k := workload.NewKVS(port, cfg, p.Alloc)
	addTenant(t, p, "kvs", 0, 1, k)
	gen := ycsb.NewGenerator(ycsb.CoreWorkloads()[0], cfg.Records, 1)
	burst := func() {
		for i := 0; i < k.Burst; i++ {
			port.PushDown(pkt.Packet{Size: 128, Req: gen.Next(), ArrivalNS: p.NowNS()})
		}
		for !port.Down.Empty() {
			p.Step()
		}
		for {
			_, e, ok := port.Up.Pop()
			if !ok {
				break
			}
			port.Release(e.Buf)
		}
	}
	burst() // warm-up: builds the core's private caches
	if a := testing.AllocsPerRun(50, burst); a != 0 {
		t.Fatalf("one KVS burst: %v allocs/op, want 0", a)
	}
	// AllocsPerRun makes one unmeasured call of its own.
	if want := uint64(52 * k.Burst); k.Stats().Ops != want {
		t.Fatalf("served %d requests, want %d", k.Stats().Ops, want)
	}
}

func TestKVSServesRequests(t *testing.T) {
	p := smallPlatform()
	port := nic.NewVirtioPort("p", 64, p.Alloc)
	cfg := workload.KVSConfig{Records: 1 << 12, ValueSize: 1024, RespSize: 1088}
	k := workload.NewKVS(port, cfg, p.Alloc)
	addTenant(t, p, "kvs", 0, 1, k)
	ops := []ycsb.Op{ycsb.Read, ycsb.Update, ycsb.Insert, ycsb.ReadModifyWrite, ycsb.Scan}
	for i, op := range ops {
		pk := pkt.Packet{Size: 128, Req: ycsb.Request{Op: op, Key: uint64(i), ScanLen: 3}}
		pk.ArrivalNS = p.NowNS()
		if _, _, ok := port.PushDown(pk); !ok {
			t.Fatal("push down failed")
		}
	}
	p.Run(2e6)
	if k.Stats().Ops != uint64(len(ops)) {
		t.Fatalf("served %d of %d", k.Stats().Ops, len(ops))
	}
	if port.Up.Len() != len(ops) {
		t.Fatalf("%d responses for %d requests", port.Up.Len(), len(ops))
	}
	if k.Hist().Count() != uint64(len(ops)) {
		t.Fatalf("latency histogram has %d samples", k.Hist().Count())
	}
	// Read responses carry the value; write acks are small.
	var sawBig, sawSmall bool
	for {
		_, e, ok := port.Up.Pop()
		if !ok {
			break
		}
		if e.Pkt.Size >= 1024 {
			sawBig = true
		} else {
			sawSmall = true
		}
		port.Release(e.Buf)
	}
	if !sawBig || !sawSmall {
		t.Fatal("response size mix wrong")
	}
}

func TestRocksDBRunsYCSB(t *testing.T) {
	p := smallPlatform()
	w, _ := ycsb.WorkloadByName("A")
	r := workload.NewRocksDB(workload.RocksDBConfig{Records: 2048, ValueSize: 1024}, w, 2000, p.Alloc, 1)
	addTenant(t, p, "rocks", 0, 1, r)
	p.Run(200e6)
	if !r.Done() {
		t.Fatalf("rocksdb not done: %d ops", r.Stats().Ops)
	}
	hists := r.Hists()
	if hists[ycsb.Read] == nil || hists[ycsb.Read].Count() == 0 {
		t.Fatal("no read latencies recorded")
	}
	if hists[ycsb.Update] == nil || hists[ycsb.Update].Count() == 0 {
		t.Fatal("no update latencies recorded")
	}
	if r.Hist(ycsb.Read).Mean() <= 0 {
		t.Fatal("zero mean latency")
	}
}

func TestNFChainProcessesAndForwards(t *testing.T) {
	p := smallPlatform()
	dev := p.AddDevice(nic.Config{Name: "n0", VFs: 1})
	vf := dev.VF(0)
	vf.ConsumerCore = 0
	nf := workload.NewNFChain(vf, 1024, p.Alloc)
	addTenant(t, p, "nf", 0, 1, nf)
	fs := pkt.NewFlowSet(1024, 1, 1)
	for i := 0; i < 50; i++ {
		dev.DeliverRx(0, pkt.Packet{Flow: fs.At(i), Size: 1500}, p.NowNS())
	}
	p.Run(5e6)
	if nf.Stats().Ops != 50 {
		t.Fatalf("processed %d of 50", nf.Stats().Ops)
	}
	if vf.Stats.TxPackets == 0 {
		t.Fatal("nothing transmitted")
	}
	if nf.Hist().Count() == 0 {
		t.Fatal("no latency samples")
	}
	if nf.Jitter() < 0 {
		t.Fatal("negative jitter")
	}
}

func TestL3FwdTableSized(t *testing.T) {
	p := smallPlatform()
	dev := p.AddDevice(nic.Config{Name: "n0", VFs: 1})
	vf := dev.VF(0)
	l := workload.NewL3Fwd(vf, 1<<20, p.Alloc)
	if l.TableBytes() != (1<<20)*64 {
		t.Fatalf("table bytes = %d", l.TableBytes())
	}
}

func TestSPDKServerKeepsQueueDepthAndConsumesBlocks(t *testing.T) {
	p := smallPlatform()
	cfg := nvme.DefaultConfig("ssd0")
	cfg.ReadLatencyNS = 20e3
	cfg.BandwidthGBps = 3.5 / 100
	dev := nvme.New(cfg, 1, p.DDIO, p.Alloc)
	dev.QP(0).ConsumerCore = 0
	p.AddMicrotickHook(dev.Tick)
	srv := workload.NewSPDKServer(dev, 0, 16, 4096, p.Alloc, 1)
	addTenant(t, p, "spdk", 0, 1, srv)
	p.Run(50e6)
	if srv.Stats().Ops == 0 {
		t.Fatal("no I/O completed")
	}
	if out := dev.QP(0).Outstanding(); out == 0 || out > 16 {
		t.Fatalf("outstanding = %d, want (0,16]", out)
	}
	if srv.Hist().Count() == 0 || srv.Hist().Mean() < cfg.ReadLatencyNS {
		t.Fatalf("latency hist: count=%d mean=%.0f", srv.Hist().Count(), srv.Hist().Mean())
	}
	if dev.Stats().QueueFull != 0 {
		t.Fatalf("server overfilled the queue %d times", dev.Stats().QueueFull)
	}
}

func TestSPDKServerWriteMix(t *testing.T) {
	p := smallPlatform()
	cfg := nvme.DefaultConfig("ssd0")
	cfg.ReadLatencyNS, cfg.WriteLatencyNS = 10e3, 5e3
	cfg.BandwidthGBps = 3.5 / 100
	dev := nvme.New(cfg, 1, p.DDIO, p.Alloc)
	dev.QP(0).ConsumerCore = 0
	p.AddMicrotickHook(dev.Tick)
	srv := workload.NewSPDKServer(dev, 0, 8, 4096, p.Alloc, 1)
	srv.WriteFrac = 0.5
	addTenant(t, p, "spdk", 0, 1, srv)
	p.Run(50e6)
	st := dev.Stats()
	if st.Reads == 0 || st.Writes == 0 {
		t.Fatalf("mix missing an op kind: %+v", st)
	}
}

func TestOVSVirtioToNICDirection(t *testing.T) {
	p := smallPlatform()
	o := workload.NewOVS(64, p.Alloc)
	dev := p.AddDevice(nic.Config{Name: "n0", VFs: 1})
	vf := dev.VF(0)
	vf.ConsumerCore = 0
	port := nic.NewVirtioPort("p0", 64, p.Alloc)
	o.NICPorts = []*nic.VF{vf}
	o.VirtioPorts = []*nic.VirtioPort{port}
	addTenant(t, p, "ovs", 0, 1, o.Worker([]int{0}, []int{0}))
	// Tenant-originated packets on the Up ring must reach the NIC Tx.
	for i := 0; i < 5; i++ {
		buf, ok := port.GetBuf()
		if !ok {
			t.Fatal("port pool exhausted")
		}
		if _, ok := port.PushUp(nic.Entry{Pkt: pkt.Packet{Size: 256}, Buf: buf}); !ok {
			t.Fatal("push up failed")
		}
	}
	p.Run(2e6)
	if vf.Stats.TxPackets != 5 {
		t.Fatalf("transmitted %d of 5", vf.Stats.TxPackets)
	}
	if port.Pool.Avail() != port.Pool.Size() {
		t.Fatalf("port pool leaked: %d/%d", port.Pool.Avail(), port.Pool.Size())
	}
}

func TestOVSMegaflowCostGrowsWithFlows(t *testing.T) {
	// The switch's per-packet cost must rise with the live flow count
	// (EMC thrash + wider tuple-space search) — the Fig. 9 mechanism.
	cpp := func(flows int) float64 {
		p := smallPlatform()
		o := workload.NewOVS(1<<20, p.Alloc)
		o.SetFlows(flows)
		dev := p.AddDevice(nic.Config{Name: "n0", VFs: 1})
		vf := dev.VF(0)
		vf.ConsumerCore = 0
		port := nic.NewVirtioPort("p0", 512, p.Alloc)
		o.NICPorts = []*nic.VF{vf}
		o.VirtioPorts = []*nic.VirtioPort{port}
		addTenant(t, p, "ovs", 0, 1, o.Worker([]int{0}, []int{0}))
		fs := pkt.NewFlowSet(flows, 0, 1)
		g := tgen.NewGenerator(p.GeneratorRate(2e6), 64, fs, 2)
		p.AttachGenerator(g, dev, 0)
		// Bounce consumer keeps the port drained.
		addTenant(t, p, "sink", 1, 2, workload.NewVirtioBounce(port))
		p.Run(40e6)
		st := o.Stats()
		if st.Packets == 0 {
			t.Fatal("no packets switched")
		}
		return float64(p.CoreCycles(0)) / float64(st.Packets)
	}
	few, many := cpp(16), cpp(1<<19)
	if many <= few {
		t.Fatalf("megaflow cost at 512k flows (%.0f cpp) not above 16 flows (%.0f cpp)", many, few)
	}
}
