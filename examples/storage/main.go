// Storage demo: the Leaky DMA problem is not a networking exclusive. An
// SPDK-style polled storage server keeping 64 x 128KB NVMe reads in flight
// has an 8MB inbound DMA footprint — far beyond DDIO's two default ways —
// so completed blocks leak to memory before the server consumes them. IAT
// sees the same chip-wide DDIO miss counters it watches for NICs and grows
// the DDIO allocation.
//
//	go run ./examples/storage
package main

import (
	"fmt"
	"log"

	"iatsim/internal/bridge"
	"iatsim/internal/cache"
	"iatsim/internal/core"
	"iatsim/internal/nvme"
	"iatsim/internal/sim"
	"iatsim/internal/workload"
)

func run(iat bool) {
	p := sim.NewPlatform(sim.XeonGold6140(100))
	cfg := nvme.DefaultConfig("ssd0")
	cfg.BandwidthGBps /= p.Cfg.Scale
	dev := nvme.New(cfg, 1, p.DDIO, p.Alloc)
	dev.QP(0).ConsumerCore = 0
	p.AddMicrotickHook(dev.Tick)

	srv := workload.NewSPDKServer(dev, 0, 64, 128<<10, p.Alloc, 7)
	if err := p.RDT.SetCLOSMask(1, cache.ContiguousMask(0, 2)); err != nil {
		log.Fatal(err)
	}
	if err := p.AddTenant(&sim.Tenant{
		Name: "spdk", Cores: []int{0}, CLOS: 1,
		Priority: sim.PerformanceCritical, IsIO: true,
		Workers: []sim.Worker{srv},
	}); err != nil {
		log.Fatal(err)
	}
	if iat {
		if _, err := bridge.NewIAT(p, bridge.ScaledParams(p.Cfg.Scale, 0.2e9), core.Options{}); err != nil {
			log.Fatal(err)
		}
	}
	p.Run(2.5e9)
	llcA := p.Hier.LLC().TotalStats()
	memA := p.Mem.Stats()
	opsA := srv.Stats().Ops
	p.Run(1.5e9)
	llc := p.Hier.LLC().TotalStats()
	memT := p.Mem.Stats().Sub(memA).Total()
	mode := "baseline"
	if iat {
		mode = "IAT     "
	}
	miss := llc.DDIOMisses - llcA.DDIOMisses
	hits := llc.DDIOHits - llcA.DDIOHits
	fmt.Printf("%s: %6.0f IOPS  DDIO miss ratio %5.1f%%  mem %5.2f GB/s  ddio ways %d\n",
		mode, float64(srv.Stats().Ops-opsA)/1.5*p.Cfg.Scale,
		100*float64(miss)/float64(hits+miss),
		float64(memT)/1.5e9*p.Cfg.Scale, p.RDT.DDIOMask().Count())
}

func main() {
	fmt.Println("SPDK server, 64 x 128KB NVMe reads in flight (8MB DMA footprint):")
	run(false)
	run(true)
}
