// Quickstart: assemble a minimal platform — one line-rate forwarding tenant
// and one cache-hungry batch tenant — attach the IAT daemon, and watch it
// size the DDIO ways and shuffle the LLC allocation.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"iatsim/internal/bridge"
	"iatsim/internal/cache"
	"iatsim/internal/core"
	"iatsim/internal/nic"
	"iatsim/internal/pkt"
	"iatsim/internal/sim"
	"iatsim/internal/tgen"
	"iatsim/internal/workload"
)

func main() {
	// A scaled-down Xeon Gold 6140 (Table I of the paper). Scale=100
	// divides packet rates and cycle budgets equally, so contention
	// behaviour is preserved while simulation stays cheap.
	p := sim.NewPlatform(sim.XeonGold6140(100))

	// A 40GbE NIC whose single VF is polled by core 0.
	dev := p.AddDevice(nic.Config{Name: "nic0", VFs: 1})
	vf := dev.VF(0)
	vf.ConsumerCore = 0

	// Tenant 1: a DPDK forwarder (performance-critical, networking).
	fwd := workload.NewTestPMD(vf)
	if err := p.RDT.SetCLOSMask(1, cache.ContiguousMask(0, 2)); err != nil {
		log.Fatal(err)
	}
	must(p.AddTenant(&sim.Tenant{
		Name: "forwarder", Cores: []int{0}, CLOS: 1,
		Priority: sim.PerformanceCritical, IsIO: true,
		Workers: []sim.Worker{fwd},
	}))

	// Tenant 2: an 8MB random-read batch job (best-effort).
	batch := workload.NewXMem(p.Alloc, 8<<20, 8<<20, 1)
	if err := p.RDT.SetCLOSMask(2, cache.ContiguousMask(2, 2)); err != nil {
		log.Fatal(err)
	}
	must(p.AddTenant(&sim.Tenant{
		Name: "batch", Cores: []int{1}, CLOS: 2,
		Priority: sim.BestEffort,
		Workers:  []sim.Worker{batch},
	}))

	// MTU-size traffic at line rate: the classic Leaky DMA trigger.
	flows := pkt.NewFlowSet(16, 0, 7)
	gen := tgen.NewGenerator(p.GeneratorRate(tgen.LineRatePPS(40, 1500)), 1500, flows, 42)
	p.AttachGenerator(gen, dev, 0)

	// The IAT daemon, observing and programming the machine through the
	// same pqos/MSR-shaped interface the paper's artifact uses.
	daemon, err := bridge.NewIAT(p, bridge.ScaledParams(p.Cfg.Scale, 0.5e9), core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	daemon.OnIteration = func(it core.IterationInfo) {
		fmt.Printf("[%5.1fs] state=%-10s ddio=%v action=%s\n",
			it.NowNS/1e9, it.State, it.DDIOMask, it.Action)
	}

	p.Run(8e9) // 8 simulated seconds

	st := p.Hier.LLC().TotalStats()
	fmt.Printf("\nforwarded %d packets (%d drops)\n", vf.Stats.TxPackets, vf.Stats.RxDrops)
	fmt.Printf("DDIO: %d write updates, %d write allocates\n", st.DDIOHits, st.DDIOMisses)
	fmt.Printf("batch tenant: %.1fM random reads\n", float64(batch.Stats().Ops)/1e6)
	fmt.Printf("final DDIO mask %v, batch mask %v\n", p.RDT.DDIOMask(), p.RDT.CLOSMask(2))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
