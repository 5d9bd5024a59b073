// Latent Contender demo (Sec. III-B of the paper): a tenant whose
// "dedicated" LLC ways happen to be the DDIO ways is silently sharing them
// with the NIC — no core overlaps it, yet inbound line-rate traffic evicts
// its working set. IAT's shuffling step moves the victim off the DDIO ways
// and parks the least memory-intensive best-effort tenant there instead.
//
//	go run ./examples/latentcontender
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

// build assembles one l3fwd tenant (2 ways), one PC X-Mem victim on the
// given mask, and one BE X-Mem; returns the platform and the two X-Mems.
func build(victimMask cache.WayMask, iat bool) (*sim.Platform, *workload.XMem) {
	p := sim.NewPlatform(sim.XeonGold6140(100))
	dev := p.AddDevice(nic.Config{Name: "nic0", VFs: 1})
	vf := dev.VF(0)
	vf.ConsumerCore = 0
	fwd := workload.NewL3Fwd(vf, 1<<20, p.Alloc)
	must(p.RDT.SetCLOSMask(1, cache.ContiguousMask(0, 2)))
	must(p.AddTenant(&sim.Tenant{
		Name: "l3fwd", Cores: []int{0}, CLOS: 1,
		Priority: sim.PerformanceCritical, IsIO: true,
		Workers: []sim.Worker{fwd},
	}))

	victim := workload.NewXMem(p.Alloc, 8<<20, 8<<20, 5)
	must(p.RDT.SetCLOSMask(2, victimMask))
	must(p.AddTenant(&sim.Tenant{
		Name: "victim", Cores: []int{1}, CLOS: 2,
		Priority: sim.PerformanceCritical,
		Workers:  []sim.Worker{victim},
	}))

	idleBE := workload.NewXMem(p.Alloc, 512<<10, 512<<10, 9)
	must(p.RDT.SetCLOSMask(3, cache.ContiguousMask(2, 2)))
	must(p.AddTenant(&sim.Tenant{
		Name: "quiet-be", Cores: []int{2}, CLOS: 3,
		Priority: sim.BestEffort,
		Workers:  []sim.Worker{idleBE},
	}))

	g := tgen.NewGenerator(p.GeneratorRate(tgen.LineRatePPS(40, 1500)), 1500,
		pkt.NewFlowSet(1<<20, 0, 7), 42)
	p.AttachGenerator(g, dev, 0)

	if iat {
		_, err := bridge.NewIAT(p, bridge.ScaledParams(100, 0.5e9), core.Options{DisableDDIOAdjust: true})
		must(err)
	}
	return p, victim
}

func measure(p *sim.Platform, x *workload.XMem) (mops, latNS float64) {
	p.Run(3e9)
	a := x.Stats()
	cycA := p.CoreCycles(1)
	p.Run(2e9)
	d := x.Stats().Sub(a)
	cyc := p.CoreCycles(1) - cycA
	if cyc > 0 {
		mops = float64(d.Ops) * p.Cfg.FreqGHz * 1e9 / float64(cyc) / 1e6
	}
	return mops, d.AvgLatCycles() / p.Cfg.FreqGHz
}

func main() {
	ways := 11
	fmt.Println("victim: 8MB random-read X-Mem with two 'dedicated' LLC ways")
	fmt.Println("background: l3fwd at 1.5KB line rate (DDIO on the top two ways)")
	fmt.Println()

	p, x := build(cache.ContiguousMask(3, 2), false)
	mops, lat := measure(p, x)
	fmt.Printf("%-34s %6.2f Mops/s  %6.1f ns\n", "ways 3-4 (truly dedicated):", mops, lat)

	p, x = build(cache.ContiguousMask(ways-2, 2), false)
	mops, lat = measure(p, x)
	fmt.Printf("%-34s %6.2f Mops/s  %6.1f ns   <- the latent contender\n",
		"ways 9-10 (the DDIO ways):", mops, lat)

	p, x = build(cache.ContiguousMask(ways-2, 2), true)
	mops, lat = measure(p, x)
	fmt.Printf("%-34s %6.2f Mops/s  %6.1f ns   <- IAT shuffles the victim away\n",
		"ways 9-10 + IAT:", mops, lat)
	fmt.Printf("\nvictim's final mask under IAT: %v (DDIO mask %v)\n",
		p.RDT.CLOSMask(2), p.RDT.DDIOMask())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
