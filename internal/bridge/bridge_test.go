package bridge

import (
	"testing"

	"iatsim/internal/cache"
	"iatsim/internal/core"
	"iatsim/internal/policy"
	"iatsim/internal/sim"
)

// idle is a do-nothing worker.
type idle struct{}

func (idle) Run(*sim.Ctx) {}

func smallPlatform(t *testing.T) *sim.Platform {
	t.Helper()
	cfg := sim.XeonGold6140(100)
	cfg.Cores = 4
	cfg.Hier = cache.HierarchyConfig{
		Cores: 4,
		L1:    cache.LevelConfig{SizeBytes: 4 << 10, Ways: 4, HitCycles: 4},
		L2:    cache.LevelConfig{SizeBytes: 32 << 10, Ways: 8, HitCycles: 14},
		LLC:   cache.LLCConfig{Slices: 2, Ways: 8, SetsPerSlice: 256, HitCycles: 44},
	}
	return sim.NewPlatform(cfg)
}

func TestSystemMapsTenants(t *testing.T) {
	p := smallPlatform(t)
	if err := p.AddTenant(&sim.Tenant{
		Name: "a", Cores: []int{0, 1}, CLOS: 2,
		Priority: sim.Stack, IsIO: true,
		Workers: []sim.Worker{idle{}, idle{}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddTenant(&sim.Tenant{
		Name: "b", Cores: []int{2}, CLOS: 3,
		Priority: sim.PerformanceCritical,
		Workers:  []sim.Worker{idle{}},
	}); err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(p)
	ts := sys.Tenants()
	if len(ts) != 2 {
		t.Fatalf("tenants = %d", len(ts))
	}
	if ts[0].Priority != core.Stack || !ts[0].IO || ts[0].CLOS != 2 || len(ts[0].Cores) != 2 {
		t.Fatalf("tenant a = %+v", ts[0])
	}
	if ts[1].Priority != core.PC || ts[1].IO {
		t.Fatalf("tenant b = %+v", ts[1])
	}
}

func TestSystemRegisterPassThrough(t *testing.T) {
	p := smallPlatform(t)
	sys := NewSystem(p)
	if sys.NumWays() != 8 {
		t.Fatalf("ways = %d", sys.NumWays())
	}
	m := cache.ContiguousMask(1, 3)
	if err := sys.SetCLOSMask(4, m); err != nil {
		t.Fatal(err)
	}
	if sys.CLOSMask(4) != m || p.RDT.CLOSMask(4) != m {
		t.Fatal("CLOS mask did not pass through")
	}
	dm := cache.ContiguousMask(5, 3)
	if err := sys.SetDDIOMask(dm); err != nil {
		t.Fatal(err)
	}
	if sys.DDIOMask() != dm {
		t.Fatal("DDIO mask did not pass through")
	}
}

func TestSystemCountersLive(t *testing.T) {
	p := smallPlatform(t)
	sys := NewSystem(p)
	before := sys.ReadCore(0)
	p.Run(1e6)
	// No tenants: counters stay zero but reads must work.
	after := sys.ReadCore(0)
	if before.Instructions != 0 || after.Cycles != 0 {
		t.Fatalf("unexpected counters: %+v / %+v", before, after)
	}
	_ = sys.ReadDDIO()
}

func TestNewIATRegistersController(t *testing.T) {
	p := smallPlatform(t)
	if err := p.AddTenant(&sim.Tenant{
		Name: "a", Cores: []int{0}, CLOS: 1, Workers: []sim.Worker{idle{}},
	}); err != nil {
		t.Fatal(err)
	}
	params := core.DefaultParams()
	params.IntervalNS = 1e6
	d, err := NewIAT(p, params, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(5e6)
	// The daemon must have been ticked by the platform (first iterations
	// establish baselines; Iterations counts post-baseline passes).
	if d.State() != policy.LowKeep {
		t.Fatalf("state = %v", d.State())
	}
	if total, _ := d.Iterations(); total == 0 {
		t.Fatal("daemon never iterated")
	}
}

// TestScaledParams: both real-time rates shrink by the platform scale,
// the interval is applied only when positive, and nothing else moves.
func TestScaledParams(t *testing.T) {
	def := core.DefaultParams()
	want := def
	want.IntervalNS = 0.2e9
	want.ThresholdMissLowPerSec = def.ThresholdMissLowPerSec / 100
	want.SaneRateMax = def.SaneRateMax / 100
	if got := ScaledParams(100, 0.2e9); got != want {
		t.Fatalf("ScaledParams(100, 0.2e9) = %+v, want %+v", got, want)
	}
	if got := ScaledParams(1, 0); got != def {
		t.Fatalf("ScaledParams(1, 0) = %+v, want Table II %+v", got, def)
	}
}
