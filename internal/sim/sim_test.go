package sim

import (
	"testing"

	"iatsim/internal/cache"
	"iatsim/internal/msr"
)

func smallConfig() Config {
	cfg := XeonGold6140(100)
	cfg.Hier = cache.HierarchyConfig{
		Cores: 4,
		L1:    cache.LevelConfig{SizeBytes: 4 << 10, Ways: 4, HitCycles: 4},
		L2:    cache.LevelConfig{SizeBytes: 32 << 10, Ways: 8, HitCycles: 14},
		LLC:   cache.LLCConfig{Slices: 2, Ways: 8, SetsPerSlice: 256, HitCycles: 44},
	}
	cfg.Cores = 4
	return cfg
}

func TestConfigDefaults(t *testing.T) {
	c := (Config{Cores: 1, FreqGHz: 1, Hier: smallConfig().Hier}).withDefaults()
	if c.Scale != 1 || c.EpochNS != 1e6 || c.Microticks != 20 || c.NumCLOS != 16 || c.BaseCPI != 0.5 {
		t.Fatalf("defaults = %+v", c)
	}
	if c.AmbientFillPS != 20e6 {
		t.Fatalf("ambient default = %v", c.AmbientFillPS)
	}
}

func TestCycleBudget(t *testing.T) {
	cfg := XeonGold6140(100)
	// 2.3GHz * 50us / 100 = 1150 cycles per microtick.
	if b := cfg.CycleBudget(); b < 1149 || b > 1150 { // float rounding
		t.Fatalf("budget = %d", b)
	}
}

func TestXeonGold6140MatchesTableI(t *testing.T) {
	cfg := XeonGold6140(1)
	if cfg.Cores != 18 || cfg.FreqGHz != 2.3 {
		t.Fatalf("cpu = %d cores @ %.1f", cfg.Cores, cfg.FreqGHz)
	}
	if cfg.Hier.LLC.Ways != 11 || cfg.Hier.LLC.Slices != 18 {
		t.Fatalf("llc = %+v", cfg.Hier.LLC)
	}
	if cfg.Hier.LLC.SizeBytes() != int(24.75*(1<<20)) {
		t.Fatalf("llc size = %d", cfg.Hier.LLC.SizeBytes())
	}
}

// spinWorker burns its whole budget on compute.
type spinWorker struct{ ops uint64 }

func (w *spinWorker) Run(ctx *Ctx) {
	for ctx.Remaining() > 0 {
		ctx.Compute(100)
		w.ops++
	}
}

// touchWorker accesses one line per invocation then stops (partially idle
// core).
type touchWorker struct{ addr uint64 }

func (w *touchWorker) Run(ctx *Ctx) {
	ctx.Access(w.addr, false)
}

func TestTenantValidation(t *testing.T) {
	p := NewPlatform(smallConfig())
	if err := p.AddTenant(&Tenant{Name: "bad", Cores: []int{0, 1}, Workers: []Worker{&spinWorker{}}}); err == nil {
		t.Error("mismatched workers/cores accepted")
	}
	if err := p.AddTenant(&Tenant{Name: "bad2", Cores: []int{99}, Workers: []Worker{&spinWorker{}}}); err == nil {
		t.Error("out-of-range core accepted")
	}
	if err := p.AddTenant(&Tenant{Name: "ok", Cores: []int{0}, CLOS: 1, Workers: []Worker{&spinWorker{}}}); err != nil {
		t.Fatal(err)
	}
	if p.TenantByName("ok") == nil || p.TenantByName("nope") != nil {
		t.Error("TenantByName wrong")
	}
}

func TestCountersFlowThroughMSRs(t *testing.T) {
	p := NewPlatform(smallConfig())
	w := &spinWorker{}
	if err := p.AddTenant(&Tenant{Name: "spin", Cores: []int{0}, CLOS: 1, Workers: []Worker{w}}); err != nil {
		t.Fatal(err)
	}
	p.Run(10e6)
	instr := p.MSR.Peek(msr.CoreCounterAddr(0, msr.EvInstructions))
	cycles := p.MSR.Peek(msr.CoreCounterAddr(0, msr.EvCycles))
	if instr == 0 || cycles == 0 {
		t.Fatalf("MSR counters: instr=%d cycles=%d", instr, cycles)
	}
	if instr != p.CoreInstr(0) || cycles != p.CoreCycles(0) {
		t.Fatal("MSR view disagrees with platform view")
	}
	// A compute-only spinner at BaseCPI=0.5 retires ~2 IPC.
	ipc := float64(instr) / float64(cycles)
	if ipc < 1.9 || ipc > 2.1 {
		t.Fatalf("spin IPC = %.2f, want ~2.0", ipc)
	}
}

func TestIdleCoreAccumulatesNoCycles(t *testing.T) {
	p := NewPlatform(smallConfig())
	w := &touchWorker{addr: 0x1000}
	if err := p.AddTenant(&Tenant{Name: "touch", Cores: []int{1}, CLOS: 1, Workers: []Worker{w}}); err != nil {
		t.Fatal(err)
	}
	p.Run(10e6)
	// One access per microtick: far fewer cycles than the full budget.
	budget := uint64(p.Cfg.CycleBudget()) * uint64(10e6/p.Cfg.EpochNS*float64(p.Cfg.Microticks))
	if c := p.CoreCycles(1); c >= budget/2 {
		t.Fatalf("mostly idle core counted %d of %d budget cycles", c, budget)
	}
}

// hogWorker overshoots its budget in one operation (simulating a long
// uninterruptible op), testing debt carry.
type hogWorker struct{ runs int }

func (w *hogWorker) Run(ctx *Ctx) {
	w.runs++
	ctx.Stall(10 * ctx.Remaining()) // 10x overshoot
}

func TestBudgetDebtCarry(t *testing.T) {
	p := NewPlatform(smallConfig())
	w := &hogWorker{}
	if err := p.AddTenant(&Tenant{Name: "hog", Cores: []int{0}, CLOS: 1, Workers: []Worker{w}}); err != nil {
		t.Fatal(err)
	}
	p.Run(1e6) // 20 microticks
	// With a 10x overshoot the worker must be scheduled roughly every
	// 10th microtick, not every microtick.
	if w.runs > 4 {
		t.Fatalf("hog ran %d times in 20 microticks despite debt", w.runs)
	}
}

func TestControllersTickOncePerEpoch(t *testing.T) {
	p := NewPlatform(smallConfig())
	n := 0
	p.AddController(ControllerFunc(func(nowNS float64) { n++ }))
	p.Run(5e6)
	if n != 5 {
		t.Fatalf("controller ticked %d times over 5 epochs", n)
	}
}

func TestTimeAdvances(t *testing.T) {
	p := NewPlatform(smallConfig())
	p.Run(3e6)
	if p.NowNS() != 3e6 {
		t.Fatalf("now = %v", p.NowNS())
	}
}

func TestGeneratorRateScaling(t *testing.T) {
	p := NewPlatform(smallConfig())
	if p.GeneratorRate(1e6) != 1e4 {
		t.Fatalf("scaled rate = %v", p.GeneratorRate(1e6))
	}
	if p.ScaledPPS(1e4) != 1e6 {
		t.Fatalf("unscaled rate = %v", p.ScaledPPS(1e4))
	}
}

func TestAmbientChurnRuns(t *testing.T) {
	cfg := smallConfig()
	cfg.AmbientFillPS = 1e9 // heavy, scaled to 1e7/s
	p := NewPlatform(cfg)
	p.Run(2e6)
	occ := 0
	for _, n := range p.Hier.LLC().OccupancyByWay() {
		occ += n
	}
	if occ == 0 {
		t.Fatal("ambient churn left the LLC empty")
	}
	// Ambient churn must not pollute demand counters.
	if p.Hier.LLC().CoreRefs(0) != 0 {
		t.Fatal("ambient churn counted as demand references")
	}
}

func TestAmbientChurnDisable(t *testing.T) {
	cfg := smallConfig()
	cfg.AmbientFillPS = -1
	p := NewPlatform(cfg)
	p.Run(2e6)
	occ := 0
	for _, n := range p.Hier.LLC().OccupancyByWay() {
		occ += n
	}
	if occ != 0 {
		t.Fatal("disabled ambient churn still filled the LLC")
	}
}

func TestMaskForCoreFollowsAssoc(t *testing.T) {
	p := NewPlatform(smallConfig())
	if err := p.RDT.SetCLOSMask(3, cache.ContiguousMask(2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := p.AddTenant(&Tenant{Name: "x", Cores: []int{2}, CLOS: 3, Workers: []Worker{&spinWorker{}}}); err != nil {
		t.Fatal(err)
	}
	if got := p.RDT.MaskForCore(2); got != cache.ContiguousMask(2, 2) {
		t.Fatalf("effective mask = %v", got)
	}
}

func TestPriorityString(t *testing.T) {
	if BestEffort.String() != "BE" || PerformanceCritical.String() != "PC" || Stack.String() != "stack" {
		t.Error("priority strings wrong")
	}
}

// memWorker hammers memory with LLC misses (random lines between 32 and
// 64 GiB, inside the cache model's address bound).
type memWorker struct {
	next uint64
	ops  uint64
}

func (w *memWorker) Run(ctx *Ctx) {
	for ctx.Remaining() > 0 {
		w.next = w.next*6364136223846793005 + 1442695040888963407
		ctx.Access(1<<35|(w.next>>34<<6), false)
		w.ops++
	}
}

func TestMBAThrottleSlowsMemoryBoundClass(t *testing.T) {
	run := func(throttle int) uint64 {
		p := NewPlatform(smallConfig())
		w := &memWorker{next: 1}
		if err := p.RDT.SetMBAThrottle(2, throttle); err != nil {
			t.Fatal(err)
		}
		if err := p.AddTenant(&Tenant{Name: "m", Cores: []int{0}, CLOS: 2, Workers: []Worker{w}}); err != nil {
			t.Fatal(err)
		}
		p.Run(20e6)
		return w.ops
	}
	free := run(0)
	half := run(50)
	ninety := run(90)
	if half >= free {
		t.Fatalf("50%% MBA throttle did not slow the class: %d vs %d ops", half, free)
	}
	if ninety >= half {
		t.Fatalf("90%% throttle (%d ops) not slower than 50%% (%d)", ninety, half)
	}
}

func TestMBAThrottleSparesCacheResidentClass(t *testing.T) {
	run := func(throttle int) uint64 {
		p := NewPlatform(smallConfig())
		w := &spinWorker{}
		if err := p.RDT.SetMBAThrottle(2, throttle); err != nil {
			t.Fatal(err)
		}
		if err := p.AddTenant(&Tenant{Name: "s", Cores: []int{0}, CLOS: 2, Workers: []Worker{w}}); err != nil {
			t.Fatal(err)
		}
		p.Run(10e6)
		return w.ops
	}
	if free, thr := run(0), run(90); thr < free*99/100 {
		t.Fatalf("compute-bound class hurt by MBA: %d vs %d ops", thr, free)
	}
}

// ctxProbe captures a Ctx for direct method tests.
type ctxProbe struct {
	fn func(*Ctx)
}

func (c *ctxProbe) Run(ctx *Ctx) { c.fn(ctx) }

// withCtx runs fn once inside a real platform microtick.
func withCtx(t *testing.T, fn func(*Ctx)) *Platform {
	t.Helper()
	p := NewPlatform(smallConfig())
	done := false
	probe := &ctxProbe{fn: func(ctx *Ctx) {
		if !done {
			fn(ctx)
			done = true
		}
	}}
	if err := p.AddTenant(&Tenant{Name: "probe", Cores: []int{0}, CLOS: 1, Workers: []Worker{probe}}); err != nil {
		t.Fatal(err)
	}
	p.Step()
	return p
}

func TestCtxComputeChargesBaseCPI(t *testing.T) {
	withCtx(t, func(ctx *Ctx) {
		before := ctx.Remaining()
		ctx.Compute(100)
		if spent := before - ctx.Remaining(); spent != 50 { // BaseCPI 0.5
			t.Fatalf("compute(100) spent %d cycles", spent)
		}
		ctx.Compute(-5) // no-op
		ctx.Stall(7)
		if ctx.Remaining() != before-50-7 {
			t.Fatal("stall accounting wrong")
		}
	})
}

func TestCtxAccessRangeMLPDiscount(t *testing.T) {
	withCtx(t, func(ctx *Ctx) {
		// Serial accesses to cold lines.
		serialStart := ctx.Remaining()
		for i := 0; i < 16; i++ {
			ctx.Access(uint64(0x100000+i*64), false)
		}
		serial := serialStart - ctx.Remaining()
		// Streaming access to equally cold lines.
		streamStart := ctx.Remaining()
		ctx.AccessRange(0x200000, 16*64, false)
		stream := streamStart - ctx.Remaining()
		if stream*2 >= serial {
			t.Fatalf("streaming (%d cy) not clearly cheaper than serial (%d cy)", stream, serial)
		}
	})
}

func TestCtxAccessPipelinedDiscount(t *testing.T) {
	withCtx(t, func(ctx *Ctx) {
		full := ctx.Access(0x300000, false)
		piped := ctx.AccessPipelined(0x310000, false)
		if piped >= full {
			t.Fatalf("pipelined access (%d cy) not cheaper than serial (%d cy)", piped, full)
		}
		if piped < 1 {
			t.Fatalf("pipelined access charged %d", piped)
		}
	})
}

func TestCtxCyclesNSUsesUnscaledClock(t *testing.T) {
	withCtx(t, func(ctx *Ctx) {
		// 2.3 cycles per ns at 2.3GHz, independent of Scale.
		if ns := ctx.CyclesNS(230); ns < 99 || ns > 101 {
			t.Fatalf("CyclesNS(230) = %v", ns)
		}
	})
}

func TestCtxRetiresInstructionsPerAccess(t *testing.T) {
	p := withCtx(t, func(ctx *Ctx) {
		ctx.Access(0x400000, false)
		ctx.AccessRange(0x500000, 4*64, false)
		ctx.Compute(10)
	})
	// 1 + 4 + 10 retired.
	if got := p.CoreInstr(0); got != 15 {
		t.Fatalf("retired %d instructions, want 15", got)
	}
}

func TestCtxCoreAndNow(t *testing.T) {
	withCtx(t, func(ctx *Ctx) {
		if ctx.Core() != 0 {
			t.Fatalf("core = %d", ctx.Core())
		}
		if ctx.NowNS() < 0 {
			t.Fatal("NowNS negative")
		}
		if ctx.Platform() == nil {
			t.Fatal("platform not exposed")
		}
	})
}
