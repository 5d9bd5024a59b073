package tgen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"iatsim/internal/pkt"
	"iatsim/internal/ycsb"
)

func TestLineRatePPS(t *testing.T) {
	// The paper's example: 100Gb at 64B (+20B overhead) = 148.8Mpps.
	if got := LineRatePPS(100, 64); math.Abs(got-148.8e6) > 0.1e6 {
		t.Fatalf("100G/64B = %.2fMpps, want ~148.8", got/1e6)
	}
	// 40Gb at 1500B ~ 3.29Mpps.
	if got := LineRatePPS(40, 1500); math.Abs(got-3.29e6) > 0.01e6 {
		t.Fatalf("40G/1500B = %.2fMpps", got/1e6)
	}
}

func TestArrivalsExactLongRun(t *testing.T) {
	g := NewGenerator(1e6, 64, pkt.NewFlowSet(4, 0, 1), 1)
	total := 0
	now := 0.0
	const dt = 50e3 // 50us windows
	for i := 0; i < 20000; i++ {
		total += g.Arrivals(now, dt)
		now += dt
	}
	want := 1e6 * now / 1e9
	if math.Abs(float64(total)-want) > 1 {
		t.Fatalf("arrivals = %d, want %.0f", total, want)
	}
}

func TestArrivalsFractionalCarry(t *testing.T) {
	g := NewGenerator(1000, 64, pkt.NewFlowSet(1, 0, 1), 1)
	// 0.1 packets per window: exactly one arrival every 10 windows.
	count := 0
	for i := 0; i < 1000; i++ {
		count += g.Arrivals(float64(i)*100e3, 100e3)
	}
	// 0.1/window x 1000 windows = 100, within float accumulation error.
	if count < 99 || count > 100 {
		t.Fatalf("arrivals = %d, want ~100", count)
	}
}

func TestBurstPreservesAverage(t *testing.T) {
	g := NewGenerator(1e6, 64, pkt.NewFlowSet(4, 0, 1), 1)
	g.Burst = &Burst{PeriodNS: 1e6, Duty: 0.25}
	total := 0
	now := 0.0
	const dt = 37e3 // deliberately not a divisor of the period
	for now < 1e9 {
		total += g.Arrivals(now, dt)
		now += dt
	}
	want := 1e6 * now / 1e9
	if math.Abs(float64(total)-want)/want > 0.01 {
		t.Fatalf("bursty arrivals = %d, want ~%.0f", total, want)
	}
}

func TestBurstConcentratesInOnPhase(t *testing.T) {
	g := NewGenerator(1e6, 64, pkt.NewFlowSet(4, 0, 1), 1)
	g.Burst = &Burst{PeriodNS: 1e6, Duty: 0.5}
	on := g.Arrivals(0, 0.5e6)      // first half: on
	off := g.Arrivals(0.5e6, 0.5e6) // second half: off
	if off != 0 {
		t.Fatalf("off-phase arrivals = %d", off)
	}
	if on == 0 {
		t.Fatal("on-phase has no arrivals")
	}
}

func TestNextRespectsSizeAndFlows(t *testing.T) {
	fs := pkt.NewFlowSet(4, 9, 1)
	g := NewGenerator(1e6, 777, fs, 1)
	for i := 0; i < 50; i++ {
		p := g.Next()
		if p.Size != 777 {
			t.Fatalf("size = %d", p.Size)
		}
		if p.Flow.VLAN != 9 {
			t.Fatalf("vlan = %d", p.Flow.VLAN)
		}
	}
}

func TestSizeForHook(t *testing.T) {
	g := NewGenerator(1e6, 100, pkt.NewFlowSet(1, 0, 1), 1)
	g.NewApp = func(_ *rand.Rand) ycsb.Request { return ycsb.Request{Key: 17, Op: ycsb.Update} }
	g.SizeFor = func(r ycsb.Request) int { return int(r.Key) * 10 }
	if p := g.Next(); p.Size != 170 || p.Req.Key != 17 || p.Req.Op != ycsb.Update {
		t.Fatalf("packet = %+v", p)
	}
}

// TestNextWithRequestAllocatesNothing guards the KV client path: a packet
// carrying a YCSB request is built by value, with no heap object.
func TestNextWithRequestAllocatesNothing(t *testing.T) {
	gen := ycsb.NewGenerator(ycsb.CoreWorkloads()[0], 1<<20, 1)
	g := NewGenerator(1e6, 128, pkt.NewFlowSet(8, 0, 1), 1)
	g.NewApp = func(_ *rand.Rand) ycsb.Request { return gen.Next() }
	g.SizeFor = func(r ycsb.Request) int { return 128 + int(r.Op) }
	var sink pkt.Packet
	if a := testing.AllocsPerRun(1000, func() { sink = g.Next() }); a != 0 {
		t.Fatalf("Generator.Next with a request hook: %v allocs/op, want 0", a)
	}
	_ = sink
}

func TestReset(t *testing.T) {
	fs := pkt.NewFlowSet(64, 0, 1)
	g1 := NewGenerator(1e6, 64, fs, 7)
	g2 := NewGenerator(1e6, 64, fs, 7)
	for i := 0; i < 10; i++ {
		g1.Next()
	}
	g1.Arrivals(0, 12345)
	g1.Reset(7)
	for i := 0; i < 10; i++ {
		a, b := g1.Next(), g2.Next()
		if a.Flow != b.Flow {
			t.Fatalf("packet %d differs after reset", i)
		}
	}
}

func TestRFC2544SearchFindsCapacity(t *testing.T) {
	const capacity = 7.3e6
	trial := func(rate float64) (uint64, float64) {
		if rate > capacity {
			return uint64(rate - capacity), capacity
		}
		return 0, rate
	}
	res := RFC2544Search(59.5e6, 0.01, trial)
	if math.Abs(res.MaxRatePPS-capacity) > 0.01*59.5e6 {
		t.Fatalf("search found %.2fMpps, want ~%.2f", res.MaxRatePPS/1e6, capacity/1e6)
	}
	if res.Trials < 5 {
		t.Fatalf("suspiciously few trials: %d", res.Trials)
	}
}

func TestRFC2544LineRatePassesImmediately(t *testing.T) {
	trial := func(rate float64) (uint64, float64) { return 0, rate }
	res := RFC2544Search(10e6, 0.01, trial)
	if res.MaxRatePPS != 10e6 || res.Trials != 1 {
		t.Fatalf("result = %+v", res)
	}
}

// Property: the search result never exceeds the capacity of a synthetic
// threshold device and converges within tolerance.
func TestRFC2544Property(t *testing.T) {
	f := func(capFrac uint8) bool {
		capacity := 1e6 * (0.05 + float64(capFrac%100)/110)
		trial := func(rate float64) (uint64, float64) {
			if rate > capacity {
				return 1, capacity
			}
			return 0, rate
		}
		res := RFC2544Search(1e6, 0.01, trial)
		return res.MaxRatePPS <= capacity && capacity-res.MaxRatePPS <= 0.02e6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
