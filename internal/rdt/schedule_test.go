// External test package: internal/faults imports rdt (for CounterBits),
// so the fault-schedule test cannot live in package rdt itself.
package rdt_test

import (
	"testing"

	"iatsim/internal/faults"
	"iatsim/internal/msr"
	"iatsim/internal/rdt"
)

// TestMemoizedPathsAreFaultScheduleInvariant proves the datapath
// memoization is invisible to the chaos harness: with counter-fault
// injection armed, the corrupted counter stream the daemon observes is
// identical whether or not masks and throttles are resolved (memoized,
// Peek-based) between the polls. A memoized path that consumed injector
// PRNG state or tripped the per-address fault bookkeeping would shift
// every subsequent corruption.
func TestMemoizedPathsAreFaultScheduleInvariant(t *testing.T) {
	sample := func(interleave bool) []rdt.CoreCounters {
		f := msr.NewFile()
		c, err := rdt.New(rdt.Config{Cores: 4, Ways: 11, NumCLOS: 8, Slices: 18}, f)
		if err != nil {
			t.Fatal(err)
		}
		var ticks uint64
		for core := 0; core < 4; core++ {
			for ev := 0; ev < 4; ev++ {
				f.MapRead(msr.CoreCounterAddr(core, ev), func() uint64 {
					return ticks * uint64(1+core+ev)
				})
			}
		}
		var prof faults.Profile
		prof.Rates[faults.CounterWrap] = 0.2
		prof.Rates[faults.CounterZero] = 0.1
		prof.Rates[faults.CounterStale] = 0.1
		f.SetFaultHook(faults.NewInjector(prof, 7))
		var out []rdt.CoreCounters
		for i := 0; i < 200; i++ {
			ticks += 1000
			if interleave {
				for core := 0; core < 4; core++ {
					c.MaskForCore(core)
					c.MBAThrottleForCore(core)
				}
			}
			for core := 0; core < 4; core++ {
				out = append(out, c.ReadCore(core))
			}
		}
		return out
	}
	plain, interleaved := sample(false), sample(true)
	for i := range plain {
		if plain[i] != interleaved[i] {
			t.Fatalf("sample %d diverged: %+v (plain) vs %+v (interleaved)", i, plain[i], interleaved[i])
		}
	}
}
