// Package tgen provides the traffic generator machinery: constant-rate and
// bursty packet sources, line-rate helpers, and the RFC 2544 zero-drop
// maximum-throughput search the paper's Fig. 3 uses.
package tgen

import (
	"math/rand"

	"iatsim/internal/pkt"
	"iatsim/internal/ycsb"
)

// LineRatePPS returns the packet rate of a fully loaded Ethernet link of
// gbps for the given frame size, accounting for the 20B per-frame overhead
// (preamble + IFG) the paper's 148.8Mpps example uses.
func LineRatePPS(gbps float64, frameSize int) float64 {
	return gbps * 1e9 / 8 / float64(frameSize+20)
}

// Generator produces packets of one traffic profile at a configurable rate.
// It is deterministic given its seed.
type Generator struct {
	// RatePPS is the offered load in packets per second (unscaled; the
	// platform divides by its Scale).
	RatePPS float64
	// Size is the frame size in bytes.
	Size int
	// Flows is the flow universe packets are drawn from.
	Flows *pkt.FlowSet
	// Burst optionally modulates the rate with an on/off pattern:
	// during "off" phases no packets are emitted, during "on" phases the
	// rate is scaled so the average remains RatePPS. Nil means constant
	// rate.
	Burst *Burst
	// NewApp, when set, attaches a YCSB request to each packet (the KVS
	// experiments' client traffic).
	NewApp func(rng *rand.Rand) ycsb.Request
	// SizeFor, when set together with NewApp, derives the wire size from
	// the request (e.g. a KV update carries its value).
	SizeFor func(req ycsb.Request) int
	// Window, when positive, makes the generator closed-loop with that
	// many outstanding requests (a YCSB client with Window threads):
	// arrivals stall once Window requests are in flight until Complete
	// returns credits. 0 keeps the generator open-loop.
	Window int

	rng         *rand.Rand
	acc         float64
	outstanding int
}

// Burst is an on/off (telegraph) rate modulator with the given period and
// duty cycle.
type Burst struct {
	PeriodNS float64 // full on+off cycle length
	Duty     float64 // fraction of the period that is "on" (0,1]
}

// NewGenerator builds a generator; seed fixes the flow-pick sequence.
func NewGenerator(ratePPS float64, size int, flows *pkt.FlowSet, seed int64) *Generator {
	return &Generator{
		RatePPS: ratePPS,
		Size:    size,
		Flows:   flows,
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Arrivals returns how many packets arrive in the window [nowNS,
// nowNS+dtNS) at the generator's (possibly burst-modulated) rate, carrying
// fractional packets across calls so long-run averages are exact. Burst
// on/off boundaries are integrated exactly, so windows shorter or longer
// than the burst phase both work.
func (g *Generator) Arrivals(nowNS, dtNS float64) int {
	var pkts float64
	if g.Burst == nil || g.Burst.PeriodNS <= 0 || g.Burst.Duty >= 1 {
		pkts = g.RatePPS * dtNS / 1e9
	} else {
		// Fraction of [nowNS, nowNS+dtNS) overlapping "on" phases.
		on := g.onTime(nowNS, nowNS+dtNS)
		pkts = g.RatePPS / g.Burst.Duty * on / 1e9
	}
	g.acc += pkts
	n := int(g.acc)
	g.acc -= float64(n)
	if g.Window > 0 {
		if free := g.Window - g.outstanding; n > free {
			g.acc = 0 // closed loop: no arrival backlog accrues
			n = free
		}
		g.outstanding += n
	}
	return n
}

// Complete returns one credit to a closed-loop generator (a response
// reached the client, or the request was dropped and the client timed out).
// No-op for open-loop generators.
func (g *Generator) Complete() {
	if g.Window > 0 && g.outstanding > 0 {
		g.outstanding--
	}
}

// Outstanding returns the in-flight request count of a closed-loop
// generator.
func (g *Generator) Outstanding() int { return g.outstanding }

// onTime returns how much of [a, b) overlaps the burst's on-phases.
func (g *Generator) onTime(a, b float64) float64 {
	p := g.Burst.PeriodNS
	onLen := p * g.Burst.Duty
	var total float64
	// Walk the periods overlapping [a, b).
	start := float64(int64(a/p)) * p
	for t := start; t < b; t += p {
		lo := t
		hi := t + onLen
		if lo < a {
			lo = a
		}
		if hi > b {
			hi = b
		}
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}

// Next produces the next packet.
func (g *Generator) Next() pkt.Packet {
	p := pkt.Packet{Flow: g.Flows.Pick(g.rng), Size: g.Size}
	if g.NewApp != nil {
		p.Req = g.NewApp(g.rng)
		if g.SizeFor != nil {
			p.Size = g.SizeFor(p.Req)
		}
	}
	return p
}

// Reset clears accumulated fractional arrivals (between RFC2544 trials).
func (g *Generator) Reset(seed int64) {
	g.acc = 0
	g.rng = rand.New(rand.NewSource(seed))
}

// TrialFunc runs one RFC 2544 trial at the given offered rate (packets per
// second) and reports the observed drop count and the delivered throughput
// in packets per second.
type TrialFunc func(ratePPS float64) (drops uint64, deliveredPPS float64)

// RFC2544Result is the outcome of a zero-drop throughput search.
type RFC2544Result struct {
	// MaxRatePPS is the highest offered rate that completed with zero
	// drops.
	MaxRatePPS float64
	// Trials is the number of trials executed.
	Trials int
}

// RFC2544Search performs the benchmark's binary search for the maximum
// zero-drop rate in [0, maxPPS], stopping when the search interval is
// within tol (a fraction of maxPPS, e.g. 0.01 for 1%).
func RFC2544Search(maxPPS, tol float64, trial TrialFunc) RFC2544Result {
	lo, hi := 0.0, maxPPS
	res := RFC2544Result{}
	// First probe at line rate: if it passes, we are done.
	if d, _ := trial(maxPPS); d == 0 {
		return RFC2544Result{MaxRatePPS: maxPPS, Trials: 1}
	}
	res.Trials = 1
	for hi-lo > tol*maxPPS {
		mid := (lo + hi) / 2
		drops, _ := trial(mid)
		res.Trials++
		if drops == 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	res.MaxRatePPS = lo
	return res
}
