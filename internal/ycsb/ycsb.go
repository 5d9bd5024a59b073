// Package ycsb implements the Yahoo! Cloud Serving Benchmark machinery the
// paper drives Redis and RocksDB with (Sec. VI-C): the standard core
// workloads A–F, the scrambled Zipfian and latest request distributions,
// and latency histograms with percentile extraction.
package ycsb

import (
	"fmt"
	"math"
	"math/rand"
)

// Op is a key-value operation type.
type Op int32

// Operation kinds of the YCSB core workloads.
const (
	Read Op = iota
	Update
	Insert
	Scan
	ReadModifyWrite
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Read:
		return "READ"
	case Update:
		return "UPDATE"
	case Insert:
		return "INSERT"
	case Scan:
		return "SCAN"
	case ReadModifyWrite:
		return "RMW"
	}
	return "?"
}

// Request is one generated operation. It travels by value inside every
// KV packet (pkt.Packet.Req), so it is kept to 16 bytes: the key first,
// then the two 32-bit fields.
type Request struct {
	Key uint64
	// ScanLen is the number of records a Scan touches.
	ScanLen int32
	Op      Op
}

// Workload is a YCSB core-workload definition: an operation mix plus a
// request distribution.
type Workload struct {
	Name       string
	ReadProp   float64
	UpdateProp float64
	InsertProp float64
	ScanProp   float64
	RMWProp    float64
	// Latest selects the "latest" distribution (workload D) instead of
	// scrambled Zipfian.
	Latest  bool
	ScanLen int
}

// CoreWorkloads returns the six standard workloads. E uses short scans
// (mean 16) to bound simulation cost; the paper's YCSB runs use the
// defaults.
func CoreWorkloads() []Workload {
	return []Workload{
		{Name: "A", ReadProp: 0.5, UpdateProp: 0.5},
		{Name: "B", ReadProp: 0.95, UpdateProp: 0.05},
		{Name: "C", ReadProp: 1.0},
		{Name: "D", ReadProp: 0.95, InsertProp: 0.05, Latest: true},
		{Name: "E", ScanProp: 0.95, InsertProp: 0.05, ScanLen: 16},
		{Name: "F", ReadProp: 0.5, RMWProp: 0.5},
	}
}

// WorkloadByName finds one of the core workloads.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range CoreWorkloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("ycsb: unknown workload %q", name)
}

// Generator produces Requests for a Workload over a keyspace of n records.
type Generator struct {
	w      Workload
	zipf   *Zipfian
	n      uint64
	latest uint64 // highest key inserted so far (for D)
	rng    *rand.Rand
}

// NewGenerator builds a generator over n records with the paper's 0.99
// Zipfian constant.
func NewGenerator(w Workload, n uint64, seed int64) *Generator {
	rng := rand.New(rand.NewSource(seed))
	z := NewZipfian(n, 0.99, seed+1)
	if w.Latest {
		// The "latest" distribution samples an offset from the most
		// recent insert: rank 0 must stay the hottest, so the key
		// scrambling is disabled.
		z.scramble = false
	}
	return &Generator{
		w:      w,
		zipf:   z,
		n:      n,
		latest: n - 1,
		rng:    rng,
	}
}

// Next produces the next request.
func (g *Generator) Next() Request {
	r := g.rng.Float64()
	w := g.w
	switch {
	case r < w.ReadProp:
		return Request{Op: Read, Key: g.nextKey()}
	case r < w.ReadProp+w.UpdateProp:
		return Request{Op: Update, Key: g.nextKey()}
	case r < w.ReadProp+w.UpdateProp+w.InsertProp:
		g.latest++
		return Request{Op: Insert, Key: g.latest % g.n}
	case r < w.ReadProp+w.UpdateProp+w.InsertProp+w.ScanProp:
		ln := 1 + g.rng.Intn(2*w.ScanLen)
		return Request{Op: Scan, Key: g.nextKey(), ScanLen: int32(ln)}
	default:
		return Request{Op: ReadModifyWrite, Key: g.nextKey()}
	}
}

func (g *Generator) nextKey() uint64 {
	if g.w.Latest {
		// "latest": Zipfian over recency — key = latest - zipf sample.
		off := g.zipf.Next(g.rng)
		if off > g.latest {
			off = g.latest
		}
		return (g.latest - off) % g.n
	}
	return g.zipf.Next(g.rng)
}

// Zipfian is the Gray et al. Zipfian generator used by YCSB, with key
// scrambling so the hot keys are spread over the keyspace.
type Zipfian struct {
	n          uint64
	theta      float64
	alpha      float64
	zetan      float64
	eta        float64
	zeta2theta float64
	scramble   bool
}

// NewZipfian builds a generator over [0, n) with parameter theta.
func NewZipfian(n uint64, theta float64, seed int64) *Zipfian {
	z := &Zipfian{n: n, theta: theta, scramble: true}
	z.zeta2theta = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.zetan = zeta(n, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2theta/z.zetan)
	_ = seed
	return z
}

func zeta(n uint64, theta float64) float64 {
	// For large n, approximate the tail with the integral; exact sum for
	// the first 10k terms keeps the head accurate where it matters.
	const exact = 10000
	var s float64
	m := n
	if m > exact {
		m = exact
	}
	for i := uint64(1); i <= m; i++ {
		s += 1 / math.Pow(float64(i), theta)
	}
	if n > exact {
		// integral of x^-theta from exact to n
		s += (math.Pow(float64(n), 1-theta) - math.Pow(float64(exact), 1-theta)) / (1 - theta)
	}
	return s
}

// Next samples a key.
func (z *Zipfian) Next(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	var k uint64
	switch {
	case uz < 1:
		k = 0
	case uz < 1+math.Pow(0.5, z.theta):
		k = 1
	default:
		k = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if k >= z.n {
		k = z.n - 1
	}
	if z.scramble {
		return scrambleKey(k) % z.n
	}
	return k
}

func scrambleKey(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xFF51AFD7ED558CCD
	k ^= k >> 33
	k *= 0xC4CEB9FE1A85EC53
	k ^= k >> 33
	return k
}

// Histogram is a log-bucketed latency histogram (nanosecond samples).
type Histogram struct {
	buckets [64]uint64
	count   uint64
	sum     float64
	max     float64
}

// bucketOf maps a sample to its power-of-two bucket.
func bucketOf(ns float64) int {
	if ns < 1 {
		return 0
	}
	b := int(math.Log2(ns))
	if b > 63 {
		b = 63
	}
	return b
}

// Record adds a sample in nanoseconds.
func (h *Histogram) Record(ns float64) {
	h.buckets[bucketOf(ns)]++
	h.count++
	h.sum += ns
	if ns > h.max {
		h.max = ns
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the average sample, or 0.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest sample.
func (h *Histogram) Max() float64 { return h.max }

// Percentile returns an upper-bound estimate of the p-th percentile
// (p in (0,100]), using the bucket upper edge.
func (h *Histogram) Percentile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(p / 100 * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			return math.Pow(2, float64(i+1))
		}
	}
	return h.max
}

// Merge adds o's samples into h (bucket-wise; max/mean preserved
// appropriately).
func (h *Histogram) Merge(o *Histogram) {
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Reset clears the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }
