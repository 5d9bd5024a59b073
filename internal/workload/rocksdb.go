package workload

import (
	"math/rand"

	"iatsim/internal/addr"
	"iatsim/internal/sim"
	"iatsim/internal/ycsb"
)

// RocksDBConfig sizes the memtable-resident store of the paper's
// application study (Sec. VI-C: 10K records of 1KB, all in the memtable so
// no storage I/O ever happens).
type RocksDBConfig struct {
	Records   uint64
	ValueSize int
	// SkipHeight is the expected pointer-chase depth of a memtable
	// (skiplist) lookup; log2(Records) by default.
	SkipHeight int
}

// DefaultRocksDBConfig matches the paper: 10K x 1KB.
func DefaultRocksDBConfig() RocksDBConfig {
	return RocksDBConfig{Records: 10000, ValueSize: 1024, SkipHeight: 14}
}

// RocksDB models the RocksDB memtable path: every operation walks a
// skiplist-like index (dependent line accesses over a node region) and then
// reads or writes the value. It is driven by a local YCSB client loop — it
// is the *non-networking* PC workload of Figs. 12/13 — and runs to a target
// operation count so execution time and per-op latency are measurable.
type RocksDB struct {
	cfg    RocksDBConfig
	nodes  addr.Region
	values addr.Region

	gen *ycsb.Generator
	rng *rand.Rand

	// TargetOps ends the run (0 = run forever).
	TargetOps uint64
	OpInstr   int64

	stats    OpStats
	hists    map[ycsb.Op]*ycsb.Histogram
	done     bool
	finishNS float64
}

// NewRocksDB builds a store running YCSB workload w.
func NewRocksDB(cfg RocksDBConfig, w ycsb.Workload, targetOps uint64, al *addr.Allocator, seed int64) *RocksDB {
	if cfg.Records == 0 {
		cfg = DefaultRocksDBConfig()
	}
	if cfg.SkipHeight == 0 {
		cfg.SkipHeight = 14
	}
	return &RocksDB{
		cfg: cfg,
		// Skiplist nodes: ~4 lines per record (node + key + meta).
		nodes:     al.Alloc(cfg.Records*4*addr.LineSize, 0),
		values:    al.Alloc(cfg.Records*uint64(cfg.ValueSize), 0),
		gen:       ycsb.NewGenerator(w, cfg.Records, seed),
		rng:       newRNG(seed + 7),
		TargetOps: targetOps,
		OpInstr:   600,
	}
}

// Done reports whether the target op count was reached.
func (r *RocksDB) Done() bool { return r.done }

// FinishNS returns the completion time (0 if not done).
func (r *RocksDB) FinishNS() float64 { return r.finishNS }

// Stats returns cumulative operation statistics.
func (r *RocksDB) Stats() OpStats { return r.stats }

// Hist returns the per-op-type latency histogram for op, or nil.
func (r *RocksDB) Hist(op ycsb.Op) *ycsb.Histogram {
	if r.hists == nil {
		return nil
	}
	return r.hists[op]
}

// Hists returns all per-op histograms.
func (r *RocksDB) Hists() map[ycsb.Op]*ycsb.Histogram { return r.hists }

func (r *RocksDB) hist(op ycsb.Op) *ycsb.Histogram {
	if r.hists == nil {
		r.hists = make(map[ycsb.Op]*ycsb.Histogram)
	}
	h := r.hists[op]
	if h == nil {
		h = &ycsb.Histogram{}
		r.hists[op] = h
	}
	return h
}

// walk charges a skiplist descent to key.
func (r *RocksDB) walk(ctx *sim.Ctx, key uint64) int64 {
	var lat int64
	n := r.nodes.Lines()
	x := key*0x9E3779B97F4A7C15 + 1
	for h := 0; h < r.cfg.SkipHeight; h++ {
		x ^= x >> 27
		x *= 0xBF58476D1CE4E5B9
		lat += ctx.Access(r.nodes.Line(int(x%uint64(n))), false)
	}
	return lat
}

// Run implements sim.Worker.
func (r *RocksDB) Run(ctx *sim.Ctx) {
	if r.done {
		return
	}
	vs := r.cfg.ValueSize
	for ctx.Remaining() > 0 {
		req := r.gen.Next()
		key := req.Key % r.cfg.Records
		start := ctx.Remaining()
		lat := r.walk(ctx, key)
		val := r.values.Base + key*uint64(vs)
		switch req.Op {
		case ycsb.Read:
			lat += ctx.AccessRange(val, vs, false)
		case ycsb.Update, ycsb.Insert:
			lat += ctx.AccessRange(val, vs, true)
		case ycsb.ReadModifyWrite:
			lat += ctx.AccessRange(val, vs, false)
			lat += ctx.AccessRange(val, vs, true)
		case ycsb.Scan:
			n := int(req.ScanLen)
			if n < 1 {
				n = 1
			}
			for i := 0; i < n; i++ {
				lat += ctx.AccessRange(r.values.Base+((key+uint64(i))%r.cfg.Records)*uint64(vs), vs, false)
			}
		}
		ctx.Compute(r.OpInstr)
		_ = lat
		svc := start - ctx.Remaining()
		r.stats.Ops++
		r.stats.LatCycles += uint64(svc)
		r.hist(req.Op).Record(ctx.CyclesNS(svc))
		if r.TargetOps > 0 && r.stats.Ops >= r.TargetOps {
			r.done = true
			r.finishNS = ctx.NowNS()
			return
		}
	}
}
