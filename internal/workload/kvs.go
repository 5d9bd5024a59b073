package workload

import (
	"iatsim/internal/addr"
	"iatsim/internal/nic"
	"iatsim/internal/sim"
	"iatsim/internal/ycsb"
)

// KVSConfig sizes a Redis-like in-memory key-value store.
type KVSConfig struct {
	Records   uint64 // preloaded record count (1M in the paper)
	ValueSize int    // bytes per value (1KB in the paper)
	// RespSize is the response wire size for reads (value + framing);
	// writes acknowledge with a single line.
	RespSize int
}

// DefaultKVSConfig matches the paper's Redis setup: 1M records of 1KB.
func DefaultKVSConfig() KVSConfig {
	return KVSConfig{Records: 1 << 20, ValueSize: 1024, RespSize: 1088}
}

// KVS models a Redis-style single-threaded in-memory store serving YCSB
// requests that arrive as packets on a virtio port (through the virtual
// switch, as in the paper's aggregation-model KVS experiment). Each request
// costs an index probe, value-sized data movement, and a response copy; the
// store's LLC behaviour therefore tracks the Zipfian locality of the
// request stream.
type KVS struct {
	Port *nic.VirtioPort
	cfg  KVSConfig

	index  addr.Region // 1 line per record (hash bucket + robj header)
	values addr.Region // ValueSize per record

	ParseInstr int64
	OpInstr    int64
	Burst      int

	stats OpStats
	hist  ycsb.Histogram
	drops uint64
}

// NewKVS builds a store preloaded with cfg.Records records.
func NewKVS(port *nic.VirtioPort, cfg KVSConfig, al *addr.Allocator) *KVS {
	if cfg.Records == 0 {
		cfg = DefaultKVSConfig()
	}
	return &KVS{
		Port:       port,
		cfg:        cfg,
		index:      al.Alloc(cfg.Records*addr.LineSize, 0),
		values:     al.Alloc(cfg.Records*uint64(cfg.ValueSize), 0),
		ParseInstr: 200,
		OpInstr:    300,
		Burst:      16,
	}
}

// valueAddr returns the first line of a record's value.
func (k *KVS) valueAddr(key uint64) uint64 {
	return k.values.Base + (key%k.cfg.Records)*uint64(k.cfg.ValueSize)
}

// Run implements sim.Worker: drain requests, execute, respond.
func (k *KVS) Run(ctx *sim.Ctx) {
	for ctx.Remaining() > 0 {
		if k.Port.Down.Empty() {
			idlePoll(ctx)
			continue
		}
		for b := 0; b < k.Burst && !k.Port.Down.Empty() && ctx.Remaining() > 0; b++ {
			slot, e, _ := k.Port.Down.Pop()
			start := ctx.Remaining()
			ctx.Access(k.Port.Down.DescAddr(slot), false)
			ctx.AccessRange(e.Buf, e.Pkt.Size, false) // read request
			ctx.Compute(k.ParseInstr)

			req := e.Pkt.Req
			key := req.Key % k.cfg.Records
			// Index probe (hash bucket + object header).
			ctx.Access(k.index.Line(int(key)), req.Op != ycsb.Read)
			respSize := 64
			switch req.Op {
			case ycsb.Read:
				ctx.AccessRange(k.valueAddr(key), k.cfg.ValueSize, false)
				respSize = k.cfg.RespSize
			case ycsb.Update, ycsb.Insert:
				ctx.AccessRange(k.valueAddr(key), k.cfg.ValueSize, true)
			case ycsb.ReadModifyWrite:
				ctx.AccessRange(k.valueAddr(key), k.cfg.ValueSize, false)
				ctx.AccessRange(k.valueAddr(key), k.cfg.ValueSize, true)
			case ycsb.Scan:
				n := int(req.ScanLen)
				if n < 1 {
					n = 1
				}
				for i := 0; i < n; i++ {
					ctx.AccessRange(k.valueAddr(key+uint64(i)), k.cfg.ValueSize, false)
				}
				respSize = k.cfg.RespSize
			}
			ctx.Compute(k.OpInstr)

			// Response.
			rbuf, ok := k.Port.GetBuf()
			if !ok {
				k.drops++
				k.Port.Release(e.Buf)
				continue
			}
			ctx.AccessRange(rbuf, respSize, true)
			resp := e.Pkt
			resp.Size = respSize
			if uslot, ok := k.Port.PushUp(nic.Entry{Pkt: resp, Buf: rbuf}); ok {
				ctx.Access(k.Port.Up.DescAddr(uslot), true)
			}
			k.Port.Release(e.Buf)

			svc := start - ctx.Remaining()
			k.stats.Ops++
			k.stats.LatCycles += uint64(svc)
			// End-to-end latency: NIC arrival to service completion.
			k.hist.Record(ctx.NowNS() - e.Pkt.ArrivalNS + ctx.CyclesNS(svc))
		}
	}
}

// Stats returns cumulative operation statistics.
func (k *KVS) Stats() OpStats { return k.stats }

// Hist returns the end-to-end latency histogram (shared across the store's
// lifetime; Reset between measurement phases).
func (k *KVS) Hist() *ycsb.Histogram { return &k.hist }

// Drops returns requests dropped for want of response buffers.
func (k *KVS) Drops() uint64 { return k.drops }
