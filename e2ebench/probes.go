package main

import (
	"math/rand/v2"
	"time"

	"rtmlab/internal/arch"
	"rtmlab/internal/htm"
	"rtmlab/internal/lineset"
	"rtmlab/internal/mem"
	"rtmlab/internal/obs"
	"rtmlab/internal/sim"
	"rtmlab/internal/stm"
	"rtmlab/internal/tm"
)

// Probes price one operation of a layer in host nanoseconds by timing a
// fixed loop through the layer's public API. Each probe reports the
// median of probeReps repetitions.
const probeReps = 5

// txnAccesses is the probe transaction's size: 90 reads and 10 writes,
// the paper's Eigenbench default.
const txnAccesses = 100

// probeCosts are the probe results, in ns per operation.
type probeCosts struct {
	handoff                         float64
	loadL1, loadL2, loadL3, loadMem float64
	storeL1                         float64
	tableGet, setAddClear           float64
	htmTxn                          float64
	stmTxn                          map[string]float64 // by protocol
	atomic                          map[tm.Backend]float64
}

// timeOp returns the median over probeReps of run's host time divided
// by the operations it reports.
func timeOp(run func() int) float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		start := time.Now()
		ops := run()
		xs[i] = float64(time.Since(start).Nanoseconds()) / float64(ops)
	}
	return median(xs)
}

// probeConfig is the machine the probes run on: timer interrupts off so
// that a probe transaction never aborts.
func probeConfig() *arch.Config {
	cfg := arch.Haswell()
	cfg.TSX.TickPeriod = 0
	return cfg
}

func runProbes() probeCosts {
	pc := probeCosts{stmTxn: map[string]float64{}, atomic: map[tm.Backend]float64{}}
	cfg := arch.Haswell()
	pc.handoff = probeHandoff()
	pc.loadL1, pc.storeL1 = probeMem(cfg.L1.SizeBytes/2, false), probeMem(cfg.L1.SizeBytes/2, true)
	pc.loadL2 = probeMem(cfg.L2.SizeBytes/2, false)
	pc.loadL3 = probeMem(cfg.L3.SizeBytes/4, false)
	pc.loadMem = probeMem(cfg.L3.SizeBytes*2, false)
	pc.tableGet, pc.setAddClear = probeLineset()
	pc.htmTxn = probeHTM()
	for _, proto := range stm.Protocols() {
		pc.stmTxn[proto] = probeSTM(proto)
	}
	for _, b := range []tm.Backend{tm.Seq, tm.HTM, tm.STM} {
		pc.atomic[b] = probeAtomic(b)
	}
	return pc
}

// probeHandoff prices one scheduler handoff: two simulated threads that
// alternate on every op, minus the same ops run inline on one thread,
// divided by the handoffs the engine counted.
func probeHandoff() float64 {
	const ops = 20000
	xs := make([]float64, probeReps)
	for i := range xs {
		cfg := arch.Haswell()
		h := mem.New(cfg)
		rec := obs.NewRecorder("probe", 1)
		h.Rec = rec
		start := time.Now()
		sim.Run(cfg, h, 2, 1, nil, func(p *sim.Proc) {
			for k := 0; k < ops; k++ {
				p.Work(1)
			}
		})
		two := time.Since(start)
		start = time.Now()
		sim.Run(cfg, mem.New(cfg), 1, 1, nil, func(p *sim.Proc) {
			for k := 0; k < 2*ops; k++ {
				p.Work(1)
			}
		})
		one := time.Since(start)
		xs[i] = float64((two - one).Nanoseconds()) / float64(max(rec.Counter("sim:switches"), 1))
	}
	return median(xs)
}

// probeMem prices a load (or store) on core 0 over a working set of the
// given size, visited in a fixed random line order so that neither the
// last-hit memo nor the next-line prefetcher serves it. Sized to half of
// L1, half of L2, a quarter of L3 or twice L3, the accesses are served
// by that level (twice L3: by DRAM).
func probeMem(bytes int, store bool) float64 {
	lines := bytes / arch.LineSize
	order := rand.New(rand.NewPCG(1, 2)).Perm(lines)
	addrs := make([]uint64, lines)
	for i, l := range order {
		addrs[i] = uint64(l) * arch.LineSize
	}
	h := mem.New(arch.Haswell())
	for _, a := range addrs {
		h.Load(0, a)
	}
	return timeOp(func() int {
		for _, a := range addrs {
			if store {
				h.Store(0, a, 1)
			} else {
				h.Load(0, a)
			}
		}
		return lines
	})
}

// probeSink keeps the lookups probeLineset times from being optimized
// away.
var probeSink int32

// probeLineset prices a lineset.Table lookup among 64 lines and one
// round of 16 lineset.Set adds plus a Clear (an HTM read set's life).
func probeLineset() (get, addClear float64) {
	const keys, rounds = 64, 20000
	t := lineset.NewTable[int32](keys)
	for k := 0; k < keys; k++ {
		t.Put(uint64(k)*7+1, int32(k))
	}
	get = timeOp(func() int {
		for i := 0; i < rounds*keys; i++ {
			v, _ := t.Get(uint64(i%keys)*7 + 1)
			probeSink += v
		}
		return rounds * keys
	})
	s := lineset.NewSet(keys)
	addClear = timeOp(func() int {
		for i := 0; i < rounds; i++ {
			for k := 0; k < 16; k++ {
				s.Add(uint64(i*16+k) * 3)
			}
			s.Clear()
		}
		return rounds
	})
	return get, addClear
}

// txnAddr returns the k-th address a probe transaction touches.
func txnAddr(k int) uint64 { return uint64(1)<<32 + uint64(k)*arch.LineSize }

// timeTxns prices one probe transaction: begin, 90 loads and 10 stores
// to distinct lines (L1-resident after the first repetition), commit.
func timeTxns(begin func(), load func(uint64) int64, store func(uint64, int64), commit func()) float64 {
	const txns = 2000
	return timeOp(func() int {
		for i := 0; i < txns; i++ {
			begin()
			for k := 0; k < txnAccesses; k++ {
				if k%10 == 9 {
					store(txnAddr(k), int64(i))
				} else {
					load(txnAddr(k))
				}
			}
			commit()
		}
		return txns
	})
}

// probeHTM prices one RTM transaction.
func probeHTM() float64 {
	cfg := probeConfig()
	h := mem.New(cfg)
	s := htm.NewSystem(cfg, h, nil)
	var ns float64
	sim.Run(cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := s.Attach(p)
		ns = timeTxns(func() { s.Begin(tx) }, tx.Load, tx.Store, tx.Commit)
	})
	return ns
}

// probeSTM prices one STM transaction of the given protocol.
func probeSTM(proto string) float64 {
	cfg := probeConfig()
	cfg.STM.Protocol = proto
	h := mem.New(cfg)
	s := stm.NewSystem(cfg, h, nil)
	var ns float64
	sim.Run(cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := s.Attach(p)
		ns = timeTxns(tx.Begin, tx.Load, tx.Store, tx.Commit)
	})
	return ns
}

// probeAtomic prices an empty Ctx.Atomic block on the given backend.
func probeAtomic(b tm.Backend) float64 {
	const blocks = 20000
	sys := tm.NewSystem(probeConfig(), b)
	var ns float64
	sys.Run(1, 1, func(c *tm.Ctx) {
		ns = timeOp(func() int {
			for i := 0; i < blocks; i++ {
				c.Atomic(func(tm.Tx) {})
			}
			return blocks
		})
	})
	return ns
}
