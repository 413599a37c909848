// Shard-mode execution: the epoch-synchronized parallel engine.
//
// The classic engine (engine.go) interleaves simulated threads serially
// under a min-clock scheduler. The sharded engine instead partitions the
// physical cores into contiguous shards, runs each shard's threads on a
// real goroutine worker, and quantizes simulated time into coherence
// epochs of Cfg.Shard.Epoch() cycles:
//
//   - Parallel phase: every shard runs its threads (one at a time, in
//     thread-id order) against frozen shared state. Operations served
//     entirely by the thread's own core (L1/L2 hits on owned lines,
//     computation, reads of epoch-consistent memory) complete locally.
//     Asynchronous shared-state effects (buffered plain stores, conflict
//     probes, recorder events) are logged as deferred operations.
//     Synchronous shared-state operations (cache misses, directory
//     transitions, transaction commits, lock CASes) park the thread.
//   - Boundary: when every thread has parked, blocked or run past the
//     epoch end, the coordinator merges all deferred and parked
//     operations whose issue cycle lies inside the epoch and executes
//     them serially in (cycle, thread id, sequence) order against the
//     real shared state, then advances the epoch (skipping ahead over
//     empty epochs deterministically).
//
// Determinism: the schedule within a shard is a fixed function of each
// thread's own trajectory; cross-thread interaction happens only at
// boundaries in a total order that is a deterministic function of issue
// cycles — which themselves derive only from per-thread trajectories and
// earlier boundaries. The shard (worker) count partitions *execution*,
// never semantics, so output is byte-identical for any worker count.
// Single-threaded epoch runs replay operations in program order at their
// issue cycles, which coincides with the classic engine's serial order —
// the differential anchor the tests rely on.
package sim

import (
	"runtime"
	"slices"

	"rtmlab/internal/lineset"
	"rtmlab/internal/mem"
	"rtmlab/internal/obs"
)

// Deferred-operation kinds (ShardDef.Kind).
const (
	// DefStore applies a buffered plain store (Addr, Val). The engine's
	// ShardRawStore hook runs first so the HTM layer can perform
	// strong-atomicity conflict kills before the write lands.
	DefStore uint8 = iota
	// DefTouch performs the deferred cache work of an overlapped load
	// whose latency was already charged (STM lock-array reads).
	DefTouch
	// DefMemEvent replays a recorder cache event (Ev holds core in Aux,
	// line in Arg).
	DefMemEvent
	// DefEvent replays a recorder thread-track event (dispatch on
	// Ev.Kind).
	DefEvent
	// DefCounter replays Recorder.Add(Name, Val).
	DefCounter
	// DefCustom is layer-defined and always dispatched to ShardApply
	// (the HTM layer uses it for conflict-directory probes).
	DefCustom
	// DefMemDelta replays an ownership delta from the classifier (Op is
	// the mem.MD* opcode, Addr the line) via Hierarchy.ApplyShardDelta.
	DefMemDelta
)

// ShardDef is one deferred operation, logged during the parallel phase
// and applied at the epoch boundary.
type ShardDef struct {
	cycle uint64
	seq   uint64
	// Kind selects the boundary action; Op and Gen are free payload for
	// DefCustom layers (the HTM layer uses Op as a sub-kind and Gen as a
	// transaction-attempt guard so operations deferred by a dead attempt
	// are skipped).
	Kind uint8
	Op   uint8
	Gen  uint32
	Addr uint64
	Val  int64
	Name string
	Ev   obs.Event
}

// Cycle returns the simulated cycle at which the operation was issued.
func (d *ShardDef) Cycle() uint64 { return d.cycle }

// Parked synchronous operation kinds.
const (
	pNone uint8 = iota
	pLoad
	pStore
	pStoreTiming
	pTouch
	pExcl
)

// Per-proc shard status.
const (
	shRun     uint8 = iota // running, or suspended at a yield with nothing pending
	shOpWait               // parked with a synchronous op awaiting its boundary
	shBlocked              // barrier-blocked until an exclusive fn unparks it
	shDone                 // body returned
)

// procShard is the per-thread state of the sharded engine (Proc.sh; nil
// under the classic engine).
type procShard struct {
	w     *shardWorker
	view  *mem.View
	stats mem.Stats
	// wbuf holds this thread's plain stores (word addr -> value) issued
	// but not yet applied at a boundary, so its own later reads see them
	// (the backing store is frozen mid-epoch).
	wbuf *lineset.Table[int64]
	defs []ShardDef
	seq  uint64

	status  uint8
	opKind  uint8
	opCycle uint64
	opSeq   uint64
	opAddr  uint64
	opVal   int64
	opFn    func()
	opRet   int64
	// panicVal carries a panic raised inside an exclusive fn (which runs
	// on the coordinator) back to the owning goroutine, preserving the
	// TM layers' abort-by-panic control flow.
	panicVal any

	parks       uint64 // total parks (op parks + epoch-end yield parks)
	opParks     uint64 // parks caused by a synchronous op awaiting its boundary
	localOps    uint64 // memory ops served inside the epoch without parking
	localClaims uint64 // TM conflict claims resolved in a shard-local directory slice

	finishFn func()
}

type shardWorker struct {
	se    *shardEngine
	procs []*Proc
	wake  chan struct{}
	idle  chan struct{} // proc -> worker handoff when a proc parks
}

type shardEngine struct {
	e        *Engine
	epochLen uint64
	end      uint64 // current epoch end (exclusive)
	workers  []*shardWorker
	done     chan struct{}
	order    []boundaryRef // boundary scratch, reused across epochs
	epochs   uint64
	// boundaryOps counts operations replayed serially at boundaries (the
	// serial fraction's numerator, exported as sim:boundary.ops).
	boundaryOps uint64
}

type boundaryRef struct {
	cycle uint64
	seq   uint64
	tid   int32
	def   int32 // index into the proc's def list, or -1 for the parked op
}

// shardWorkers resolves the configured shard count to a worker count for
// a machine with the given number of cores.
func shardWorkers(shards, cores int) int {
	w := shards
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	if w > cores {
		w = cores
	}
	return w
}

func newShardEngine(e *Engine) *shardEngine {
	cfg := e.Cfg
	nw := shardWorkers(cfg.Shard.Shards, cfg.Cores)
	se := &shardEngine{
		e:        e,
		epochLen: cfg.Shard.Epoch(),
		done:     make(chan struct{}, nw),
	}
	e.H.InitShard(cfg.Shard.Classifier())
	se.end = se.epochLen
	for i := 0; i < nw; i++ {
		se.workers = append(se.workers, &shardWorker{
			se:   se,
			wake: make(chan struct{}, 1),
			idle: make(chan struct{}),
		})
	}
	for _, p := range e.procs {
		p := p
		sw := se.workers[p.core*nw/cfg.Cores]
		p.sh = &procShard{
			w:    sw,
			view: e.H.Mem().NewView(),
			wbuf: lineset.NewTable[int64](64),
			finishFn: func() {
				e.coreLive[p.core]--
				e.remaining--
			},
		}
		sw.procs = append(sw.procs, p)
	}
	return se
}

// run executes the region: parallel epochs alternating with serial
// boundaries until every thread's body has returned.
func (se *shardEngine) run(body func(*Proc)) {
	e := se.e
	for _, w := range se.workers {
		go w.loop()
	}
	for _, p := range e.procs {
		p := p
		go func() {
			<-p.rsm
			body(p)
			p.shardFinish()
		}()
	}
	for {
		se.epochs++
		e.shardParallel = true
		for _, w := range se.workers {
			w.wake <- struct{}{}
		}
		for range se.workers {
			<-se.done
		}
		e.shardParallel = false
		if se.allDone() {
			break
		}
		se.boundary()
		se.advance()
	}
	for _, w := range se.workers {
		close(w.wake)
	}
}

func (se *shardEngine) allDone() bool {
	for _, p := range se.e.procs {
		if p.sh.status != shDone {
			return false
		}
	}
	return true
}

func (w *shardWorker) loop() {
	for range w.wake {
		end := w.se.end
		for _, p := range w.procs {
			for p.sh.status == shRun && p.clock < end {
				p.rsm <- struct{}{}
				<-w.idle
			}
		}
		w.se.done <- struct{}{}
	}
}

// cmpBoundaryRef is the (cycle, tid, seq) total order boundary replay
// follows. (tid, cycle, seq) triples are unique, so the unstable sort is
// deterministic; slices.SortFunc (unlike sort.Slice) allocates nothing,
// which keeps the per-epoch boundary allocation-free.
func cmpBoundaryRef(a, b boundaryRef) int {
	switch {
	case a.cycle != b.cycle:
		if a.cycle < b.cycle {
			return -1
		}
		return 1
	case a.tid != b.tid:
		return int(a.tid) - int(b.tid)
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

// boundary merges every deferred and parked operation issued before the
// epoch end and executes them serially in (cycle, thread id, sequence)
// order against the shared state.
func (se *shardEngine) boundary() {
	e := se.e
	end := se.end
	ord := se.order[:0]
	for _, p := range e.procs {
		ps := p.sh
		for i := range ps.defs {
			if ps.defs[i].cycle >= end {
				break // per-proc def logs are cycle-sorted
			}
			ord = append(ord, boundaryRef{
				cycle: ps.defs[i].cycle, seq: ps.defs[i].seq,
				tid: int32(p.id), def: int32(i),
			})
		}
		if ps.status == shOpWait && ps.opCycle < end {
			ord = append(ord, boundaryRef{
				cycle: ps.opCycle, seq: ps.opSeq, tid: int32(p.id), def: -1,
			})
		}
	}
	slices.SortFunc(ord, cmpBoundaryRef)
	se.boundaryOps += uint64(len(ord))
	for i := range ord {
		r := &ord[i]
		p := e.procs[r.tid]
		if r.def >= 0 {
			se.applyDef(p, &p.sh.defs[r.def])
		} else {
			se.execPark(p)
		}
	}
	se.order = ord[:0]
	// The ownership deltas are in the live directory now; the next epoch's
	// classifier tables seed afresh from the frozen state.
	e.H.ShardEpochReset()
	// Consume the applied prefix of each def log; once a thread's log is
	// drained its buffered stores are all in the backing store and the
	// write buffer can be cleared.
	for _, p := range e.procs {
		ps := p.sh
		n := 0
		for n < len(ps.defs) && ps.defs[n].cycle < end {
			n++
		}
		if n > 0 {
			rem := copy(ps.defs, ps.defs[n:])
			for i := rem; i < len(ps.defs); i++ {
				ps.defs[i] = ShardDef{} // release Name referents
			}
			ps.defs = ps.defs[:rem]
		}
		if len(ps.defs) == 0 && ps.wbuf.Len() != 0 {
			ps.wbuf.Clear()
		}
	}
	if e.remaining == 0 {
		se.flushRemaining()
	}
}

// flushRemaining applies every still-pending deferred op (in order) once
// all thread bodies have finished, so counters and recorder events from
// the final epoch are not lost.
func (se *shardEngine) flushRemaining() {
	ord := se.order[:0]
	for _, p := range se.e.procs {
		ps := p.sh
		for i := range ps.defs {
			ord = append(ord, boundaryRef{
				cycle: ps.defs[i].cycle, seq: ps.defs[i].seq,
				tid: int32(p.id), def: int32(i),
			})
		}
	}
	slices.SortFunc(ord, cmpBoundaryRef)
	se.boundaryOps += uint64(len(ord))
	for i := range ord {
		r := &ord[i]
		p := se.e.procs[r.tid]
		se.applyDef(p, &p.sh.defs[r.def])
	}
	se.order = ord[:0]
	for _, p := range se.e.procs {
		ps := p.sh
		for i := range ps.defs {
			ps.defs[i] = ShardDef{}
		}
		ps.defs = ps.defs[:0]
		ps.wbuf.Clear()
	}
}

// advance moves the epoch end past the earliest pending activity,
// skipping empty epochs (backoff windows, skewed clocks) in one step.
func (se *shardEngine) advance() {
	const inf = ^uint64(0)
	m := inf
	for _, p := range se.e.procs {
		ps := p.sh
		switch ps.status {
		case shDone, shBlocked:
			continue
		case shOpWait:
			if ps.opCycle < m {
				m = ps.opCycle
			}
		default:
			if p.clock < m {
				m = p.clock
			}
		}
	}
	if m == inf {
		panic("sim: shard deadlock: every live thread is blocked")
	}
	se.end = (m/se.epochLen + 1) * se.epochLen
}

// applyDef executes one deferred operation at the boundary.
func (se *shardEngine) applyDef(p *Proc, d *ShardDef) {
	h := se.e.H
	h.Now = d.cycle
	switch d.Kind {
	case DefStore:
		if f := se.e.ShardRawStore; f != nil {
			f(p, d.Addr)
		}
		h.Poke(d.Addr, d.Val)
	case DefCustom:
		if ap := se.e.ShardApply; ap != nil {
			ap(p, d)
		}
	case DefMemDelta:
		h.ApplyShardDelta(p.core, d.Op, d.Addr)
	case DefTouch:
		h.Touch(p.core, d.Addr)
	case DefMemEvent:
		if rec := h.Rec; rec != nil {
			rec.MemEvent(int(d.Ev.Aux), d.Ev.Cycle, d.Ev.Kind, d.Ev.Arg)
		}
	case DefEvent:
		if rec := h.Rec; rec != nil {
			ev := &d.Ev
			switch ev.Kind {
			case obs.KTxCommit:
				rec.TxCommit(p.id, ev.Cycle, ev.Start, ev.Site, int(ev.Aux))
			case obs.KTxAbort:
				rec.TxAbort(p.id, ev.Cycle, ev.Start, ev.Site, ev.Cause, ev.Arg, int(ev.Aux))
			case obs.KTxBegin:
				rec.TxBegin(p.id, ev.Cycle, ev.Site)
			case obs.KBackoff:
				rec.STMBackoff(p.id, ev.Cycle, ev.Arg, ev.Cause)
			default:
				rec.TxInstant(p.id, ev.Cycle, ev.Site, ev.Kind)
			}
		}
	case DefCounter:
		if rec := h.Rec; rec != nil {
			rec.Add(d.Name, uint64(d.Val))
		}
	}
}

// execPark executes a thread's parked synchronous operation at the
// boundary. Panics raised by exclusive fns (transaction aborts delivered
// by the TM layers) are captured and re-raised on the owning goroutine.
func (se *shardEngine) execPark(p *Proc) {
	ps := p.sh
	h := se.e.H
	h.Now = ps.opCycle
	switch ps.opKind {
	case pLoad:
		v, c := h.Load(p.core, ps.opAddr)
		ps.opRet = v
		p.clock += p.scale(c)
	case pStore:
		if f := se.e.ShardRawStore; f != nil {
			f(p, ps.opAddr)
		}
		c := h.Store(p.core, ps.opAddr, ps.opVal)
		p.clock += p.scale(c)
	case pStoreTiming:
		c := h.StoreTiming(p.core, ps.opAddr)
		p.clock += p.scale(c)
	case pTouch:
		c := h.Touch(p.core, ps.opAddr)
		p.clock += p.scale(c)
	case pExcl:
		func() {
			defer func() {
				if v := recover(); v != nil {
					ps.panicVal = v
				}
			}()
			ps.opFn()
		}()
	}
	ps.opFn = nil
	ps.opKind = pNone
	if ps.status == shOpWait {
		ps.status = shRun // unless the fn blocked the thread (barrier)
	}
}

// ---- Proc-side shard operations (parallel phase) ----

// Sharded reports whether p runs under the epoch-synchronized engine.
func (p *Proc) Sharded() bool { return p.sh != nil }

// ShardEpoch returns the ordinal of the current epoch under the sharded
// engine (1-based; 0 under the classic engine). Boundary replay code uses
// it to scope per-boundary bookkeeping: each boundary belongs to exactly
// one epoch ordinal.
func (p *Proc) ShardEpoch() uint64 {
	if p.sh == nil {
		return 0
	}
	return p.sh.w.se.epochs
}

// ShardLocalClaim records a TM conflict claim resolved inside the epoch
// by a shard-local directory slice (no deferred boundary replay),
// exported as sim:slice.claims. No-op under the classic engine.
//
//rtm:hot
func (p *Proc) ShardLocalClaim() {
	if p.sh != nil {
		p.sh.localClaims++
	}
}

// ShardActive reports whether the sharded engine is in the parallel
// phase of an epoch: shared simulated state is frozen and must not be
// mutated. In every other context (classic engine, epoch boundary,
// outside a region) operations run serially on the direct path. The
// flag is engine-global, so it answers correctly for any proc — in
// particular for a suspended victim thread whose transaction a hook is
// about to abort.
//
//rtm:hot
func (p *Proc) ShardActive() bool {
	return p.sh != nil && p.eng.shardParallel
}

// Exclusive runs fn serially against the shared simulated state: under
// the classic engine it runs inline (the engine is already serial); in
// the shard parallel phase the thread parks and fn runs at the next
// epoch boundary in (cycle, thread) order. fn may use the full direct
// Proc API (timed loads/stores, clock advances); panics unwind on p's
// own goroutine. Hot callers should pre-bind fn once and pass parameters
// through fields to stay allocation-free.
func (p *Proc) Exclusive(fn func()) {
	if p.ShardActive() {
		p.shardParkOp(pExcl, 0, 0, fn)
		return
	}
	fn()
}

// Defer buffers a deferred operation for boundary replay. Only valid in
// the shard parallel phase (callers guard with ShardActive).
//
//rtm:hot
func (p *Proc) Defer(d ShardDef) { p.pushDef(d) }

// DeferEvent buffers a recorder thread-track event (cycles region-local,
// as the Recorder methods expect).
func (p *Proc) DeferEvent(ev obs.Event) {
	p.pushDef(ShardDef{Kind: DefEvent, Ev: ev})
}

// DeferCounter buffers Recorder.Add(name, n).
func (p *Proc) DeferCounter(name string, n uint64) {
	p.pushDef(ShardDef{Kind: DefCounter, Name: name, Val: int64(n)})
}

// DeferMemEvent implements mem.ShardSink: recorder traffic from
// shard-local cache fills is buffered and replayed at the boundary.
func (p *Proc) DeferMemEvent(core int, kind obs.Kind, lineAddr uint64) {
	p.pushDef(ShardDef{Kind: DefMemEvent, Ev: obs.Event{
		Cycle: p.clock, Arg: lineAddr, Site: -1, Aux: int32(core), Kind: kind,
	}})
}

// DeferMemDelta implements mem.ShardSink: an ownership delta from the
// classifier is buffered and replayed at the boundary in (cycle, thread,
// sequence) order.
//
//rtm:hot
func (p *Proc) DeferMemDelta(op uint8, lineAddr uint64) {
	p.pushDef(ShardDef{Kind: DefMemDelta, Op: op, Addr: lineAddr})
}

//rtm:hot
func (p *Proc) pushDef(d ShardDef) {
	ps := p.sh
	d.cycle = p.clock
	d.seq = ps.seq
	ps.seq++
	ps.defs = append(ps.defs, d)
}

// PeekShared returns the current value of addr without timing effects,
// from any engine context. During the shard parallel phase the backing
// store is frozen and Hierarchy.Peek is unsafe (Memory.Read mutates
// shared memos), so the read goes through the thread's own write buffer
// and private view; everywhere else it is a plain Peek.
//
//rtm:hot
func (p *Proc) PeekShared(addr uint64) int64 {
	if p.ShardActive() {
		return p.shardRead(addr)
	}
	return p.eng.H.Peek(addr)
}

// shardRead returns the epoch-consistent value of addr: the thread's own
// buffered store if one is pending, else the frozen backing store.
//
//rtm:hot
func (p *Proc) shardRead(addr uint64) int64 {
	ps := p.sh
	if ps.wbuf.Len() != 0 {
		if v, ok := ps.wbuf.Get(addr); ok {
			return v
		}
	}
	return ps.view.Read(addr)
}

//rtm:hot
func (p *Proc) shardPreOp() {
	if p.PreOp != nil {
		p.PreOp()
	}
}

// shardYield parks the thread when its clock has run past the epoch end.
//
//rtm:hot
func (p *Proc) shardYield() {
	ps := p.sh
	if p.clock < ps.w.se.end {
		return
	}
	ps.parks++
	ps.w.idle <- struct{}{}
	<-p.rsm
}

// shardParkOp parks the thread with a synchronous operation; the
// coordinator executes it at the boundary of the epoch containing its
// issue cycle and charges the latency. Returns the operation's result.
func (p *Proc) shardParkOp(kind uint8, addr uint64, val int64, fn func()) int64 {
	ps := p.sh
	ps.opKind = kind
	ps.opCycle = p.clock
	ps.opSeq = ps.seq
	ps.seq++
	ps.opAddr = addr
	ps.opVal = val
	ps.opFn = fn
	ps.opRet = 0
	ps.status = shOpWait
	ps.parks++
	ps.opParks++
	ps.w.idle <- struct{}{}
	<-p.rsm
	if v := ps.panicVal; v != nil {
		ps.panicVal = nil
		panic(v)
	}
	return ps.opRet
}

// shardFinish runs after the thread body returns: the bookkeeping
// (core-liveness, remaining count) is applied at a boundary in cycle
// order so sibling hyper-thread scaling changes deterministically, then
// the goroutine hands control back to its worker and exits.
func (p *Proc) shardFinish() {
	p.shardParkOp(pExcl, 0, 0, p.sh.finishFn)
	p.sh.status = shDone
	p.sh.w.idle <- struct{}{}
}

// shardBlock converts the current boundary execution of this thread's
// parked op into a blocked state (barrier arrival); only meaningful from
// inside an Exclusive fn.
func (p *Proc) shardBlock() { p.sh.status = shBlocked }

// shardUnblock releases a blocked thread at the given clock; only
// meaningful from inside an Exclusive fn.
func (p *Proc) shardUnblock(clock uint64) {
	p.clock = clock
	p.sh.status = shRun
}

// ---- Shard-path Proc operations ----

//rtm:hot
func (p *Proc) shardLoad(addr uint64) int64 {
	p.shardPreOp()
	ps := p.sh
	if c, ok := p.eng.H.LocalLoad(p.core, addr, &ps.stats, p); ok {
		p.instr++
		p.clock += p.scale(c)
		ps.localOps++
		v := p.shardRead(addr)
		p.shardYield()
		return v
	}
	p.instr++
	v := p.shardParkOp(pLoad, addr, 0, nil)
	p.shardYield()
	return v
}

//rtm:hot
func (p *Proc) shardStore(addr uint64, val int64) {
	p.shardPreOp()
	ps := p.sh
	if c, ok := p.eng.H.LocalStore(p.core, addr, &ps.stats, p); ok {
		p.instr++
		p.clock += p.scale(c)
		ps.localOps++
		ps.wbuf.Put(addr, val)
		p.pushDef(ShardDef{Kind: DefStore, Addr: addr, Val: val})
		p.shardYield()
		return
	}
	p.instr++
	p.shardParkOp(pStore, addr, val, nil)
	p.shardYield()
}

//rtm:hot
func (p *Proc) shardLoadOverlapped(addr uint64) int64 {
	p.shardPreOp()
	ps := p.sh
	if _, ok := p.eng.H.LocalLoad(p.core, addr, &ps.stats, p); ok {
		ps.localOps++
	} else {
		// Not locally cached: the cache-state work happens at the
		// boundary; the latency is overlapped either way.
		p.pushDef(ShardDef{Kind: DefTouch, Addr: addr})
	}
	p.instr++
	p.clock++
	v := p.shardRead(addr)
	p.shardYield()
	return v
}

//rtm:hot
func (p *Proc) shardStoreTiming(addr uint64) {
	p.shardPreOp()
	ps := p.sh
	if c, ok := p.eng.H.LocalStore(p.core, addr, &ps.stats, p); ok {
		p.instr++
		p.clock += p.scale(c)
		ps.localOps++
		p.shardYield()
		return
	}
	p.instr++
	p.shardParkOp(pStoreTiming, addr, 0, nil)
	p.shardYield()
}

//rtm:hot
func (p *Proc) shardTouch(addr uint64) {
	p.shardPreOp()
	ps := p.sh
	if c, ok := p.eng.H.LocalLoad(p.core, addr, &ps.stats, p); ok {
		p.instr++
		p.clock += p.scale(c)
		ps.localOps++
		p.shardYield()
		return
	}
	p.instr++
	p.shardParkOp(pTouch, addr, 0, nil)
	p.shardYield()
}

//rtm:hot
func (p *Proc) shardWork(n uint64) {
	p.shardPreOp()
	p.instr += n
	p.clock += p.scale(n)
	p.shardYield()
}

//rtm:hot
func (p *Proc) shardPause() {
	p.shardPreOp()
	p.instr++
	p.clock += p.scale(PauseCycles)
	p.shardYield()
}
