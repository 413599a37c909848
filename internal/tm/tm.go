// Package tm is the unified transactional-memory facade: one atomic-block
// API over interchangeable concurrency-control backends, mirroring STAMP's
// tm.h macro layer (TM_BEGIN / TM_SHARED_READ / TM_SHARED_WRITE /
// TM_END).
//
// Backends:
//
//   - Seq: no synchronization — the sequential (non-TM) baseline every
//     figure in the paper normalises against.
//   - Lock: one global ticket spinlock around each atomic block.
//   - STM: TinySTM (internal/stm) with retry-on-abort.
//   - HTM: Haswell RTM (internal/htm) with the paper's Algorithm 1 —
//     transactions read the serialisation lock after xbegin (adding it to
//     their read set), explicitly abort if it is held, fall back to taking
//     the lock as a writer after MaxRetries failures, and wait for the
//     lock to be free before retrying. Lock acquisition by a fallback
//     thread conflict-aborts every running transaction through the lock's
//     cache line ("lock aborts", Fig. 12).
//   - HTMBare: RTM with plain retry and no fallback lock, used by the
//     Table I overhead microbenchmark.
//   - HLE: one hardware lock-elision attempt, then the real lock.
//   - Hybrid: RTM with a TinySTM fallback instead of the lock.
//
// All backends share one attempt function and one retry loop; a backend
// is a retry policy (policy.go).
package tm

import (
	"fmt"
	"time"

	"rtmlab/internal/alloc"
	"rtmlab/internal/arch"
	"rtmlab/internal/energy"
	"rtmlab/internal/htm"
	"rtmlab/internal/locks"
	"rtmlab/internal/mem"
	"rtmlab/internal/obs"
	"rtmlab/internal/perf"
	"rtmlab/internal/sim"
	"rtmlab/internal/stm"
	"rtmlab/internal/vm"
)

// Backend selects the concurrency-control mechanism.
type Backend uint8

const (
	Seq Backend = iota
	Lock
	STM
	HTM
	HTMBare
	HLE
	Hybrid
)

func (b Backend) String() string {
	switch b {
	case Seq:
		return "seq"
	case Lock:
		return "lock"
	case STM:
		return "tinystm"
	case HTM:
		return "rtm"
	case HTMBare:
		return "rtm-bare"
	case HLE:
		return "hle"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("backend(%d)", uint8(b))
	}
}

// DefaultMaxRetries is the paper's retry budget before falling back to the
// serialisation lock ("when transactions fail more than eight times").
const DefaultMaxRetries = 8

// xabortLockHeld is the explicit-abort code used when a transaction sees
// the serialisation lock held (Algorithm 1's _xabort(0)).
const xabortLockHeld uint8 = 0

// xabortRestart is the explicit-abort code used by Tx.Restart.
const xabortRestart uint8 = 0xAB

// Addresses of the synchronisation words, below the heap, each on its own
// cache line.
const (
	serialLockAddr uint64 = 1 << 28
	globalLockAddr uint64 = serialLockAddr + 2*arch.LineSize
)

// System owns one simulated machine plus the TM runtime for one backend.
type System struct {
	Arch *arch.Config
	H    *mem.Hierarchy
	PT   *vm.PageTable
	Heap *alloc.Heap

	Backend    Backend
	MaxRetries int

	HTM      *htm.System
	STM      *stm.System
	Counters *perf.Set

	pol    policy
	serial locks.RW
	global locks.Ticket
	pools  []*alloc.Pool
	ctxs   []*Ctx

	// RegionHook, if set, observes every parallel region's metrics (the
	// stamp runner accumulates region-of-interest totals with it).
	RegionHook func(sim.Result)

	// Obs, if set, is the flight recorder receiving commit/abort events,
	// histograms and the per-site abort matrix. Set it with SetRecorder so
	// the memory hierarchy (and through it the htm/stm/sim layers) sees
	// the same recorder.
	Obs *obs.Recorder

	// stage holds per-thread staging sets for Counters increments made
	// during the shard parallel phase (nil under the classic engine);
	// Run folds them into Counters after each region.
	stage []*perf.Set
}

// cnt returns the counter set for tid: the per-thread staging set under
// the sharded engine (increments can come from concurrent shard workers,
// e.g. the HTM abort hook firing on a local abort), the shared set
// otherwise.
//
//rtm:hot
func (s *System) cnt(tid int) *perf.Set {
	if s.stage != nil {
		return s.stage[tid]
	}
	return s.Counters
}

// mergeStaged folds every layer's per-thread staged counters into the
// shared sets. Called once per region, after the engine has quiesced.
func (s *System) mergeStaged() {
	for _, st := range s.stage {
		if st != nil {
			st.MergeInto(s.Counters)
		}
	}
	if s.HTM != nil {
		s.HTM.MergeShardCounters()
	}
	if s.STM != nil {
		s.STM.MergeShardCounters()
	}
}

// SetRecorder attaches a flight recorder to the system and its simulated
// machine (nil detaches). All layers share the one recorder: tm emits
// transaction events, mem/htm/stm/sim reach it through H.Rec.
func (s *System) SetRecorder(r *obs.Recorder) {
	s.Obs = r
	s.H.Rec = r
}

// NewSystem builds a fresh machine (hierarchy, page table, heap) and TM
// runtime for the given backend.
func NewSystem(cfg *arch.Config, backend Backend) *System {
	h := mem.New(cfg)
	pt := vm.NewPageTable()
	s := &System{
		Arch:       cfg,
		H:          h,
		PT:         pt,
		Heap:       alloc.NewHeap(pt),
		Backend:    backend,
		MaxRetries: DefaultMaxRetries,
		pol:        policies[backend],
		Counters:   perf.NewSet(),
		serial:     locks.RW{Addr: serialLockAddr},
		global:     locks.Ticket{Addr: globalLockAddr},
		pools:      make([]*alloc.Pool, cfg.MaxThreads()),
		ctxs:       make([]*Ctx, cfg.MaxThreads()),
	}
	switch backend {
	case Hybrid:
		s.HTM = htm.NewSystem(cfg, h, pt)
		s.STM = stm.NewSystem(cfg, h, pt)
	case HTM, HTMBare, HLE:
		s.HTM = htm.NewSystem(cfg, h, pt)
		lockLine := mem.LineAddr(serialLockAddr)
		s.HTM.AbortHook = func(tid int, a htm.Abort) {
			cnt := s.cnt(tid)
			switch {
			case a.Cause == htm.CauseConflict && a.ConflictLine == lockLine:
				cnt.Inc("tm:abort.lock")
				cnt.Inc("tm:abort.lock.conflict")
			case a.Cause == htm.CauseExplicit && htm.ExplicitCode(a.Status) == xabortLockHeld:
				cnt.Inc("tm:abort.lock")
				cnt.Inc("tm:abort.lock.explicit")
			case a.Cause == htm.CauseConflict && a.ConflictLine == mem.LineAddr(hleLockAddr),
				a.Cause == htm.CauseExplicit && htm.ExplicitCode(a.Status) == xabortHLEHeld:
				cnt.Inc("tm:abort.hlelock")
			}
		}
	case STM:
		s.STM = stm.NewSystem(cfg, h, pt)
	}
	if cfg.Shard.Shards != 0 {
		// Shard mode pre-touches fresh chunks at refill time: demand
		// page-fault servicing mutates shared page-table state, which the
		// parallel phase of an epoch must not do (the shard-local access
		// paths skip the fault check on the strength of this).
		s.Heap.PreTouch = true
	}
	return s
}

// Aborts returns the total transaction aborts so far (for energy
// accounting).
func (s *System) Aborts() uint64 {
	switch s.Backend {
	case HTM, HTMBare, HLE:
		return s.HTM.Counters.Get(perf.RTMAborted)
	case STM:
		return s.STM.Counters.Get("stm:abort")
	case Hybrid:
		return s.HTM.Counters.Get(perf.RTMAborted) + s.STM.Counters.Get("stm:abort")
	default:
		return 0
	}
}

// Run executes body on n simulated threads, attaching a Ctx to each, and
// returns the region metrics.
func (s *System) Run(n int, seed uint64, body func(c *Ctx)) sim.Result {
	if s.Arch.Shard.Shards != 0 {
		// Callers may stamp Arch.Shard after NewSystem; keep the
		// pre-touching allocator in sync with the engine choice.
		s.Heap.PreTouch = true
	}
	// attach mutates shared state (heap pools, staging slices, the shard
	// engine's hooks), so it runs in the engine's serial setup phase; the
	// bodies — concurrent under the sharded engine — get the prepared Ctx.
	start := time.Now() //rtmvet:ignore host-side wall clock for the timing sidecar; never feeds simulated state
	res := sim.Run(s.Arch, s.H, n, seed, func(p *sim.Proc) {
		s.attach(p)
	}, func(p *sim.Proc) {
		body(s.ctxs[p.ID()])
	})
	if s.Obs != nil {
		// Host-side wall clock for the timing sidecar; every simulated
		// quantity stays deterministic.
		s.Obs.AddWall(int64(time.Since(start))) //rtmvet:ignore host-side wall clock for the timing sidecar; never feeds simulated state
	}
	s.mergeStaged()
	if s.RegionHook != nil {
		s.RegionHook(res)
	}
	return res
}

// Measure wraps a Run result and the abort delta into an energy measure.
func (s *System) Measure(res sim.Result, abortsBefore uint64) energy.Measure {
	return energy.Measure{
		Cycles:       res.Cycles,
		ThreadCycles: res.ThreadCycles,
		Instr:        res.TotalInstr(),
		Mem:          res.MemStats,
		Aborts:       s.Aborts() - abortsBefore,
	}
}

// attach builds the per-thread context.
func (s *System) attach(p *sim.Proc) *Ctx {
	tid := p.ID()
	if p.Sharded() {
		if s.stage == nil {
			s.stage = make([]*perf.Set, s.Arch.MaxThreads())
		}
		if s.stage[tid] == nil {
			s.stage[tid] = perf.NewSet()
		}
	}
	if s.pools[tid] == nil {
		s.pools[tid] = s.Heap.NewPool()
	}
	c := s.ctxs[tid]
	if c == nil {
		c = &Ctx{}
		s.ctxs[tid] = c
	}
	*c = Ctx{sys: s, P: p, Pool: s.pools[tid], obsSite: -1}
	c.rmwFn = func() {
		c.P.AddCycles(c.sys.Arch.Lat.AtomicRMW)
		c.P.StoreTiming(c.rmwAddr)
		c.rmwOld = c.sys.H.Peek(c.rmwAddr)
		c.sys.H.Poke(c.rmwAddr, c.rmwF(c.rmwOld))
	}
	switch s.Backend {
	case HTM, HTMBare, HLE:
		c.htx = s.HTM.Attach(p)
	case STM:
		c.stx = s.STM.Attach(p)
	case Hybrid:
		c.htx = s.HTM.Attach(p)
		c.stx = s.STM.Attach(p)
	}
	return c
}

// Ctx is the per-thread handle workloads program against.
type Ctx struct {
	sys  *System
	P    *sim.Proc
	Pool *alloc.Pool

	htx   *htm.Txn
	stx   *stm.Txn
	inTx  bool
	site  *siteKeys // current AtomicSite's counter keys; nil outside one
	frees []pendingFree

	// Flight-recorder state: the interned id of the current site, the
	// cycle the atomic block started (commit slices span the whole block,
	// retries included) and the cycle the current attempt started (abort
	// slices cover just the wasted attempt).
	obsSite      int32
	blockStart   uint64
	attemptStart uint64

	// siteIDs caches recorder site-id interning per thread in shard mode
	// (first encounters intern through an exclusive boundary op).
	siteIDs map[string]int32

	// sites interns per-site counter keys per thread, so AtomicSite
	// builds no strings after a site's first use (per-thread, so safe in
	// the shard parallel phase). Aborts still build their keys: they are
	// rare next to commits.
	sites map[string]*siteKeys

	// rmwFn is the persistent boundary closure for sharded RMW, with its
	// arguments and result passed through the fields below — allocating a
	// capturing closure per RMW would put per-lock-op garbage on the shard
	// hot path.
	rmwFn   func()
	rmwAddr uint64
	rmwF    func(int64) int64
	rmwOld  int64
}

// cnt returns the counter set for this thread's current context:
// per-thread staging during the shard parallel phase, the shared set
// everywhere else.
//
//rtm:hot
func (c *Ctx) cnt() *perf.Set {
	if c.P.ShardActive() {
		return c.sys.stage[c.P.ID()]
	}
	return c.sys.Counters
}

// System returns the owning system.
func (c *Ctx) System() *System { return c.sys }

// --- Raw (non-transactional) accesses -----------------------------------

// Load performs a plain (uninstrumented) read. Under HTM, a plain load
// issued inside an active hardware transaction is still tracked by the
// hardware — there is no way to hide a load from TSX — so it routes
// through the transaction; outside transactions it is strongly atomic.
// Under STM a plain load really is invisible to the TM (the instrumentation
// is compile-time selective), which is exactly the asymmetry STAMP's
// labyrinth exploits with its unprotected grid copy.
func (c *Ctx) Load(addr uint64) int64 {
	if c.sys.HTM != nil {
		if c.htx != nil && c.htx.Active() {
			return c.htx.Load(addr)
		}
		return c.sys.HTM.RawLoad(c.P, addr)
	}
	c.sys.PT.Service(c.P, addr)
	return c.P.Load(addr)
}

// Store performs a plain (uninstrumented) write; like Load it cannot
// escape an active hardware transaction.
func (c *Ctx) Store(addr uint64, val int64) {
	if c.sys.HTM != nil {
		if c.htx != nil && c.htx.Active() {
			c.htx.Store(addr, val)
			return
		}
		c.sys.HTM.RawStore(c.P, addr, val)
		return
	}
	c.sys.PT.Service(c.P, addr)
	c.P.Store(addr, val)
}

// RMW performs a non-transactional atomic read-modify-write.
func (c *Ctx) RMW(addr uint64, f func(int64) int64) int64 {
	if c.sys.HTM != nil {
		return c.sys.HTM.RawRMW(c.P, addr, f)
	}
	c.sys.PT.Service(c.P, addr)
	if c.P.ShardActive() {
		// Peek+Poke must see the live word: run the whole RMW as one
		// exclusive boundary op (same cycle charges as the inline path).
		c.rmwAddr, c.rmwF = addr, f
		c.P.Exclusive(c.rmwFn)
		c.rmwF = nil
		return c.rmwOld
	}
	c.P.AddCycles(c.sys.Arch.Lat.AtomicRMW)
	c.P.StoreTiming(addr)
	old := c.sys.H.Peek(addr)
	c.sys.H.Poke(addr, f(old))
	return old
}

// Pause executes a spin-wait hint (part of locks.Mem).
func (c *Ctx) Pause() { c.P.Pause() }

// Work models n cycles of thread-local computation.
func (c *Ctx) Work(n uint64) { c.P.Work(n) }

// Alloc allocates nWords words from the thread-local pool.
func (c *Ctx) Alloc(nWords int) uint64 { return c.Pool.Alloc(c.P, nWords) }

// AllocAligned allocates a cache-line-aligned block (for structure
// headers; see ds.Allocator).
func (c *Ctx) AllocAligned(nWords int) uint64 { return c.Pool.AllocAligned(c.P, nWords) }

// pendingFree is a free deferred to transaction commit.
type pendingFree struct {
	addr   uint64
	nWords int
}

// Free returns a block to the thread-local pool. Inside an atomic block
// the free is deferred until the block commits (STAMP's TM_FREE): freeing
// eagerly would let an aborted attempt's rollback resurrect a node whose
// memory had already been handed out again.
func (c *Ctx) Free(addr uint64, nWords int) {
	if c.inTx {
		c.frees = append(c.frees, pendingFree{addr, nWords})
		return
	}
	c.Pool.Free(addr, nWords)
}

// resetFrees discards frees queued by a failed attempt.
func (c *Ctx) resetFrees() { c.frees = c.frees[:0] }

// applyFrees releases the frees of a committed atomic block.
func (c *Ctx) applyFrees() {
	for _, f := range c.frees {
		c.Pool.Free(f.addr, f.nWords)
	}
	c.frees = c.frees[:0]
}

// --- Atomic blocks -------------------------------------------------------

// Tx is the handle passed to atomic-block bodies. Loads and stores go
// through the backend's concurrency control; Restart abandons the attempt
// and re-executes the block.
type Tx interface {
	Load(addr uint64) int64
	Store(addr uint64, val int64)
	Restart()
}

// restartSignal implements Restart for the lock/seq backends.
type restartSignal struct{}

// AtomicSite runs an atomic block tagged with a site name. Per-site
// counters accumulate in System.Counters: "site:<name>:commits",
// ":cycles" (inclusive of retries), ":aborts" and ":abort.<cause>" —
// the inputs for the paper's per-transaction tables (IV and V).
func (c *Ctx) AtomicSite(site string, body func(t Tx)) {
	prev, prevID := c.site, c.obsSite
	keys := c.internSite(site)
	c.site = keys
	if r := c.sys.Obs; r != nil {
		c.obsSite = c.siteID(r, site)
	}
	start := c.P.Cycles()
	c.Atomic(body)
	cnt := c.cnt()
	cnt.Add(keys.cycles, c.P.Cycles()-start)
	cnt.Inc(keys.commits)
	c.site, c.obsSite = prev, prevID
}

// siteKeys holds a site's name and its per-commit counter names.
type siteKeys struct {
	name, cycles, commits string
}

// internSite returns site's interned counter keys, building them on the
// site's first use on this thread.
func (c *Ctx) internSite(site string) *siteKeys {
	if k, ok := c.sites[site]; ok {
		return k
	}
	p := "site:" + site + ":"
	k := &siteKeys{name: site, cycles: p + "cycles", commits: p + "commits"}
	if c.sites == nil {
		c.sites = make(map[string]*siteKeys)
	}
	c.sites[site] = k
	return k
}

// siteID interns site on the recorder. SiteID is mutex-guarded for
// exactly this call: interning from the shard parallel phase must not
// take a simulated-time path (a park or exclusive boundary op), or the
// simulation's outcome would depend on whether a recorder is attached.
// The id is cached per-thread, keeping the mutex off the steady-state
// hot path.
func (c *Ctx) siteID(r *obs.Recorder, site string) int32 {
	if r == nil {
		return -1
	}
	if !c.P.ShardActive() {
		return r.SiteID(site)
	}
	if id, ok := c.siteIDs[site]; ok {
		return id
	}
	id := r.SiteID(site)
	if c.siteIDs == nil {
		c.siteIDs = make(map[string]int32)
	}
	c.siteIDs[site] = id
	return id
}

// beginAttempt marks the start of one attempt of the current atomic
// block (the abort slice's left edge) and opens/extends the thread's
// span on the flight recorder: every attempt — hardware, STM, elided or
// fallback — emits a begin, so spans stay balanced (each begin is
// terminated by a commit or an abort before the next begin).
func (c *Ctx) beginAttempt() {
	c.attemptStart = c.P.Cycles()
	r := c.sys.Obs
	if r == nil {
		return
	}
	if c.P.ShardActive() {
		c.P.DeferEvent(obs.Event{
			Cycle: c.attemptStart, Site: c.obsSite, Aux: -1, Kind: obs.KTxBegin,
		})
		return
	}
	r.TxBegin(c.P.ID(), c.attemptStart, c.obsSite)
}

// obsCommit records the committed atomic block on the flight recorder:
// one slice from block start (retries included) to now. The recorder is
// single-threaded, so shard workers defer the event for boundary replay.
func (c *Ctx) obsCommit(retries int) {
	r := c.sys.Obs
	if r == nil {
		return
	}
	if c.P.ShardActive() {
		c.P.DeferEvent(obs.Event{
			Cycle: c.P.Cycles(), Start: c.blockStart, Site: c.obsSite,
			Aux: int32(retries), Kind: obs.KTxCommit,
		})
		return
	}
	r.TxCommit(c.P.ID(), c.P.Cycles(), c.blockStart, c.obsSite, retries)
}

// obsAbort records one wasted attempt with its cause, the conflicting
// line (0 if none) and the aggressor thread (-1 if none).
func (c *Ctx) obsAbort(cause obs.Cause, line uint64, by int) {
	r := c.sys.Obs
	if r == nil {
		return
	}
	if c.P.ShardActive() {
		c.P.DeferEvent(obs.Event{
			Cycle: c.P.Cycles(), Start: c.attemptStart, Site: c.obsSite,
			Cause: cause, Arg: line, Aux: int32(by), Kind: obs.KTxAbort,
		})
		return
	}
	r.TxAbort(c.P.ID(), c.P.Cycles(), c.attemptStart, c.obsSite, cause, line, by)
}

// obsInstant records a point event (fallback serialisation, HLE elide).
func (c *Ctx) obsInstant(kind obs.Kind) {
	r := c.sys.Obs
	if r == nil {
		return
	}
	if c.P.ShardActive() {
		c.P.DeferEvent(obs.Event{Cycle: c.P.Cycles(), Site: c.obsSite, Kind: kind})
		return
	}
	r.TxInstant(c.P.ID(), c.P.Cycles(), c.obsSite, kind)
}

// obsCause maps an HTM abort cause onto the unified taxonomy. The first
// eight values of both enums are declared in the same order; the guard
// keeps an out-of-range value from aliasing an STM cause.
func obsCause(c htm.Cause) obs.Cause {
	if c <= htm.CauseNestDepth {
		return obs.Cause(c)
	}
	return obs.CauseNone
}

// noteSiteAbort records a per-site abort with its cause label.
func (c *Ctx) noteSiteAbort(cause string) {
	if c.site == nil || c.site.name == "" {
		return
	}
	cnt := c.cnt()
	cnt.Inc("site:" + c.site.name + ":aborts")
	cnt.Inc("site:" + c.site.name + ":abort." + cause)
}

// rawTx: direct accesses (Seq and Lock backends, and the HTM fallback).
type rawTx struct{ c *Ctx }

func (t rawTx) Load(addr uint64) int64       { return t.c.Load(addr) }
func (t rawTx) Store(addr uint64, val int64) { t.c.Store(addr, val) }
func (t rawTx) Restart()                     { panic(restartSignal{}) }

// htmTx: accesses through the hardware transaction.
type htmTx struct{ c *Ctx }

func (t htmTx) Load(addr uint64) int64       { return t.c.htx.Load(addr) }
func (t htmTx) Store(addr uint64, val int64) { t.c.htx.Store(addr, val) }
func (t htmTx) Restart()                     { t.c.htx.XAbort(xabortRestart) }

// stmTx: accesses through TinySTM.
type stmTx struct{ c *Ctx }

func (t stmTx) Load(addr uint64) int64       { return t.c.stx.Load(addr) }
func (t stmTx) Store(addr uint64, val int64) { t.c.stx.Store(addr, val) }
func (t stmTx) Restart()                     { t.c.stx.AbortVoluntarily() }
