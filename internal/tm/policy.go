package tm

import (
	"rtmlab/internal/htm"
	"rtmlab/internal/locks"
	"rtmlab/internal/mem"
	"rtmlab/internal/obs"
	"rtmlab/internal/stm"
)

// Every backend runs its atomic blocks through one attempt function and
// one retry loop. What differs between backends is a retry policy,
// resolved once per System from the backend:
//
//   - how the block speculates: not at all (seq, lock), in hardware
//     (rtm, rtm-bare, hle, hybrid) or in software (tinystm);
//   - the gate word a hardware attempt subscribes to right after xbegin,
//     and the xabort code it uses when the word is non-zero;
//   - the budget of failed attempts before the fallback path;
//   - whether an abort caused by the gate waits for the gate to clear
//     before the next attempt;
//   - the fallback path itself: direct execution (seq), the global ticket
//     lock (lock), the serialisation lock's write side (rtm), the elided
//     TAS lock taken for real (hle), or a TinySTM transaction (hybrid).
//     Policies that retry forever (rtm-bare, tinystm) never reach it.
//
// Hardware Lock Elision (HLE) is TSX's legacy-compatible interface: an
// XACQUIRE-prefixed lock acquisition starts a hardware transaction with
// the lock line in its read set but leaves the lock unwritten, so several
// critical sections run concurrently; XRELEASE commits. There is no
// software retry policy: after one failed elision the hardware re-executes
// the critical section acquiring the lock for real, and that write aborts
// every concurrently eliding transaction.
//
// The hybrid backend is the serialisation-free alternative to Algorithm 1
// that the paper's conclusion points towards ("carefully avoiding
// unnecessary serialization in such [fallback] systems is essential").
// After MaxRetries hardware failures a block falls back to a TinySTM
// transaction instead of a global lock, so overflowing transactions still
// run concurrently with each other. Coordination follows the coarse
// Hybrid-NOrec recipe: a counter on its own cache line counts in-flight
// software transactions and gates the hardware attempts. A software
// transaction's increment therefore conflict-aborts every running
// hardware transaction. Software transactions never observe uncommitted
// hardware state (hardware commits are atomic) and vice versa (software
// transactions are write-back), so the two compose at this granularity.

// hleLockAddr is the elided lock's address (its own cache line).
const hleLockAddr uint64 = serialLockAddr + 4*64

// xabortHLEHeld marks an elision attempt that observed the lock held.
const xabortHLEHeld uint8 = 0xE1

// stmActiveAddr is the hybrid backend's software-transactions-in-flight
// counter.
const stmActiveAddr uint64 = serialLockAddr + 8*64

// xabortSTMActive marks a hybrid hardware attempt that saw software
// transactions in flight.
const xabortSTMActive uint8 = 0x57

// attemptKind selects how one attempt of an atomic block executes.
type attemptKind uint8

const (
	attemptDirect attemptKind = iota // plain accesses; fails only by Restart
	attemptHTM                       // an RTM transaction
	attemptSTM                       // a software transaction
)

// fallbackKind selects the path a block takes once speculation is off or
// its budget is spent.
type fallbackKind uint8

const (
	fallbackNone   fallbackKind = iota // direct execution, no lock
	fallbackGlobal                     // the global ticket lock
	fallbackSerial                     // the serialisation lock's write side
	fallbackHLE                        // the elided TAS lock, taken for real
	fallbackSTM                        // a software transaction
)

// policy is one backend's retry policy. Its fields are unexported, so
// the set of policies is exactly the table below.
type policy struct {
	spec     attemptKind  // attemptDirect: no speculative phase
	gate     uint64       // word a hardware attempt subscribes to; 0 = none
	code     uint8        // xabort code when the gate word is non-zero
	budget   int          // failed attempts before the fallback; 0 = System.MaxRetries
	lockWait bool         // after an abort caused by the gate, wait for it to clear
	fallback fallbackKind // fallbackNone with a speculative phase: retry forever
	counter  string       // counter bumped on each fallback, with a fallback event
}

// policies maps each backend to its retry policy.
var policies = [...]policy{
	Seq:     {},
	Lock:    {fallback: fallbackGlobal},
	STM:     {spec: attemptSTM},
	HTM:     {spec: attemptHTM, gate: serialLockAddr, code: xabortLockHeld, lockWait: true, fallback: fallbackSerial, counter: "tm:fallback"},
	HTMBare: {spec: attemptHTM},
	HLE:     {spec: attemptHTM, gate: hleLockAddr, code: xabortHLEHeld, budget: 1, fallback: fallbackHLE, counter: "tm:hle.fallback"},
	Hybrid:  {spec: attemptHTM, gate: stmActiveAddr, code: xabortSTMActive, fallback: fallbackSTM, counter: "tm:hybrid.fallback"},
}

// Atomic executes body atomically under the system's backend.
func (c *Ctx) Atomic(body func(t Tx)) {
	if c.inTx {
		panic("tm: nested Atomic (flatten in the workload)")
	}
	c.inTx = true
	defer func() { c.inTx = false }()
	c.cnt().Inc("tm:atomic")
	c.resetFrees()
	c.blockStart = c.P.Cycles()
	c.attemptStart = c.blockStart
	failed, ok := 0, false
	if spec := c.sys.pol.spec; spec != attemptDirect {
		failed, ok = c.retry(spec, body, 0)
	}
	if ok {
		c.obsCommit(failed)
	} else {
		c.fallback(body, failed)
	}
	c.applyFrees()
}

// retry runs attempts of kind until one commits or the policy sends the
// block to its fallback path. It returns the running count of failed
// attempts and whether the block committed. Restarts on the direct path
// are not counted. STM attempts, and hardware attempts under a policy
// without a fallback, retry until they commit.
func (c *Ctx) retry(kind attemptKind, body func(t Tx), failed int) (int, bool) {
	pol := &c.sys.pol
	for {
		ok, ab := c.attempt(kind, body)
		if ok {
			return failed, true
		}
		if kind == attemptDirect {
			continue
		}
		failed++
		if kind == attemptSTM || pol.fallback == fallbackNone {
			continue
		}
		gated := ab.Cause == htm.CauseExplicit && htm.ExplicitCode(ab.Status) == pol.code
		if gated && pol.fallback == fallbackSTM {
			// Software transactions are in flight: join them instead of
			// waiting. They compose with each other, so there is no
			// reason to serialise behind them.
			return failed, false
		}
		if pol.lockWait && (gated || (ab.Cause == htm.CauseConflict && ab.ConflictLine == mem.LineAddr(pol.gate))) {
			c.awaitClear(pol.gate)
		}
		budget := pol.budget
		if budget == 0 {
			budget = c.sys.MaxRetries
		}
		if failed >= budget {
			return failed, false
		}
	}
}

// fallback runs the block on the policy's fallback path after failed
// speculative attempts and records its commit.
func (c *Ctx) fallback(body func(t Tx), failed int) {
	s := c.sys
	if s.pol.counter != "" {
		c.cnt().Inc(s.pol.counter)
		c.obsInstant(obs.KTxFallback)
	}
	switch s.pol.fallback {
	case fallbackNone:
		c.retry(attemptDirect, body, failed)
	case fallbackGlobal:
		s.global.Lock(c)
		c.retry(attemptDirect, body, failed)
		s.global.Unlock(c)
	case fallbackSerial:
		// The lock write conflict-aborts every transaction subscribed to
		// the lock word.
		s.serial.WriteLock(c)
		c.retry(attemptDirect, body, failed)
		s.serial.WriteUnlock(c)
	case fallbackHLE:
		// Waiting for the lock to be free first avoids an abort storm
		// among the other eliders.
		c.awaitClear(hleLockAddr)
		lk := locks.TAS{Addr: hleLockAddr}
		lk.Lock(c)
		c.retry(attemptDirect, body, failed)
		lk.Unlock(c)
	case fallbackSTM:
		// Announce, run under TinySTM, retire. The block commits with
		// the software transaction, before the retirement.
		c.RMW(stmActiveAddr, func(v int64) int64 { return v + 1 })
		failed, _ = c.retry(attemptSTM, body, failed)
		c.obsCommit(failed)
		c.RMW(stmActiveAddr, func(v int64) int64 { return v - 1 })
		return
	}
	c.obsCommit(failed)
}

// awaitClear spins until the word at addr reads zero. In tm only the
// serialisation lock's write side is ever taken, so for every gate word
// zero means free.
func (c *Ctx) awaitClear(addr uint64) {
	for c.Load(addr) != 0 {
		c.Pause()
	}
}

// attempt runs body once as kind and reports whether it committed, with
// the abort when a hardware attempt failed. A hardware attempt subscribes
// to the policy's gate word right after xbegin and aborts explicitly if
// the word is non-zero.
func (c *Ctx) attempt(kind attemptKind, body func(t Tx)) (ok bool, ab htm.Abort) {
	defer func() {
		if r := recover(); r != nil {
			ab = c.aborted(kind, r)
		}
	}()
	c.resetFrees()
	c.beginAttempt()
	switch kind {
	case attemptDirect:
		body(rawTx{c})
	case attemptHTM:
		pol := &c.sys.pol
		if pol.fallback == fallbackHLE {
			c.obsInstant(obs.KTxElide)
		}
		c.sys.HTM.Begin(c.htx)
		if pol.gate != 0 && c.htx.Load(pol.gate) != 0 {
			c.htx.XAbort(pol.code)
		}
		body(htmTx{c})
		c.htx.Commit()
	case attemptSTM:
		c.stx.Begin()
		body(stmTx{c})
		c.stx.Commit()
	}
	return true, htm.Abort{}
}

// aborted accounts one failed attempt from the value recovered from its
// panic and returns the hardware abort (zero for the other kinds). A
// voluntary restart on the direct path wastes its attempt like any abort
// (cause "none"), keeping spans balanced.
//
// Under the sharded engine a runtime fault raised by a speculative body
// is squashed into an abort too. A doomed attempt can observe
// mixed-epoch state after the conflict that kills it (the classic engine
// delivers the abort eagerly, the sharded one at the next TM operation)
// and crash in workload code first. That matches hardware, where any
// synchronous exception inside a transactional region aborts it and the
// fault only reaches the OS if the non-speculative re-execution repeats
// it. The direct path runs the body non-speculatively, so a genuine
// workload bug still crashes, and faults under the classic engine (which
// is opaque) propagate.
func (c *Ctx) aborted(kind attemptKind, r any) htm.Abort {
	switch kind {
	case attemptDirect:
		if _, is := r.(restartSignal); is {
			c.obsAbort(obs.CauseNone, 0, -1)
			return htm.Abort{}
		}
	case attemptHTM:
		a, is := r.(htm.Abort)
		if !is && c.P.Sharded() {
			if a, is = c.htx.Fault(); is {
				c.cnt().Inc("tm:fault.sandbox")
			}
		}
		if is {
			c.noteSiteAbort(a.Cause.String())
			c.obsAbort(obsCause(a.Cause), a.ConflictLine, a.ByThread)
			return a
		}
	case attemptSTM:
		a, is := r.(stm.Abort)
		if !is && c.P.Sharded() {
			if a, is = c.stx.Fault(); is {
				c.cnt().Inc("tm:fault.sandbox")
			}
		}
		if is {
			c.noteSiteAbort(a.Reason.String())
			c.obsAbort(a.Reason.ObsCause(), a.Addr, a.By)
			return htm.Abort{}
		}
	}
	panic(r)
}
