package tm

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"rtmlab/internal/arch"
)

// TestFaultSandboxSharded pins the doomed-transaction fault sandbox:
// under the sharded engine a speculative attempt can observe mixed-epoch
// state after the conflict that will abort it (aborts are delivered at
// the next TM op, not eagerly), so workload code may fault first — e.g.
// index past a bound another thread's committed growth implies. Real
// RTM tears the transaction down on any synchronous exception and only
// re-raises it if the non-speculative re-execution repeats it; here the
// foreign panic must convert into an abort, the retry must succeed, and
// the tm:fault.sandbox counter must record the conversion.
func TestFaultSandboxSharded(t *testing.T) {
	for _, b := range []Backend{HTM, HLE, Hybrid, STM} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			const threads = 2
			sys := NewSystem(shardCfg(2), b)
			sys.H.Poke(0, 5)
			// One simulated doomed attempt per thread: the first try
			// faults, the re-execution (now consistent) commits.
			faulted := make([]bool, threads)
			sys.Run(threads, 7, func(c *Ctx) {
				tid := c.P.ID()
				c.Atomic(func(tx Tx) {
					v := tx.Load(0)
					if !faulted[tid] {
						faulted[tid] = true
						panic("doomed-attempt fault") // not an engine abort value
					}
					tx.Store(0, v+1)
				})
			})
			if got := sys.H.Peek(0); got != 5+threads {
				t.Errorf("balance = %d, want %d (a sandboxed attempt leaked a commit or lost one)",
					got, 5+threads)
			}
			if got := sys.Counters.Snapshot()["tm:fault.sandbox"]; got != threads {
				t.Errorf("tm:fault.sandbox = %d, want %d", got, threads)
			}
		})
	}
}

// TestFaultClassicPropagates is the other half of the sandbox contract:
// the classic serial engine is opaque — a transaction never observes
// state another in-flight transaction wrote — so a panic in an atomic
// body there is a genuine workload bug and must surface, not be
// laundered into an abort-and-retry loop.
func TestFaultClassicPropagates(t *testing.T) {
	for _, b := range []Backend{HTM, STM} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			sys := NewSystem(arch.Haswell(), b)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("workload panic was swallowed by the classic engine")
				}
				if !strings.Contains(fmt.Sprint(r), "workload bug") {
					t.Fatalf("unexpected panic: %v", r)
				}
			}()
			// One thread runs inline on this goroutine, so the panic is
			// recoverable here.
			sys.Run(1, 7, func(c *Ctx) {
				c.Atomic(func(tx Tx) {
					tx.Load(0)
					panic("workload bug")
				})
			})
		})
	}
}

// TestRegionPanicUnwindsTransactions pins the sandbox's one exception: a
// panic in one thread body tears down a sharded region while the other
// threads are suspended inside speculative attempts, and the engine's
// unwind (sim.Unwinding) must end those bodies rather than turn into an
// abort and a retry that runs them to completion.
func TestRegionPanicUnwindsTransactions(t *testing.T) {
	for _, b := range []Backend{HTM, STM} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			sys := NewSystem(shardCfg(2), b)
			var finished atomic.Int32
			v := func() (v any) {
				defer func() { v = recover() }()
				sys.Run(4, 7, func(c *Ctx) {
					if c.P.ID() == 3 {
						c.P.Work(arch.DefaultEpochCycles)
						panic("boom")
					}
					for i := 0; i < 200; i++ {
						c.Atomic(func(tx Tx) {
							for a := uint64(0); a < 8; a++ {
								addr := a * arch.LineSize
								tx.Store(addr, tx.Load(addr)+1)
							}
						})
					}
					finished.Add(1)
				})
				return nil
			}()
			if v != "boom" {
				t.Fatalf("Run panicked with %v, want boom", v)
			}
			if n := finished.Load(); n != 0 {
				t.Fatalf("%d thread bodies ran to completion after the region panicked", n)
			}
		})
	}
}
