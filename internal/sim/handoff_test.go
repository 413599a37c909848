package sim

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"rtmlab/internal/arch"
	"rtmlab/internal/mem"
)

// engines are the scheduler configurations a multi-threaded region can
// run under: the classic min-clock engine and the sharded engine with one
// and two workers.
var engines = []struct {
	name   string
	shards int
}{
	{"classic", 0},
	{"shards=1", 1},
	{"shards=2", 2},
}

// runCatching runs body on n threads under the given engine and returns
// the value the region panicked with (nil if it returned).
func runCatching(shards, n int, body func(*Proc)) (v any) {
	cfg := arch.Haswell()
	cfg.Shard = arch.Sharding{Shards: shards}
	defer func() { v = recover() }()
	Run(cfg, mem.New(cfg), n, 1, nil, body)
	return nil
}

// waitGoroutines waits for the goroutine count to fall back to base:
// finished shard workers exit asynchronously after the region returns.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after the region, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunPanicSurfaces pins that a panicking thread body surfaces as a
// recoverable panic from Run in every engine, and that the region's other
// threads are unwound (their deferred calls run) without leaking a
// goroutine.
func TestRunPanicSurfaces(t *testing.T) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			var unwound atomic.Int32
			v := runCatching(eng.shards, 4, func(p *Proc) {
				defer unwound.Add(1)
				for i := 0; i < 20000; i++ {
					if p.ID() == 3 && i == 10000 {
						panic("boom")
					}
					p.Work(1)
					p.Load(uint64(p.ID()*4096 + i%512*8))
				}
			})
			if v != "boom" {
				t.Fatalf("Run panicked with %v, want boom", v)
			}
			if n := unwound.Load(); n != 4 {
				t.Fatalf("%d of 4 thread bodies unwound", n)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestDeadlockPanics pins the engines' deadlock diagnostics: every thread
// blocked, and the last runnable thread finishing while others are
// blocked.
func TestDeadlockPanics(t *testing.T) {
	const n = 4
	allBlock := func(b *Barrier) func(*Proc) {
		return func(p *Proc) { b.Wait(p) }
	}
	lastSkips := func(b *Barrier) func(*Proc) {
		return func(p *Proc) {
			if p.ID() != n-1 {
				b.Wait(p)
			}
		}
	}
	cases := []struct {
		name   string
		shards int
		body   func(*Proc)
		want   string
	}{
		{"classic/blocked", 0, allBlock(NewBarrier(n + 1)),
			"sim: deadlock: thread 3 blocked with no runnable threads"},
		{"classic/finished", 0, lastSkips(NewBarrier(n)),
			"sim: deadlock: thread 3 finished but 3 threads are blocked"},
		{"shards=1/blocked", 1, allBlock(NewBarrier(n + 1)),
			"sim: shard deadlock: every live thread is blocked"},
		{"shards=1/finished", 1, lastSkips(NewBarrier(n)),
			"sim: shard deadlock: every live thread is blocked"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			v := runCatching(c.shards, n, c.body)
			if s, _ := v.(string); s != c.want {
				t.Fatalf("Run panicked with %v, want %q", v, c.want)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestHandoffZeroAlloc pins that a thread switch allocates nothing: a
// classic yield to an equal-clock sibling, a classic barrier round, and
// sharded epoch-end and exclusive-op parks. Only the region's setup
// (procs, coroutines, workers) allocates.
func TestHandoffZeroAlloc(t *testing.T) {
	const runs = 100
	// measure has thread 0 run op under AllocsPerRun (runs+1 calls with
	// its warm-up) while every other thread runs op as often, so each
	// call hands off to the siblings and back.
	measure := func(t *testing.T, shards, n int, op func(*Proc)) {
		t.Helper()
		cfg := arch.Haswell()
		cfg.Shard = arch.Sharding{Shards: shards}
		var allocs float64
		var e *Engine
		Run(cfg, mem.New(cfg), n, 1, nil, func(p *Proc) {
			if p.ID() != 0 {
				for i := 0; i < runs+1; i++ {
					op(p)
				}
				return
			}
			e = p.eng
			allocs = testing.AllocsPerRun(runs, func() { op(p) })
		})
		if allocs != 0 {
			t.Fatalf("%v allocs per handoff", allocs)
		}
		if e.switches < runs {
			t.Fatalf("%d switches over %d runs: the loop did not hand off", e.switches, runs)
		}
	}
	t.Run("classic/yield", func(t *testing.T) {
		measure(t, 0, 2, func(p *Proc) { p.Work(1) })
	})
	t.Run("classic/barrier", func(t *testing.T) {
		b := NewBarrier(4)
		measure(t, 0, 4, func(p *Proc) { b.Wait(p) })
	})
	t.Run("shards=2/epoch-park", func(t *testing.T) {
		measure(t, 2, 2, func(p *Proc) { p.Work(arch.DefaultEpochCycles) })
	})
	t.Run("shards=2/op-park", func(t *testing.T) {
		nop := func() {}
		measure(t, 2, 2, func(p *Proc) { p.Exclusive(nop) })
	})
}

// TestScheduleWithMovedWaitingClock pins the run order when a waiting
// thread's clock moves while it sits in the runnable heap, as when a
// conflict abort charges its victim. The heap is not re-sifted then, so
// the order in which Run first pushes the threads is part of the
// schedule, and with it of every simulated result.
func TestScheduleWithMovedWaitingClock(t *testing.T) {
	const n = 8
	var procs [n]*Proc
	var order []int
	cfg := arch.Haswell()
	Run(cfg, mem.New(cfg), n, 1, func(p *Proc) { procs[p.ID()] = p }, func(p *Proc) {
		for i := 0; i < 3; i++ {
			order = append(order, p.ID())
			if p.ID() == 0 && i == 0 {
				for v := 1; v < n; v++ {
					procs[v].AddCycles(uint64(7 * ((v * 5) % n)))
				}
			}
			p.Work(10)
		}
	})
	want := []int{0, 0, 0, 1, 2, 4, 5, 7, 5, 2, 7, 5, 6, 4, 2, 3, 1, 7, 6, 4, 3, 1, 6, 3}
	if !slices.Equal(order, want) {
		t.Fatalf("run order %v, want %v", order, want)
	}
}
