package tm

import (
	"testing"

	"rtmlab/internal/arch"
	"rtmlab/internal/obs"
)

// TestSpanPathZeroAlloc pins the causal profiler's hot-path contract
// with a flight recorder ATTACHED: the begin/commit span accounting
// (QHist.Observe, per-thread span state, ring-buffer event pushes) must
// not allocate at steady state. The recorder uses a small ring limit so
// the per-thread event streams reach their high-water mark during
// warmup and then recycle — with an unlimited ring the append itself
// would dominate as amortised growth. The cycle goes through
// AtomicSite, so the per-site counter keys are pinned as interned too.
// Runs the classic and sharded engines (sharded adds the DeferEvent
// begin/commit replay path).
func TestSpanPathZeroAlloc(t *testing.T) {
	for _, b := range []Backend{Lock, STM, HTM} {
		for _, sharded := range []bool{false, true} {
			b, sharded := b, sharded
			name := b.String()
			if sharded {
				name += "/sharded"
			}
			t.Run(name, func(t *testing.T) {
				cfg := arch.Haswell()
				if sharded {
					cfg = shardCfg(2)
				}
				sys := NewSystem(cfg, b)
				sys.SetRecorder(obs.NewRecorder("alloc", 64))
				for i := 0; i < 8; i++ {
					sys.H.Poke(uint64(i)*arch.LineSize, int64(i))
				}
				sys.Run(1, 1, func(c *Ctx) {
					cycle := func() {
						c.AtomicSite("incr", func(tx Tx) {
							for i := 0; i < 8; i++ {
								a := uint64(i) * arch.LineSize
								tx.Store(a, tx.Load(a)+1)
							}
						})
					}
					for i := 0; i < 80; i++ {
						cycle() // warm: rings wrap, span/site tables at size
					}
					if n := testing.AllocsPerRun(50, cycle); n != 0 {
						t.Errorf("%s atomic cycle with recorder attached allocates %v allocs/run at steady state", name, n)
					}
				})
			})
		}
	}
}
