package tm

import (
	"fmt"
	"reflect"
	"testing"

	"rtmlab/internal/arch"
	"rtmlab/internal/obs"
)

// shardBackends are the backends exercised under the sharded engine.
var shardBackends = []Backend{Seq, Lock, STM, HTM, HTMBare, HLE, Hybrid}

func shardCfg(shards int, epoch uint64) *arch.Config {
	cfg := arch.Haswell()
	cfg.Shard = arch.Sharding{Shards: shards, EpochCycles: epoch}
	return cfg
}

// bankBody returns the bank-transfer workload over nAccounts line-spaced
// balances: the canonical read-modify-write STAMP kernel shape, with a
// tagged site so the per-site counter path is exercised too.
func bankBody(nAccounts, iters int) func(c *Ctx) {
	return func(c *Ctx) {
		for i := 0; i < iters; i++ {
			from := uint64(c.P.Rng.Intn(nAccounts)) * arch.LineSize
			to := uint64(c.P.Rng.Intn(nAccounts)) * arch.LineSize
			amt := int64(c.P.Rng.Intn(30))
			c.AtomicSite("transfer", func(tx Tx) {
				tx.Store(from, tx.Load(from)-amt)
				tx.Store(to, tx.Load(to)+amt)
			})
		}
	}
}

// bankRun executes the bank workload and returns a full fingerprint:
// region metrics, every counter set, and the final balances.
type bankFingerprint struct {
	Cycles       uint64
	ThreadCycles []uint64
	Instr        uint64
	Counters     map[string]uint64
	HTM          map[string]uint64
	STM          map[string]uint64
	Balances     []int64
}

func bankRun(cfg *arch.Config, b Backend, threads, iters int) bankFingerprint {
	const nAccounts = 24
	const initial = 1000
	sys := NewSystem(cfg, b)
	// The sharded engine implies a pre-touching allocator; force it on the
	// classic engine too so the comparison is apples-to-apples.
	sys.Heap.PreTouch = true
	for i := 0; i < nAccounts; i++ {
		sys.H.Poke(uint64(i)*arch.LineSize, initial)
	}
	res := sys.Run(threads, 7, bankBody(nAccounts, iters))
	fp := bankFingerprint{
		Cycles:       res.Cycles,
		ThreadCycles: res.ThreadCycles,
		Instr:        res.TotalInstr(),
		Counters:     sys.Counters.Snapshot(),
	}
	if sys.HTM != nil {
		fp.HTM = sys.HTM.Counters.Snapshot()
	}
	if sys.STM != nil {
		fp.STM = sys.STM.Counters.Snapshot()
	}
	for i := 0; i < nAccounts; i++ {
		fp.Balances = append(fp.Balances, sys.H.Peek(uint64(i)*arch.LineSize))
	}
	return fp
}

func diffFingerprint(t *testing.T, want, got bankFingerprint, label string) {
	t.Helper()
	if want.Cycles != got.Cycles || !reflect.DeepEqual(want.ThreadCycles, got.ThreadCycles) || want.Instr != got.Instr {
		t.Errorf("%s: cycles/threadcycles/instr = %d/%v/%d, want %d/%v/%d",
			label, got.Cycles, got.ThreadCycles, got.Instr, want.Cycles, want.ThreadCycles, want.Instr)
	}
	if !reflect.DeepEqual(want.Counters, got.Counters) {
		t.Errorf("%s: tm counters diverge:\n got %v\nwant %v", label, got.Counters, want.Counters)
	}
	if !reflect.DeepEqual(want.HTM, got.HTM) {
		t.Errorf("%s: htm counters diverge:\n got %v\nwant %v", label, got.HTM, want.HTM)
	}
	if !reflect.DeepEqual(want.STM, got.STM) {
		t.Errorf("%s: stm counters diverge:\n got %v\nwant %v", label, got.STM, want.STM)
	}
	if !reflect.DeepEqual(want.Balances, got.Balances) {
		t.Errorf("%s: balances diverge:\n got %v\nwant %v", label, got.Balances, want.Balances)
	}
}

// TestShardSingleThreadDifferential anchors the sharded engine to the
// classic one: with a single simulated thread there is no cross-thread
// coherence, so epoch boundaries are pure bookkeeping and every total —
// cycles, instructions, commits, aborts, per-site counters, memory —
// must match the classic engine exactly.
func TestShardSingleThreadDifferential(t *testing.T) {
	for _, b := range shardBackends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			want := bankRun(arch.Haswell(), b, 1, 160)
			got := bankRun(shardCfg(2, 0), b, 1, 160)
			diffFingerprint(t, want, got, "shards=2 vs classic")
		})
	}
}

// TestShardCountInvariance is the tentpole determinism claim at the tm
// level: the sharded engine's results depend only on the epoch length,
// never on the worker count.
func TestShardCountInvariance(t *testing.T) {
	for _, b := range shardBackends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			want := bankRun(shardCfg(1, 0), b, 4, 120)
			for _, shards := range []int{2, 4, -1} {
				got := bankRun(shardCfg(shards, 0), b, 4, 120)
				diffFingerprint(t, want, got, fmt.Sprintf("shards=%d vs shards=1", shards))
			}
		})
	}
}

// TestShardBankConservation checks the semantic invariant under real
// concurrency: transfers conserve the total balance and every atomic
// block commits exactly once.
func TestShardBankConservation(t *testing.T) {
	for _, b := range shardBackends {
		if b == Seq {
			continue // racy by design at 4 threads
		}
		b := b
		t.Run(b.String(), func(t *testing.T) {
			fp := bankRun(shardCfg(4, 0), b, 4, 120)
			var total int64
			for _, v := range fp.Balances {
				total += v
			}
			if total != 24*1000 {
				t.Fatalf("total balance = %d, want %d", total, 24*1000)
			}
			if got := fp.Counters["tm:atomic"]; got != 4*120 {
				t.Fatalf("tm:atomic = %d, want %d", got, 4*120)
			}
			if got := fp.Counters["site:transfer:commits"]; got != 4*120 {
				t.Fatalf("site commits = %d, want %d", got, 4*120)
			}
		})
	}
}

// TestShardObsAndTraceInvariance runs with the flight recorder attached:
// deferred recorder traffic must replay into the same totals for any
// worker count.
func TestShardObsAndTraceInvariance(t *testing.T) {
	run := func(shards int) (map[string]uint64, uint64, uint64) {
		sys := NewSystem(shardCfg(shards, 0), HTM)
		rec := obs.NewRecorder("shard-test", 0)
		sys.SetRecorder(rec)
		for i := 0; i < 24; i++ {
			sys.H.Poke(uint64(i)*arch.LineSize, 1000)
		}
		sys.Run(4, 7, bankBody(24, 120))
		return sys.Counters.Snapshot(),
			rec.KindCount(obs.KTxCommit), rec.KindCount(obs.KTxAbort)
	}
	wantCnt, wantCommits, wantAborts := run(1)
	if wantCommits == 0 {
		t.Fatal("recorder saw no commits")
	}
	for _, shards := range []int{2, 4} {
		cnt, commits, aborts := run(shards)
		if !reflect.DeepEqual(wantCnt, cnt) {
			t.Errorf("shards=%d: counters diverge:\n got %v\nwant %v", shards, cnt, wantCnt)
		}
		if commits != wantCommits || aborts != wantAborts {
			t.Errorf("shards=%d: commits/aborts = %d/%d, want %d/%d",
				shards, commits, aborts, wantCommits, wantAborts)
		}
	}
}
