package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rtmlab/internal/arch"
	"rtmlab/internal/obs"
	"rtmlab/internal/stamp"
	"rtmlab/internal/tm"
)

// TestShardMatrixDeterminism asserts the sharded engine's core guarantee
// at the harness level: a full experiment (Table IV, which runs STAMP
// setup plus multi-threaded regions under several backends) emits
// byte-identical tables and CSVs for every combination of shard count
// and runner fan-out. Shards >= 1 all use the epoch-synchronized engine,
// whose semantics never depend on how many engine shards or host workers
// carry the threads, and -j only changes which worker runs which point.
func TestShardMatrixDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs table4 at test scale once per matrix cell")
	}
	run := func(shards, jobs int) (string, []byte) {
		t.Helper()
		dir := t.TempDir()
		o := Options{Scale: stamp.Test, Seeds: 1, OutDir: dir, Jobs: jobs, Shards: shards}
		var buf bytes.Buffer
		Table4(&buf, o)
		csv, err := os.ReadFile(filepath.Join(dir, "table4.csv"))
		if err != nil {
			t.Fatalf("shards=%d jobs=%d: %v", shards, jobs, err)
		}
		return buf.String(), csv
	}
	baseOut, baseCSV := run(1, 1)
	for _, shards := range []int{1, 2, 4, 8} {
		for _, jobs := range []int{1, 8} {
			if shards == 1 && jobs == 1 {
				continue
			}
			out, csv := run(shards, jobs)
			if out != baseOut {
				t.Errorf("table4 output differs at shards=%d jobs=%d:\n--- base ---\n%s--- got ---\n%s",
					shards, jobs, baseOut, out)
			}
			if !bytes.Equal(csv, baseCSV) {
				t.Errorf("table4 CSV differs at shards=%d jobs=%d", shards, jobs)
			}
		}
	}
}

// TestShardStampDifferential runs a STAMP kernel sharded and unsharded
// and checks that both validate and produce the same transactional
// totals. The classic serial engine and the epoch-synchronized engine
// schedule threads differently (so cycles and abort counts legitimately
// differ), but the application executes the same input-determined set of
// atomic blocks either way, so committed-transaction totals must match —
// a lost update or phantom commit in the shard exchange would break the
// equality or the validation.
func TestShardStampDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs genome at test scale under several engines")
	}
	shardMod := func(shards int) func(sys *tm.System) {
		return func(sys *tm.System) { sys.Arch.Shard = arch.Sharding{Shards: shards} }
	}
	for _, backend := range []tm.Backend{tm.HTM, tm.STM} {
		classic, err := stamp.Run(stamp.NewGenome(stamp.Test), backend, 4, 42, nil)
		if err != nil {
			t.Fatalf("%v classic: %v", backend, err)
		}
		s2, err := stamp.Run(stamp.NewGenome(stamp.Test), backend, 4, 42, shardMod(2))
		if err != nil {
			t.Fatalf("%v shards=2: %v", backend, err)
		}
		s4, err := stamp.Run(stamp.NewGenome(stamp.Test), backend, 4, 42, shardMod(4))
		if err != nil {
			t.Fatalf("%v shards=4: %v", backend, err)
		}
		// Shard-count invariance is exact: every field, cycles included.
		if !reflect.DeepEqual(s2, s4) {
			t.Errorf("%v: results differ between shards=2 and shards=4:\n%+v\nvs\n%+v",
				backend, s2, s4)
		}
		// Classic vs sharded: same committed work, independently timed.
		// Commits counts hardware commits, so fallback-lock completions
		// (whose frequency is schedule-dependent) are added back in: the
		// sum is the input-determined number of completed atomic blocks.
		classicDone := classic.Commits + classic.Fallbacks
		shardedDone := s2.Commits + s2.Fallbacks
		if classicDone != shardedDone {
			t.Errorf("%v: completed atomic blocks differ: classic %d (%d fb) vs sharded %d (%d fb)",
				backend, classicDone, classic.Fallbacks, shardedDone, s2.Fallbacks)
		}
	}
}

// TestShardRecorderInvariance asserts that attaching a flight recorder
// never perturbs the sharded simulation: observation must be free of
// simulated-time side effects. Two conditions carry this. Recorder site
// interning must stay a host-mutex operation outside simulated time (an
// exclusive boundary op would park the interning thread across an epoch
// boundary). And recorder events are deferred ops that can outlive their
// epoch, so a thread's write buffer must drop its already-applied stores
// at every boundary even while such ops are pending; otherwise a stale
// entry shadows another thread's later store (the yada/tinystm case).
// Each case runs the tm-layer recorder, the machine-layer recorder, and
// both together.
func TestShardRecorderInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs intruder and yada several times each")
	}
	for _, c := range []struct {
		name    string
		app     func() stamp.Benchmark
		backend tm.Backend
		seed    uint64
		ring    int
	}{
		{"intruder/rtm/4t", func() stamp.Benchmark { return stamp.NewIntruder(stamp.Test, false) }, tm.HTM, 1, 1024},
		{"yada/tinystm/4t", func() stamp.Benchmark { return stamp.NewYada(stamp.Small) }, tm.STM, 3, 1 << 16},
	} {
		run := func(mod func(*tm.System)) stamp.Result {
			r, err := stamp.Run(c.app(), c.backend, 4, c.seed, func(sys *tm.System) {
				sys.Arch.Shard = arch.Sharding{Shards: 1}
				if mod != nil {
					mod(sys)
				}
			})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return r
		}
		base := run(nil)
		for _, v := range []struct {
			name string
			mod  func(*tm.System)
		}{
			{"recorder", func(s *tm.System) { s.SetRecorder(obs.NewRecorder("x", c.ring)) }},
			// Shard-count invariance makes this comparable to the shards=1
			// base; multiple workers also exercise concurrent site interning
			// under the race detector in CI.
			{"recorder-4-workers", func(s *tm.System) {
				s.Arch.Shard = arch.Sharding{Shards: 4}
				s.SetRecorder(obs.NewRecorder("x", c.ring))
			}},
			{"tm-layer-only", func(s *tm.System) { s.Obs = obs.NewRecorder("x", c.ring) }},
			{"machine-layer-only", func(s *tm.System) { s.H.Rec = obs.NewRecorder("x", c.ring) }},
		} {
			if got := run(v.mod); !reflect.DeepEqual(base, got) {
				t.Errorf("%s/%s: attaching a recorder changed the sharded simulation:\nwithout: %+v\nwith:    %+v",
					c.name, v.name, base, got)
			}
		}
	}
}
