package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"rtmlab/internal/arch"
	"rtmlab/internal/eigenbench"
	"rtmlab/internal/mem"
	"rtmlab/internal/obs"
	"rtmlab/internal/perf"
	"rtmlab/internal/sim"
	"rtmlab/internal/stamp"
	"rtmlab/internal/tm"
)

// point is one measured configuration: a STAMP application (bench set)
// or the Eigenbench capacity point (bench nil) under one backend, thread
// count and engine.
type point struct {
	app     string
	bench   func() stamp.Benchmark
	backend tm.Backend
	threads int
	shards  int
}

// metric returns the point's per-point metric name, e.g.
// point.bayes.rtm8t_s.
func (p point) metric() string {
	return fmt.Sprintf("point.%s.%s%dt_s", p.app, p.backend, p.threads)
}

// workload is a fixed list of points run back to back as one pass.
type workload struct {
	name string
	why  string
	// passS is the host seconds one pass takes on the reference host
	// (2 vCPU, GOMAXPROCS 2). It only converts --seconds into a whole
	// number of passes: the pass count, and with it the sample count
	// behind point_s_tail, then depends on --seconds alone, so two
	// commits compared at the same --seconds time the same passes.
	passS  float64
	points []point
}

// eigenWS is the Eigenbench working set: Fig. 3's 4 MB point, whose
// 16 MB footprint at 4 threads overflows the modelled 8 MB L3.
const eigenWS = 4 << 20

// stampPoints crosses the 8 STAMP applications at small scale with the
// given backend/thread configurations.
func stampPoints(shards int, cfgs ...point) []point {
	var out []point
	for i, b := range stamp.Registry(stamp.Small) {
		i := i
		for _, c := range cfgs {
			c.app = b.Name()
			c.bench = func() stamp.Benchmark { return stamp.Registry(stamp.Small)[i] }
			c.shards = shards
			out = append(out, c)
		}
	}
	return out
}

// workloads lists the benchmark's workloads; the doc (README.md) gives
// the layer each one isolates.
func workloads() []workload {
	mt := []point{{backend: tm.HTM, threads: 8}, {backend: tm.STM, threads: 4}}
	return []workload{
		{
			name:   "stamp-mt",
			why:    "8 STAMP apps at rtm/8t and tinystm/4t on the classic engine: scheduler handoff dominates",
			passS:  11.6,
			points: stampPoints(0, mt...),
		},
		{
			name:  "stamp-1t",
			why:   "8 STAMP apps at seq, rtm and tinystm on 1 thread: no handoffs, per-access cost dominates",
			passS: 1.8,
			points: stampPoints(0,
				point{backend: tm.Seq, threads: 1},
				point{backend: tm.HTM, threads: 1},
				point{backend: tm.STM, threads: 1}),
		},
		// eigen-capacity is not in BENCHMARK.json: its runs spread the
		// most of all workloads on a shared 2-vCPU host, and two
		// workloads leave the time for runs long enough to be steady
		// (see README.md).
		{
			name:  "eigen-capacity",
			why:   "Eigenbench 4 MB working set at 4 threads under rtm and tinystm: L3 misses and evictions dominate",
			passS: 1.8,
			points: []point{
				{app: "eigen4mb", backend: tm.HTM, threads: 4},
				{app: "eigen4mb", backend: tm.STM, threads: 4},
			},
		},
		// stamp-sharded is not in BENCHMARK.json: attaching the recorder
		// changes the sharded simulation of yada under tinystm/4t, so its
		// traced runs fail the fingerprint check (see README.md).
		{
			name:   "stamp-sharded",
			why:    "stamp-mt's points on the sharded engine with 2 shard workers: epoch boundaries dominate",
			passS:  7.8,
			points: stampPoints(2, mt...),
		},
	}
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// counts is what one point (or, summed, one pass) did in simulated
// terms, read from the layers' public counters. The rec* fields come
// from the obs recorder and are zero unless the point was traced.
type counts struct {
	cycles, instr uint64
	mem           mem.Stats

	htmStarts, htmCommits                                  uint64
	abortConflict, abortReadCap, abortWriteCap, abortMisc3 uint64
	abortMisc5                                             uint64
	stmBegins, stmCommits, stmAborts                       uint64
	tmAtomic, tmFallbacks, tmLockAborts                    uint64

	recRegions, recSwitches, recEpochs, recBoundaryOps uint64
	recParks, recLocalOps                              uint64
	recWallNS                                          int64
}

func (c *counts) add(o counts) {
	c.cycles += o.cycles
	c.instr += o.instr
	c.mem = c.mem.Add(o.mem)
	c.htmStarts += o.htmStarts
	c.htmCommits += o.htmCommits
	c.abortConflict += o.abortConflict
	c.abortReadCap += o.abortReadCap
	c.abortWriteCap += o.abortWriteCap
	c.abortMisc3 += o.abortMisc3
	c.abortMisc5 += o.abortMisc5
	c.stmBegins += o.stmBegins
	c.stmCommits += o.stmCommits
	c.stmAborts += o.stmAborts
	c.tmAtomic += o.tmAtomic
	c.tmFallbacks += o.tmFallbacks
	c.tmLockAborts += o.tmLockAborts
	c.recRegions += o.recRegions
	c.recSwitches += o.recSwitches
	c.recEpochs += o.recEpochs
	c.recBoundaryOps += o.recBoundaryOps
	c.recParks += o.recParks
	c.recLocalOps += o.recLocalOps
	c.recWallNS += o.recWallNS
}

// pointRun is the outcome of one point.
type pointRun struct {
	hostS  float64 // point start to return, set-up included
	setupS float64 // point start to the end of its first simulated region
	counts counts
	fp     uint64 // simulated-statistics fingerprint
	err    error
}

// recorderLimit bounds each recorder track's event ring; the benchmark
// reads only counters and wall time from the recorder.
const recorderLimit = 1 << 10

// runPoint runs pt once. A panic on the calling goroutine (set-up,
// single-threaded regions, validation) is recovered and returned as the
// point's error. With spans non-nil the point is traced: an obs.Recorder
// is attached and spans are recorded around the benchmark's calls.
func runPoint(pt point, seed uint64, spans *spanLog) (r pointRun) {
	start := time.Now()
	var setupEnd time.Time
	var sys *tm.System
	var rec *obs.Recorder
	root := spans.open("point:"+pt.metric(), -1, start)
	defer func() {
		end := time.Now()
		if v := recover(); v != nil {
			r.err = fmt.Errorf("panic: %v", v)
		}
		r.hostS = end.Sub(start).Seconds()
		if !setupEnd.IsZero() {
			r.setupS = setupEnd.Sub(start).Seconds()
		}
		spans.close(root, end)
		if r.err == nil && sys != nil {
			r.counts.add(readCounts(sys, rec))
			r.fp = fingerprint(pt, sys, r.counts)
		}
	}()
	// regions sums every region the hook sees; the first one ends set-up.
	var regions counts
	var firstFrom time.Time
	parent := root
	hook := func(res sim.Result) {
		if setupEnd.IsZero() {
			setupEnd = time.Now()
			spans.add("region.first", parent, firstFrom, setupEnd)
		}
		regions.cycles += res.Cycles
		regions.instr += res.TotalInstr()
	}
	attach := func(s *tm.System) {
		sys = s
		s.Arch.Shard.Shards = pt.shards
		if spans != nil {
			rec = obs.NewRecorder(pt.metric(), recorderLimit)
			s.SetRecorder(rec)
		}
		s.RegionHook = hook
		firstFrom = time.Now()
	}

	if pt.bench != nil {
		call := time.Now()
		parent = spans.open("stamp.Run", root, call)
		res, err := stamp.Run(pt.bench(), pt.backend, pt.threads, seed, func(s *tm.System) {
			spans.add("tm.NewSystem", parent, call, time.Now())
			attach(s)
		})
		spans.close(parent, time.Now())
		// stamp.Run replaces the hook after set-up, so only the set-up
		// region reached it; the region of interest comes from res.
		r.counts.cycles = res.SetupCycles + res.Cycles
		r.counts.instr = regions.instr + res.Instr
		r.err = err
		return r
	}

	call := time.Now()
	s := tm.NewSystem(arch.Haswell(), pt.backend)
	spans.add("tm.NewSystem", root, call, time.Now())
	attach(s)
	p := eigenbench.Default(eigenWS)
	call = time.Now()
	parent = spans.open("eigenbench.Run", root, call)
	firstFrom = call
	eigenbench.Run(s, p, seed)
	spans.close(parent, time.Now())
	r.counts.cycles, r.counts.instr = regions.cycles, regions.instr
	r.err = validateEigen(s, p)
	return r
}

// validateEigen checks Eigenbench's output: every atomic block of the
// warm-up and measured passes ran exactly once and committed exactly
// once, through the backend or (rtm) the fallback lock.
func validateEigen(s *tm.System, p eigenbench.Params) error {
	want := uint64(p.Threads * (p.Loops + p.Loops/4))
	atomic := s.Counters.Get("tm:atomic")
	if atomic != want {
		return fmt.Errorf("eigenbench: %d atomic blocks, want %d", atomic, want)
	}
	var committed uint64
	switch s.Backend {
	case tm.HTM:
		committed = s.HTM.Counters.Get(perf.RTMCommit) + s.Counters.Get("tm:fallback")
	case tm.STM:
		committed = s.STM.Counters.Get("stm:commit")
	default:
		committed = atomic
	}
	if committed != want {
		return fmt.Errorf("eigenbench: %d commits, want %d", committed, want)
	}
	return nil
}

// readCounts reads the layers' counters after a point (set-up included).
func readCounts(s *tm.System, rec *obs.Recorder) counts {
	c := counts{
		mem:          s.H.Stats,
		tmAtomic:     s.Counters.Get("tm:atomic"),
		tmFallbacks:  s.Counters.Get("tm:fallback"),
		tmLockAborts: s.Counters.Get("tm:abort.lock"),
	}
	if h := s.HTM; h != nil {
		c.htmStarts = h.Counters.Get(perf.RTMStart)
		c.htmCommits = h.Counters.Get(perf.RTMCommit)
		c.abortConflict = h.Counters.Get("htm:abort.conflict")
		c.abortReadCap = h.Counters.Get("htm:abort.read-capacity")
		c.abortWriteCap = h.Counters.Get("htm:abort.write-capacity")
		c.abortMisc3 = h.Counters.Get(perf.RTMAbortedMisc3)
		c.abortMisc5 = h.Counters.Get(perf.RTMAbortedMisc5)
	}
	if st := s.STM; st != nil {
		c.stmBegins = st.Counters.Get("stm:begin")
		c.stmCommits = st.Counters.Get("stm:commit")
		c.stmAborts = st.Counters.Get("stm:abort")
	}
	if rec != nil {
		c.recRegions = rec.Counter("sim:regions")
		c.recSwitches = rec.Counter("sim:switches")
		c.recEpochs = rec.Counter("sim:epochs")
		c.recBoundaryOps = rec.Counter("sim:boundary.ops")
		c.recParks = rec.Counter("sim:parks.op")
		c.recLocalOps = rec.Counter("sim:local.ops")
		c.recWallNS = rec.WallNS()
	}
	return c
}

// fingerprint hashes a point's simulated statistics: cycles,
// instructions, every tm/htm/stm counter (commits and aborts by cause
// among them) and mem.Stats. Host-side quantities stay out, so the hash
// repeats exactly for the same point and seed, traced or not.
func fingerprint(pt point, s *tm.System, c counts) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%+v|", pt.metric(), c.cycles, c.instr, s.H.Stats)
	sets := []*perf.Set{s.Counters}
	if s.HTM != nil {
		sets = append(sets, s.HTM.Counters)
	}
	if s.STM != nil {
		sets = append(sets, s.STM.Counters)
	}
	for _, set := range sets {
		snap := set.Snapshot()
		for _, k := range sortedKeys(snap) {
			fmt.Fprintf(h, "%s=%d;", k, snap[k])
		}
		fmt.Fprint(h, "|")
	}
	return h.Sum64()
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// pass is one run over a workload's points.
type pass struct {
	traced bool
	wallS  float64 // sum of the points' host seconds
	setupS float64
	allocB uint64
	points []pointRun
	counts counts
}

// runPass runs every point of w in order. Each point starts from an
// empty simulated machine (tm.NewSystem) and a freshly collected host
// heap; the collection between points is not timed.
func runPass(w workload, seed uint64, spans *spanLog) pass {
	ps := pass{traced: spans != nil}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, pt := range w.points {
		runtime.GC()
		r := runPoint(pt, seed, spans)
		ps.wallS += r.hostS
		ps.setupS += r.setupS
		ps.counts.add(r.counts)
		ps.points = append(ps.points, r)
	}
	runtime.ReadMemStats(&after)
	ps.allocB = after.TotalAlloc - before.TotalAlloc
	return ps
}

// failures returns one line per failed point run: an error (validation
// or panic), or simulated statistics that differ from the first pass's
// for the same point.
func failures(w workload, passes []pass) []string {
	var lines []string
	for k, ps := range passes {
		for i, r := range ps.points {
			var why string
			switch {
			case r.err != nil:
				why = r.err.Error()
			case k > 0 && passes[0].points[i].err == nil && r.fp != passes[0].points[i].fp:
				why = fmt.Sprintf("fingerprint %016x differs from pass 1's %016x (traced=%v)",
					r.fp, passes[0].points[i].fp, ps.traced)
			default:
				continue
			}
			lines = append(lines, fmt.Sprintf("pass %d %s: %s", k+1, w.points[i].metric(), why))
		}
	}
	return lines
}

// workloadFingerprint combines the first pass's point fingerprints.
func workloadFingerprint(ps pass) uint64 {
	h := fnv.New64a()
	for _, r := range ps.points {
		fmt.Fprintf(h, "%016x;", r.fp)
	}
	return h.Sum64()
}
