package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricDef names one metric the benchmark reports.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists the metrics of an untraced run (--trace 0), in the
// order BENCHMARK.json lists them.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"sim_mcycles_per_s", "Mcyc/s", "higher"},
	{"point_s_p50", "s", "lower"},
	{"point_s_tail", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"max_rss_mb", "MB", "lower"},
	{"alloc_mb", "MB", "lower"},
}

// perLayer lists the metrics of a traced run (--trace 1), layer by
// layer, in the order BENCHMARK.json lists them.
var perLayer = []metricDef{
	{"sim.cycles", "count", "lower"},
	{"sim.instr", "count", "lower"},
	{"sim.regions", "count", "lower"},
	{"sim.switches", "count", "lower"},
	{"sim.region_host_s", "s", "lower"},
	{"sim.handoff_ns", "ns", "lower"},
	{"sim.epochs", "count", "lower"},
	{"sim.boundary_ops", "count", "lower"},
	{"sim.parks", "count", "lower"},
	{"sim.local_ops", "count", "higher"},

	{"mem.l1_accesses", "count", "lower"},
	{"mem.l1_hit_ratio", "ratio", "higher"},
	{"mem.l2_hit_ratio", "ratio", "higher"},
	{"mem.l3_hit_ratio", "ratio", "higher"},
	{"mem.dram_accesses", "count", "lower"},
	{"mem.invalidations", "count", "lower"},
	{"mem.l3_evictions", "count", "lower"},
	{"mem.writebacks", "count", "lower"},
	{"mem.load_l1_ns", "ns", "lower"},
	{"mem.load_l2_ns", "ns", "lower"},
	{"mem.load_l3_ns", "ns", "lower"},
	{"mem.load_dram_ns", "ns", "lower"},
	{"mem.store_l1_ns", "ns", "lower"},

	{"lineset.table_get_ns", "ns", "lower"},
	{"lineset.set_add_clear_ns", "ns", "lower"},

	{"htm.starts", "count", "lower"},
	{"htm.commits", "count", "higher"},
	{"htm.commit_ratio", "ratio", "higher"},
	{"htm.aborts.conflict", "count", "lower"},
	{"htm.aborts.read_capacity", "count", "lower"},
	{"htm.aborts.write_capacity", "count", "lower"},
	{"htm.aborts.misc3", "count", "lower"},
	{"htm.aborts.misc5", "count", "lower"},
	{"htm.txn_ns", "ns", "lower"},

	{"stm.begins", "count", "lower"},
	{"stm.commits", "count", "higher"},
	{"stm.commit_ratio", "ratio", "higher"},
	{"stm.aborts", "count", "lower"},
	{"stm.txn_ns.tinystm", "ns", "lower"},
	{"stm.txn_ns.tl2", "ns", "lower"},
	{"stm.txn_ns.norec", "ns", "lower"},

	{"tm.atomic", "count", "lower"},
	{"tm.fallbacks", "count", "lower"},
	{"tm.lock_aborts", "count", "lower"},
	{"tm.atomic_ns.seq", "ns", "lower"},
	{"tm.atomic_ns.rtm", "ns", "lower"},
	{"tm.atomic_ns.tinystm", "ns", "lower"},

	{"ledger.sim_s", "s", "lower"},
	{"ledger.mem_s", "s", "lower"},
	{"ledger.htm_s", "s", "lower"},
	{"ledger.stm_s", "s", "lower"},
	{"ledger.residual_s", "s", "lower"},
	{"ledger.residual_frac", "ratio", "lower"},

	{"trace.overhead_frac", "ratio", "lower"},
}

// nameRE is the metric-name charset: a letter or digit, then up to 63
// letters, digits, '_', '.' or '-'.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sum returns the sum of xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is how many samples must lie beyond the reported tail.
const tailBeyond = 10

// tail is the highest percentile of a sample set that has at least
// tailBeyond samples beyond it.
type tail struct {
	value float64
	rank  int // 1-based rank in ascending order
	n     int // sample count
}

// pct returns the percentile the rank stands at.
func (t tail) pct() float64 { return 100 * float64(t.rank) / float64(t.n) }

func (t tail) String() string {
	if t.n-t.rank < tailBeyond {
		return fmt.Sprintf("max of %d samples (fewer than %d would lie beyond any percentile) = %.4g s",
			t.n, tailBeyond, t.value)
	}
	return fmt.Sprintf("p%.1f (rank %d of %d samples, %d beyond) = %.4g s",
		t.pct(), t.rank, t.n, t.n-t.rank, t.value)
}

// tailOf returns the sample of rank n-tailBeyond, which has exactly
// tailBeyond samples beyond it; with n <= tailBeyond no percentile
// qualifies and the maximum is returned instead.
func tailOf(xs []float64) tail {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return tail{value: math.NaN()}
	}
	rank := n - tailBeyond
	if rank < 1 {
		rank = n
	}
	return tail{value: s[rank-1], rank: rank, n: n}
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
