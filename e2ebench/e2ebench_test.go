package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"rtmlab/internal/mem"
	"rtmlab/internal/stamp"
	"rtmlab/internal/stm"
	"rtmlab/internal/tm"
)

func TestTailRankAndCount(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, to check sorting
		}
		return xs
	}
	for _, c := range []struct {
		n, rank int
		value   float64
	}{
		{48, 38, 38}, // stamp-1t at two passes: p79.2
		{11, 1, 1},   // exactly ten beyond the smallest
		{30, 20, 20},
		{10, 10, 10}, // no percentile has ten beyond: the maximum
		{1, 1, 1},
	} {
		got := tailOf(seq(c.n))
		if got.rank != c.rank || got.n != c.n || got.value != c.value {
			t.Errorf("n=%d: got rank %d of %d = %v, want rank %d = %v", c.n, got.rank, got.n, got.value, c.rank, c.value)
		}
		if c.n > tailBeyond && got.n-got.rank != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, got.n-got.rank, tailBeyond)
		}
	}
	if s := tailOf(seq(48)).String(); !strings.Contains(s, "p79.2 (rank 38 of 48 samples, 10 beyond)") {
		t.Errorf("tail label %q", s)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4),
// which the benchmark's spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2, 3, 10, 7}, 2, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// fakeBench is a STAMP-shaped benchmark whose failures are forced.
type fakeBench struct {
	name        string
	validateErr error
	panics      bool
	runs        *int // when set, each run simulates a little more work
}

func (f fakeBench) Name() string                 { return f.name }
func (f fakeBench) Setup(c *tm.Ctx, seed uint64) { c.Work(100) }
func (f fakeBench) Parallel(sys *tm.System, threads int, seed uint64) {
	work := uint64(1000)
	if f.runs != nil {
		*f.runs++
		work += uint64(*f.runs)
	}
	sys.Run(threads, seed, func(c *tm.Ctx) { c.Work(work) })
}
func (f fakeBench) Validate(sys *tm.System) error {
	if f.panics {
		panic("forced")
	}
	return f.validateErr
}

func fakePoint(b fakeBench) point {
	return point{app: b.name, bench: func() stamp.Benchmark { return b }, backend: tm.Seq, threads: 1}
}

func TestFailureAccounting(t *testing.T) {
	runs := 0
	w := workload{name: "fake", points: []point{
		fakePoint(fakeBench{name: "ok"}),
		fakePoint(fakeBench{name: "invalid", validateErr: errors.New("forced")}),
		fakePoint(fakeBench{name: "panics", panics: true}),
		fakePoint(fakeBench{name: "drifts", runs: &runs}),
	}}
	one := []pass{runPass(w, 1, nil)}
	if lines := failures(w, one); len(lines) != 2 {
		t.Fatalf("one pass: %d failures, want 2 (forced Validate error, forced panic): %v", len(lines), lines)
	}
	two := append(one, runPass(w, 1, newSpanLog()))
	lines := failures(w, two)
	if len(lines) != 5 {
		t.Fatalf("two passes: %d failures, want 5 (2 per pass + 1 fingerprint drift): %v", len(lines), lines)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "pass 2 point.drifts.seq1t_s: fingerprint") {
		t.Errorf("drift not reported against its pass and point: %v", lines)
	}
	if two[0].points[0].fp != two[1].points[0].fp {
		t.Errorf("attaching the recorder changed the fake point's fingerprint")
	}
}

func TestLedgerResidual(t *testing.T) {
	c := counts{
		mem:         mem.Stats{L1Hits: 1000, L2Hits: 100, L3Hits: 10, MemAccesses: 1},
		recSwitches: 50,
		htmStarts:   4,
		stmBegins:   2,
	}
	pc := probeCosts{
		handoff: 200, loadL1: 1, loadL2: 10, loadL3: 100, loadMem: 1000,
		htmTxn: 500, stmTxn: map[string]float64{stm.TinySTMName: 300},
	}
	// sim 50x200 = 10000 ns; mem 1000+1000+1000+1000 = 4000 ns;
	// htm 4x(500-100) = 1600 ns; stm 2x(300-100) = 400 ns; sum 16000 ns.
	l := newLedger(c, 20000e-9, pc)
	want := ledger{sim: 10000e-9, mem: 4000e-9, htm: 1600e-9, stm: 400e-9, residual: 4000e-9, residualFrac: 0.2}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"sim", l.sim, want.sim}, {"mem", l.mem, want.mem}, {"htm", l.htm, want.htm},
		{"stm", l.stm, want.stm}, {"residual", l.residual, want.residual},
		{"residual_frac", l.residualFrac, want.residualFrac},
	} {
		if math.Abs(f.got-f.want) > 1e-15 {
			t.Errorf("ledger.%s = %g, want %g", f.name, f.got, f.want)
		}
	}
	// A probe transaction cheaper than its own L1 accesses prices at 0.
	pc.htmTxn = 50
	if l := newLedger(c, 1, pc); l.htm != 0 {
		t.Errorf("negative htm price not clamped: %g", l.htm)
	}
}

// TestMetricNames checks every name the benchmark prints against the
// charset and BENCHMARK.json against the metric tables.
func TestMetricNames(t *testing.T) {
	var names []string
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		names = append(names, d.name)
	}
	for _, w := range workloads() {
		names = append(names, w.name)
		for _, pt := range w.points {
			names = append(names, pt.metric())
		}
	}
	seen := map[string]bool{}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-] or too long", n)
		}
		if seen[n] && !strings.HasPrefix(n, "point.") {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, bad := range []string{"point.bayes/rtm", "_lead", "a b", strings.Repeat("x", 65)} {
		if nameRE.MatchString(bad) {
			t.Errorf("nameRE accepts %q", bad)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, got []boundDef, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, code has %+v", kind, i, g, d)
			}
			if !unitRE.MatchString(d.unit) {
				t.Errorf("unit %q of %s outside the unit charset", d.unit, d.name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, d := range b.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range b.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}
