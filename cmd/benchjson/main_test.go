package main

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestParseGolden runs the parser over a captured `go test -bench`
// transcript including the malformed lines the parser must skip: bare
// benchmark-name echoes, odd field counts, non-numeric iteration and
// value columns, and chatter lines.
func TestParseGolden(t *testing.T) {
	f, err := os.Open("testdata/bench.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap := parse(f, "2026-08-06")
	if snap.Schema != "rtmlab-bench/v1" || snap.Date != "2026-08-06" {
		t.Fatalf("header: %+v", snap)
	}
	if snap.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu = %q", snap.CPU)
	}
	// 2 lineset results + 2 repeated htm results; all malformed lines
	// skipped.
	if len(snap.Benchmarks) != 4 {
		for _, b := range snap.Benchmarks {
			t.Logf("parsed: %s %s", b.Package, b.Name)
		}
		t.Fatalf("parsed %d benchmarks, want 4", len(snap.Benchmarks))
	}
	b := snap.Benchmarks[0]
	if b.Package != "rtmlab/internal/lineset" || b.Name != "BenchmarkSetAddClear" {
		t.Fatalf("first = %+v", b)
	}
	if b.Iterations != 5616596 || b.NsPerOp != 215.5 {
		t.Errorf("first values = %+v", b)
	}
	if b.BytesPerOp == nil || *b.BytesPerOp != 0 || b.AllocsPerOp == nil || *b.AllocsPerOp != 0 {
		t.Errorf("first mem columns = %+v", b)
	}
	htm := snap.Benchmarks[2]
	if htm.Package != "rtmlab/internal/htm" || htm.Metrics["lines/tx"] != 32 {
		t.Errorf("custom metric not captured: %+v", htm)
	}
	for _, b := range snap.Benchmarks {
		if strings.Contains(b.Name, "Bogus") || strings.Contains(b.Name, "OddFields") ||
			strings.Contains(b.Name, "BadValue") {
			t.Errorf("malformed line parsed as result: %+v", b)
		}
	}
}

// TestParseStripsProcsSuffix pins the name normalisation: go test's
// "-N" GOMAXPROCS suffix is dropped when every result carries it, and a
// name that merely ends in digits is kept on a run without the suffix.
func TestParseStripsProcsSuffix(t *testing.T) {
	names := func(transcript string) []string {
		var out []string
		for _, b := range parse(strings.NewReader(transcript), "d").Benchmarks {
			out = append(out, b.Name)
		}
		return out
	}
	cases := []struct {
		in   string
		want []string
	}{
		{ // GOMAXPROCS=2: every name carries -2
			"BenchmarkA-2 10 5.0 ns/op\nBenchmarkFig6Locality/9e-1-2 1 9.0 ns/op\n",
			[]string{"BenchmarkA", "BenchmarkFig6Locality/9e-1"},
		},
		{ // GOMAXPROCS=1: no suffix, so a trailing "-1" is part of the name
			"BenchmarkA 10 5.0 ns/op\nBenchmarkFig6Locality/9e-1 1 9.0 ns/op\n",
			[]string{"BenchmarkA", "BenchmarkFig6Locality/9e-1"},
		},
		{ // only a -1 name: go test never prints a -1 suffix
			"BenchmarkFig6Locality/9e-1 1 9.0 ns/op\n",
			[]string{"BenchmarkFig6Locality/9e-1"},
		},
		{ // mixed suffixes (-cpu 2,4): not a single GOMAXPROCS, left as printed
			"BenchmarkA-2 10 5.0 ns/op\nBenchmarkA-4 10 4.0 ns/op\n",
			[]string{"BenchmarkA-2", "BenchmarkA-4"},
		},
	}
	for _, tc := range cases {
		if got := names(tc.in); !slices.Equal(got, tc.want) {
			t.Errorf("parse(%q) names = %q, want %q", tc.in, got, tc.want)
		}
	}

	// A suffixed baseline compares against an unsuffixed run once both
	// are normalised.
	base := Snapshot{Benchmarks: []Benchmark{bm("p", "BenchmarkA-2", 100)}}
	stripProcs(base.Benchmarks)
	cur := parse(strings.NewReader("pkg: p\nBenchmarkA 10 100.0 ns/op\n"), "d")
	if report, regressed := compare(base, cur, 2.0, ""); regressed {
		t.Fatalf("suffixed baseline found no overlap:\n%s", report)
	}
}

func TestParseLineRejectsMalformed(t *testing.T) {
	bad := []string{
		"BenchmarkBare",
		"BenchmarkShort-8 100",
		"BenchmarkOdd-8 100 12.0",
		"BenchmarkIters-8 abc 12.0 ns/op",
		"BenchmarkValue-8 100 twelve ns/op",
	}
	for _, line := range bad {
		if _, ok := parseLine("p", line); ok {
			t.Errorf("parseLine accepted %q", line)
		}
	}
}

func bm(pkg, name string, ns float64) Benchmark {
	return Benchmark{Package: pkg, Name: name, Iterations: 1, NsPerOp: ns}
}

func TestCompareMinOfRunsAndTolerance(t *testing.T) {
	base := Snapshot{Benchmarks: []Benchmark{
		bm("p", "BenchmarkA-8", 100),
		bm("p", "BenchmarkB-8", 100),
		bm("p", "BenchmarkGone-8", 50),
	}}
	cur := Snapshot{Benchmarks: []Benchmark{
		bm("p", "BenchmarkA-8", 110), // noisy run...
		bm("p", "BenchmarkA-8", 101), // ...min 101 → +1%, within 2%
		bm("p", "BenchmarkB-8", 104), // +4% → geomean ≈ +2.5% → regression
		bm("p", "BenchmarkNew-8", 7), // no baseline → ignored
	}}
	report, regressed := compare(base, cur, 2.0, "")
	if !regressed {
		t.Fatalf("expected geomean regression:\n%s", report)
	}
	if !strings.Contains(report, "BenchmarkB-8") || !strings.Contains(report, "high") {
		t.Errorf("report missing the beyond-tolerance marker:\n%s", report)
	}
	if strings.Contains(report, "BenchmarkGone") || strings.Contains(report, "BenchmarkNew") {
		t.Errorf("non-overlapping benchmarks compared:\n%s", report)
	}

	// Min-of-runs keeps A inside tolerance once B is filtered out.
	report, regressed = compare(base, cur, 2.0, "BenchmarkA")
	if regressed {
		t.Fatalf("BenchmarkA should pass via min-of-runs:\n%s", report)
	}

	// One noisy outlier must not fail the gate while the geomean holds:
	// B is +4% ("high"), but pooled with A the geomean is within 3%.
	report, regressed = compare(base, cur, 3.0, "")
	if regressed {
		t.Fatalf("geomean within tolerance should pass despite one high benchmark:\n%s", report)
	}
	if !strings.Contains(report, "high") {
		t.Errorf("per-benchmark marker missing on passing gate:\n%s", report)
	}

	// No overlap at all must fail loudly, not pass vacuously.
	if report, regressed = compare(base, cur, 2.0, "nosuch"); !regressed {
		t.Fatalf("empty comparison should fail:\n%s", report)
	}
}
