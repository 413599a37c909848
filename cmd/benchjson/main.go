// Command benchjson converts `go test -bench` output on stdin into a
// benchmark-snapshot JSON document on stdout, so scripts/bench.sh can
// accumulate a machine-readable perf trajectory (BENCH_<date>.json) in
// the repository. Standard ns/op, B/op and allocs/op columns become
// typed fields; any extra b.ReportMetric columns (speedup, abort-rate,
// ...) land in a per-benchmark metrics map.
//
// With -baseline it instead compares the parsed results against a
// committed snapshot and exits non-zero if the geomean of the shared
// benchmarks' ns/op ratios regressed by more than -tol-pct percent
// (scripts/ci.sh uses this to gate the flight-recorder disabled-path
// overhead). The gate is on the geomean, not per benchmark: on shared
// hosts individual benchmarks swing ±15-40% between identical-code
// runs, while independent noise largely cancels in the geomean —
// per-benchmark deltas are still printed, with a "high" marker beyond
// tolerance, for drilling into a failed gate. Repeated runs of the
// same benchmark (go test -count=N) are reduced to their minimum
// before comparing, the standard noise filter. Benchmark names are
// stored without go test's "-N" GOMAXPROCS suffix, so a snapshot taken
// on one host compares against a run on a host with another core count.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Package     string             `json:"package"`
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"b_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the whole document.
type Snapshot struct {
	Schema     string      `json:"schema"`
	Date       string      `json:"date"`
	GoVersion  string      `json:"go"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	date := flag.String("date", time.Now().Format("2006-01-02"), "date stamp for the snapshot")
	baseline := flag.String("baseline", "", "compare against this snapshot instead of emitting JSON")
	tolPct := flag.Float64("tol-pct", 2.0, "with -baseline: allowed ns/op regression in percent")
	only := flag.String("only", "", "with -baseline: restrict the comparison to benchmarks whose name contains this substring")
	flag.Parse()

	snap := parse(os.Stdin, *date)
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		var base Snapshot
		if err := json.Unmarshal(data, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *baseline, err)
			os.Exit(1)
		}
		stripProcs(base.Benchmarks) // snapshots written before names were normalised
		report, regressed := compare(base, snap, *tolPct, *only)
		fmt.Print(report)
		if regressed {
			os.Exit(1)
		}
		return
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: encode: %v\n", err)
		os.Exit(1)
	}
}

// parse consumes `go test -bench` output and returns the snapshot.
// Non-result lines (test chatter, bare benchmark names echoed before
// their result, malformed columns) are skipped.
func parse(r io.Reader, date string) Snapshot {
	snap := Snapshot{
		Schema:    "rtmlab-bench/v1",
		Date:      date,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
		case strings.HasPrefix(line, "cpu: "):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu: "))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(pkg, line); ok {
				snap.Benchmarks = append(snap.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}
	stripProcs(snap.Benchmarks)
	return snap
}

// stripProcs removes the "-N" suffix that go test appends to every
// benchmark name when GOMAXPROCS is N > 1, so runs on hosts with
// different core counts key their benchmarks alike. A trailing
// "-<digits>" is taken as that suffix only when every name in the run
// ends in the same one: on a 1-CPU host there is no suffix, yet a name
// such as "BenchmarkFig6Locality/9e-1" still ends in digits.
func stripProcs(bs []Benchmark) {
	suffix := ""
	for _, b := range bs {
		i := strings.LastIndexByte(b.Name, '-')
		if n, err := strconv.Atoi(b.Name[i+1:]); i < 0 || err != nil || n < 2 ||
			(suffix != "" && b.Name[i:] != suffix) {
			return // go test never prints a -1 suffix
		}
		suffix = b.Name[i:]
	}
	for i := range bs {
		bs[i].Name = strings.TrimSuffix(bs[i].Name, suffix)
	}
}

// parseLine parses one result line of the form
//
//	BenchmarkName-8  1234  56.7 ns/op  0 B/op  0 allocs/op  1.5 speedup
//
// into a Benchmark, keeping the name as printed (parse strips the
// GOMAXPROCS suffix once the whole run is read). Lines that don't look
// like results (e.g. a bare "BenchmarkX" name echoed before its result)
// are rejected.
func parseLine(pkg, line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Package: pkg, Name: f[0], Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			v := v
			b.BytesPerOp = &v
		case "allocs/op":
			v := v
			b.AllocsPerOp = &v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, true
}

// minNs reduces a snapshot to the minimum ns/op seen per
// (package, name) — the conventional multi-run noise filter.
func minNs(s Snapshot) map[string]float64 {
	out := map[string]float64{}
	for _, b := range s.Benchmarks {
		key := b.Package + "." + b.Name
		if cur, ok := out[key]; !ok || b.NsPerOp < cur {
			out[key] = b.NsPerOp
		}
	}
	return out
}

// compare reports ns/op deltas for benchmarks present in both snapshots
// and whether any regressed beyond tolPct percent. only, when non-empty,
// restricts the comparison to keys containing that substring.
func compare(base, cur Snapshot, tolPct float64, only string) (string, bool) {
	baseNs, curNs := minNs(base), minNs(cur)
	keys := make([]string, 0, len(curNs))
	for k := range curNs {
		if _, ok := baseNs[k]; ok && (only == "" || strings.Contains(k, only)) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var sb strings.Builder
	regressed := false
	logSum, geoN := 0.0, 0
	shardLogSum, shardGeoN := 0.0, 0
	for _, k := range keys {
		b, c := baseNs[k], curNs[k]
		deltaPct := 0.0
		if b > 0 {
			deltaPct = (c - b) / b * 100
		}
		if b > 0 && c > 0 {
			logSum += math.Log(c / b)
			geoN++
			if strings.Contains(k, "BenchmarkShardThroughput") {
				shardLogSum += math.Log(c / b)
				shardGeoN++
			}
		}
		verdict := "ok"
		if deltaPct > tolPct {
			verdict = "high" // informational: the gate is on the geomean
		}
		fmt.Fprintf(&sb, "%-60s %10.1f -> %10.1f ns/op  %+6.1f%%  %s\n", k, b, c, deltaPct, verdict)
	}
	if len(keys) == 0 {
		fmt.Fprintf(&sb, "no overlapping benchmarks between baseline and current run\n")
		return sb.String(), true
	}
	// Geometric mean of the per-benchmark current/baseline ns/op ratios:
	// the one-number drift summary (1.00 = no change, < 1 = faster).
	if geoN > 0 {
		geomean := math.Exp(logSum / float64(geoN))
		fmt.Fprintf(&sb, "geomean ns/op ratio vs baseline: %.3fx over %d benchmarks (%+.1f%%)\n",
			geomean, geoN, (geomean-1)*100)
		if (geomean-1)*100 > tolPct {
			regressed = true
		}
	}
	// Shard-scaling slice of the same summary: how the sharded engine's
	// wall-clock (classic + every shards=N point) moved relative to the
	// baseline snapshot.
	if shardGeoN > 0 {
		geomean := math.Exp(shardLogSum / float64(shardGeoN))
		fmt.Fprintf(&sb, "shard-scaling geomean ns/op ratio vs baseline: %.3fx over %d benchmarks (%+.1f%%)\n",
			geomean, shardGeoN, (geomean-1)*100)
	}
	if regressed {
		fmt.Fprintf(&sb, "FAIL: geomean regression beyond %.1f%% tolerance\n", tolPct)
	} else {
		fmt.Fprintf(&sb, "ok: geomean over %d benchmarks within %.1f%% of baseline\n", len(keys), tolPct)
	}
	return sb.String(), regressed
}
