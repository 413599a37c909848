// Command e2ebench is rtmlab's end-to-end benchmark. It runs one named
// workload (a fixed list of STAMP or Eigenbench points at input scale
// small) back to back for a number of passes, checks every point's
// output, and prints the end-to-end metrics, or with --trace 1 the
// per-layer metrics, as the last line of standard output:
//
//	e2ebench --workload stamp-mt --seed 1 --seconds 20 --trace 0
//
// Two helper modes run the benchmark repeatedly through the command in
// BENCHMARK.json:
//
//	e2ebench steady --workload stamp-1t --runs 10     # spread vs bounds
//	e2ebench ab --parent ../old --change . --pairs 10 # paired A/B
//
// See README.md for the metrics, workloads and layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// traceDir is where a traced run writes its spans, relative to the
// checkout root.
const traceDir = ".bench_build/e2ebench"

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "steady":
		err = steady(os.Args[2:], os.Stdout)
	case len(os.Args) > 1 && os.Args[1] == "ab":
		err = ab(os.Args[2:], os.Stdout)
	default:
		err = run(os.Args[1:], os.Stdout)
	}
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
		}
		os.Exit(2)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// overrun is how far past --seconds a slow host may stretch a run: no
// pass starts that would end later than overrun x --seconds.
const overrun = 1.25

// passCount converts --seconds into a whole number of passes (at least
// two, so that every point is checked against a second pass).
func passCount(w workload, seconds int) int {
	return max(2, int(float64(seconds)/w.passS))
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "nominal measuring time; sets the pass count")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced re-run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	traced := *trace == 1
	passes := passCount(w, *seconds)

	var spans *spanLog
	var all []pass
	start := time.Now()
	// A traced run alternates untraced passes (the baseline of
	// trace.overhead_frac and the per-point times) with traced ones, so
	// that host-speed drift during the run falls on both alike.
	for i := 0; i < passes; i++ {
		if i >= 2 && time.Since(start).Seconds()+all[i-1].wallS > overrun*float64(*seconds) {
			fmt.Fprintf(out, "stopping after %d of %d passes: time budget\n", i, passes)
			break
		}
		var sl *spanLog
		if traced && i%2 == 1 {
			if spans == nil {
				spans = newSpanLog()
			}
			sl = spans
		}
		ps := runPass(w, *seed, sl)
		all = append(all, ps)
		fmt.Fprintf(out, "pass %d/%d traced=%v: wall %.3f s, set-up %.3f s, %.1f Mcyc simulated\n",
			i+1, passes, ps.traced, ps.wallS, ps.setupS, float64(ps.counts.cycles)/1e6)
	}
	prov := newProvenance(w.name, *seed, *seconds, len(all), traced)
	pj, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "provenance %s\n", pj)

	why := failures(w, all)
	for _, line := range why {
		fmt.Fprintln(out, "FAILED", line)
	}
	failed := len(why)
	attempted := len(all) * len(w.points)
	fmt.Fprintf(out, "sim.fingerprint %016x\n", workloadFingerprint(all[0]))
	fmt.Fprintf(out, "points_failed_frac %g (%d of %d)\n", float64(failed)/float64(attempted), failed, attempted)

	var values map[string]float64
	var defs []metricDef
	if !traced {
		var t tail
		values, t = endToEndMetrics(all)
		defs = endToEnd
		fmt.Fprintf(out, "point_s_tail: %v\n", t)
	} else {
		values, err = tracedMetrics(w, all, prov, spans, out)
		if err != nil {
			return err
		}
		defs = perLayer
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", rj)
	return nil
}

// tracedMetrics reduces a traced run: per-point medians over the
// untraced passes (printed on their own line, since the point set
// differs by workload), the per-layer counts of the last traced pass,
// the probes and the ledger. It writes the spans out under traceDir.
func tracedMetrics(w workload, all []pass, prov provenance, spans *spanLog, out io.Writer) (map[string]float64, error) {
	var plain, traced []float64
	var region []float64
	perPoint := make([][]float64, len(w.points))
	var last pass
	for _, ps := range all {
		if ps.traced {
			traced = append(traced, ps.wallS)
			region = append(region, float64(ps.counts.recWallNS)/1e9)
			last = ps
			continue
		}
		plain = append(plain, ps.wallS)
		for i, r := range ps.points {
			perPoint[i] = append(perPoint[i], r.hostS)
		}
	}
	if len(traced) == 0 || len(plain) == 0 {
		return nil, fmt.Errorf("traced run needs an untraced and a traced pass")
	}
	points := map[string]float64{}
	for i, pt := range w.points {
		points[pt.metric()] = median(perPoint[i])
	}
	pj, err := json.Marshal(points)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "points %s\n", pj)

	values := perLayerMetrics(last.counts, median(region), runProbes(), median(traced)/median(plain)-1)
	path, err := writeTrace(traceDir, prov, values, spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	return values, nil
}
