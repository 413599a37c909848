package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchFile is BENCHMARK.json.
type benchFile struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchFile(dir string) (benchFile, error) {
	var b benchFile
	data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("BENCHMARK.json in %s: %w", dir, err)
	}
	if len(b.Command) == 0 {
		return b, fmt.Errorf("BENCHMARK.json in %s: empty command", dir)
	}
	return b, nil
}

// runBench runs dir's benchmark command once and parses its last line.
func runBench(dir string, b benchFile, workload string, seed, seconds, trace int) (result, error) {
	args := append(append([]string(nil), b.Command[1:]...),
		"--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd := exec.Command(b.Command[0], args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s %s seed %d: %w", dir, workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return result{}, fmt.Errorf("%s %s seed %d: last line: %w", dir, workload, seed, err)
	}
	return r, nil
}

// spreadOf returns the quartile distance as a share of the median.
func spreadOf(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// workloadNames returns BENCHMARK.json's workloads, or only the one
// named.
func workloadNames(b benchFile, only string) ([]string, error) {
	var names []string
	for _, w := range b.Workloads {
		if only == "" || only == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no workload %q in BENCHMARK.json", only)
	}
	return names, nil
}

// steady runs each workload --runs times with consecutive seeds and
// prints, per metric, the median, the quartiles and the spread against
// the metric's bound (end-to-end) or alone (per-layer).
func steady(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	dir := fs.String("dir", ".", "checkout root holding BENCHMARK.json")
	only := fs.String("workload", "", "one workload (default: all)")
	runs := fs.Int("runs", 10, "runs per workload")
	seed0 := fs.Int("seed0", 1, "seed of the first run")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, err := readBenchFile(*dir)
	if err != nil {
		return err
	}
	names, err := workloadNames(b, *only)
	if err != nil {
		return err
	}
	defs := b.EndToEnd
	if *trace == 1 {
		defs = b.PerLayer
	}
	for _, w := range names {
		values := map[string][]float64{}
		failed := 0
		for i := 0; i < *runs; i++ {
			r, err := runBench(*dir, b, w, *seed0+i, b.RunSeconds, *trace)
			if err != nil {
				return err
			}
			if !r.Correct || r.Failed > 0 {
				failed++
			}
			var line []string
			for _, d := range defs {
				values[d.Name] = append(values[d.Name], r.Metrics[d.Name].Value)
				if *trace == 0 {
					line = append(line, fmt.Sprintf("%s=%.4g", d.Name, r.Metrics[d.Name].Value))
				}
			}
			fmt.Fprintf(out, "%s seed %d: correct=%v %s\n", w, *seed0+i, r.Correct, strings.Join(line, " "))
		}
		fmt.Fprintf(out, "%s: %d runs, %d incorrect\n", w, *runs, failed)
		fmt.Fprintf(out, "  %-28s %-7s %12s %12s %12s %8s %6s  %s\n",
			"metric", "unit", "median", "q1", "q3", "spread", "bound", "verdict")
		for _, d := range defs {
			xs := values[d.Name]
			q1, q3 := quartiles(xs)
			sp := spreadOf(xs)
			verdict := ""
			if d.Bound > 0 {
				switch {
				case sp < d.Bound/3:
					verdict = "steady (< bound/3)"
				case sp <= d.Bound:
					verdict = "within bound"
				default:
					verdict = "OVER BOUND"
				}
			}
			fmt.Fprintf(out, "  %-28s %-7s %12.6g %12.6g %12.6g %8.4f %6.3g  %s\n",
				d.Name, d.Unit, median(xs), q1, q3, sp, d.Bound, verdict)
		}
	}
	return nil
}

// better reports whether a reads better than b for the metric.
func (d boundDef) better(a, b float64) bool {
	if d.Better == "higher" {
		return a > b
	}
	return a < b
}

// wins counts the pairs in which the change reads better.
func (d boundDef) wins(parent, change []float64) int {
	n := 0
	for i := range parent {
		if d.better(change[i], parent[i]) {
			n++
		}
	}
	return n
}

// worseBy returns how much worse change reads than parent, as a share
// of parent (negative when it reads better).
func (d boundDef) worseBy(parent, change float64) float64 {
	if d.Better == "higher" {
		return (parent - change) / math.Abs(parent)
	}
	return (change - parent) / math.Abs(parent)
}

// verdict judges one workload's metric over paired runs. A gain needs
// the change to win at least nine tenths of the pairs and the medians to
// differ by more than the parent's quartile distance. Otherwise, a spread
// wider than the bound leaves the comparison unresolved unless every
// change run reads better than every parent run; a median worse by more
// than the bound is a regression.
func (d boundDef) verdict(parent, change []float64) string {
	wins := d.wins(parent, change)
	mp, mc := median(parent), median(change)
	q1, q3 := quartiles(parent)
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && d.better(c, p)
		}
	}
	switch {
	case wins*10 >= 9*len(parent) && math.Abs(mc-mp) > q3-q1 && d.better(mc, mp):
		return "gain"
	case spreadOf(parent) > d.Bound && !allBetter:
		return "unresolved"
	case d.worseBy(mp, mc) > d.Bound:
		return "regression"
	default:
		return "no regression"
	}
}

// ab runs paired parent/change measurements, alternating which side
// runs first, and prints one row per workload and end-to-end metric.
// Both sides run at the change's run_seconds.
func ab(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ab", flag.ContinueOnError)
	parentDir := fs.String("parent", "", "checkout root of the parent commit")
	changeDir := fs.String("change", ".", "checkout root of the change")
	only := fs.String("workload", "", "one workload (default: all)")
	pairs := fs.Int("pairs", 10, "pairs per workload")
	seed0 := fs.Int("seed0", 1000, "seed of the first pair")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parentDir == "" || *pairs < 1 {
		return fmt.Errorf("ab needs --parent DIR and --pairs >= 1")
	}
	pb, err := readBenchFile(*parentDir)
	if err != nil {
		return err
	}
	cb, err := readBenchFile(*changeDir)
	if err != nil {
		return err
	}
	names, err := workloadNames(cb, *only)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-15s %-18s %-28s %-28s %5s  %s\n",
		"workload", "metric", "parent median [q1,q3]", "change median [q1,q3]", "wins", "verdict")
	for _, w := range names {
		parent := map[string][]float64{}
		change := map[string][]float64{}
		failed := [2]int{}
		for i := 0; i < *pairs; i++ {
			seed := *seed0 + i
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, side := range order {
				dir, b, dst := *parentDir, pb, parent
				if side == 1 {
					dir, b, dst = *changeDir, cb, change
				}
				r, err := runBench(dir, b, w, seed, cb.RunSeconds, 0)
				if err != nil {
					return err
				}
				failed[side] += r.Failed
				for _, d := range cb.EndToEnd {
					dst[d.Name] = append(dst[d.Name], r.Metrics[d.Name].Value)
				}
			}
		}
		if failed[1] > failed[0] {
			fmt.Fprintf(out, "%-15s more failed points on the change (%d) than the parent (%d): no gain counts\n",
				w, failed[1], failed[0])
		}
		for _, d := range cb.EndToEnd {
			p, c := parent[d.Name], change[d.Name]
			v := d.verdict(p, c)
			if v == "gain" && failed[1] > failed[0] {
				v = "no gain (more failures)"
			}
			fmt.Fprintf(out, "%-15s %-18s %-28s %-28s %2d/%-2d  %s\n",
				w, d.Name, summary(p), summary(c), d.wins(p, c), len(p), v)
		}
	}
	return nil
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g,%.4g]", median(xs), q1, q3)
}
