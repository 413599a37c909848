package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Causal run reports and run diffing (the rtmreport CLI's engine, kept
// here so it is testable against live recorders). A report is a pure
// function of a metrics sidecar, so report bytes inherit the sidecar's
// -j/-shards byte-identity guarantee.
//
// The diff classifies every metric as *semantic* or *timing-derived*.
// Semantic metrics (committed atomic blocks, per-site commits) are
// workload results: two runs of the same experiment must agree on them
// no matter the engine or shard count — a mismatch means the runs
// computed different things. Timing-derived metrics (latency
// percentiles, aborts, wasted cycles, serial fraction, critical path)
// legitimately move when the engine changes; they get
// delta-and-verdict treatment instead of an equality gate.

// ReadMetricsFile loads one metrics sidecar document.
func ReadMetricsFile(path string) (*MetricsJSON, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc MetricsJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !strings.HasPrefix(doc.Schema, "rtmlab-metrics/") {
		return nil, fmt.Errorf("%s: schema %q is not a metrics sidecar", path, doc.Schema)
	}
	return &doc, nil
}

// reportRecorders returns the document's recorders plus the aggregate
// (labelled) when present.
func reportRecorders(doc *MetricsJSON) []RecorderJSON {
	out := append([]RecorderJSON(nil), doc.Recorders...)
	if doc.Aggregate != nil {
		out = append(out, *doc.Aggregate)
	}
	return out
}

// WriteReport renders the causal report for one metrics document.
func WriteReport(w io.Writer, doc *MetricsJSON) {
	fmt.Fprintf(w, "== rtmreport: %s ==\n", doc.Experiment)
	for _, r := range reportRecorders(doc) {
		writeRecorderReport(w, r)
	}
}

func writeRecorderReport(w io.Writer, r RecorderJSON) {
	fmt.Fprintf(w, "\n-- %s --\n", r.Label)
	commits := r.Events["commit"]
	aborts := r.Events["abort"]
	fallbacks := r.Events["fallback"]
	fmt.Fprintf(w, "  commits %d  aborts %d  fallbacks %d", commits, aborts, fallbacks)
	if r.Dropped > 0 {
		fmt.Fprintf(w, "  (%d events dropped)", r.Dropped)
	}
	fmt.Fprintln(w)
	s := r.Spans
	if s != nil {
		l := s.Latency
		fmt.Fprintf(w, "  latency: p50 %.0f  p99 %.0f  p999 %.0f  max %d  mean %.1f cycles (%d spans, %d attempts)\n",
			l.P50, l.P99, l.P999, l.Max, l.Mean, s.Committed, s.Attempts)
		if s.CriticalPathCycles > 0 {
			fmt.Fprintf(w, "  critical path: %d cycles, busy %d (parallelism %.2f)\n",
				s.CriticalPathCycles, s.BusyCycles,
				float64(s.BusyCycles)/float64(s.CriticalPathCycles))
		}
		if s.ChainLinks > 0 {
			fmt.Fprintf(w, "  convoys: %d chain links, max depth %d (window %d cycles)\n",
				s.ChainLinks, s.ChainMaxDepth, s.ConvoyWindow)
		}
	}
	if sh := r.Sharding; sh != nil {
		fmt.Fprintf(w, "  serial fraction: %.4f (epochs %d, parks/epoch %.2f, boundary-ops/epoch %.2f)\n",
			sh.SerialFraction, sh.Epochs, sh.ParksPerEpoch, sh.BoundaryOpsPerEpoch)
	}
	if s != nil {
		writeBlameTable(w, "abort blame (aggressor thread -> victim)", s.ThreadBlame)
		writeBlameTable(w, "site blame (aggressor site -> victim)", s.SiteBlame)
		if len(s.Threads) > 0 {
			fmt.Fprintf(w, "  %-5s %8s %8s %12s %10s %10s %12s %12s\n",
				"tid", "spans", "aborts", "wasted", "p50", "p99", "busy", "critical")
			for _, t := range s.Threads {
				p50, p99 := "-", "-"
				if t.Latency != nil {
					p50 = fmt.Sprintf("%.0f", t.Latency.P50)
					p99 = fmt.Sprintf("%.0f", t.Latency.P99)
				}
				fmt.Fprintf(w, "  t%-4d %8d %8d %12d %10s %10s %12d %12d\n",
					t.Tid, t.Spans, t.Aborts, t.WastedCycles, p50, p99,
					t.BusyCycles, t.CriticalCycles)
			}
		}
	}
	if len(r.Sites) > 0 {
		fmt.Fprintf(w, "  %-20s %10s %10s %10s %10s\n", "site", "commits", "aborts", "p50", "p99")
		for _, site := range r.Sites {
			var ab uint64
			for _, n := range site.Aborts {
				ab += n
			}
			p50, p99 := "-", "-"
			if site.Latency != nil {
				p50 = fmt.Sprintf("%.0f", site.Latency.P50)
				p99 = fmt.Sprintf("%.0f", site.Latency.P99)
			}
			fmt.Fprintf(w, "  %-20s %10d %10d %10s %10s\n", site.Site, site.Commits, ab, p50, p99)
		}
	}
}

func writeBlameTable(w io.Writer, title string, edges []BlameEdgeJSON) {
	if len(edges) == 0 {
		return
	}
	top := topBlame(edges)
	fmt.Fprintf(w, "  %s:\n", title)
	for _, e := range top {
		fmt.Fprintf(w, "    %-12s -> %-12s %6d kills %14d wasted cycles\n",
			e.Aggressor, e.Victim, e.Kills, e.WastedCycles)
	}
	if n := len(edges) - len(top); n > 0 {
		fmt.Fprintf(w, "    (+%d more edges)\n", n)
	}
}

// Metric classes and verdicts.
const (
	ClassSemantic = "semantic"
	ClassTiming   = "timing"

	VerdictMatch       = "match"
	VerdictMismatch    = "MISMATCH"
	VerdictOK          = "ok"
	VerdictRegression  = "regression"
	VerdictImprovement = "improvement"
)

// MetricDelta is one compared metric.
type MetricDelta struct {
	Name     string  `json:"name"`
	Class    string  `json:"class"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	DeltaPct float64 `json:"delta_pct"`
	Verdict  string  `json:"verdict"`
}

// RecorderDiff is one recorder's comparison (matched by label).
type RecorderDiff struct {
	Label  string        `json:"label"`
	Deltas []MetricDelta `json:"deltas"`
}

// DiffDoc is the full comparison of two metrics sidecars.
type DiffDoc struct {
	ExperimentA        string         `json:"experiment_a"`
	ExperimentB        string         `json:"experiment_b"`
	TolPct             float64        `json:"tol_pct"`
	Recorders          []RecorderDiff `json:"recorders"`
	OnlyA              []string       `json:"only_a,omitempty"`
	OnlyB              []string       `json:"only_b,omitempty"`
	SemanticMismatches int            `json:"semantic_mismatches"`
	Regressions        int            `json:"regressions"`
}

// metric is one comparable quantity extracted from a recorder summary.
// dir: +1 = higher is better, -1 = lower is better, 0 = neutral (delta
// reported, no regression verdict).
type metric struct {
	name  string
	class string
	dir   int
	val   float64
}

// metricsOf flattens a recorder summary into its comparable metrics, in
// a deterministic order.
func metricsOf(r RecorderJSON) []metric {
	var ms []metric
	add := func(name, class string, dir int, v float64) {
		ms = append(ms, metric{name: name, class: class, dir: dir, val: v})
	}
	// Semantic: the workload's results.
	add("commits", ClassSemantic, 0, float64(r.Events["commit"]))
	if s := r.Spans; s != nil {
		add("spans.committed", ClassSemantic, 0, float64(s.Committed))
	}
	for _, site := range r.Sites {
		add("site."+site.Site+".commits", ClassSemantic, 0, float64(site.Commits))
	}
	// Timing-derived: legitimate movement between engines/knobs.
	add("aborts", ClassTiming, -1, float64(r.Events["abort"]))
	add("fallbacks", ClassTiming, -1, float64(r.Events["fallback"]))
	if s := r.Spans; s != nil {
		add("latency.p50", ClassTiming, -1, s.Latency.P50)
		add("latency.p99", ClassTiming, -1, s.Latency.P99)
		add("latency.p999", ClassTiming, -1, s.Latency.P999)
		add("latency.mean", ClassTiming, -1, s.Latency.Mean)
		add("attempts", ClassTiming, -1, float64(s.Attempts))
		add("convoy.links", ClassTiming, -1, float64(s.ChainLinks))
		if s.CriticalPathCycles > 0 {
			add("critical.path.cycles", ClassTiming, -1, float64(s.CriticalPathCycles))
			add("parallelism", ClassTiming, +1,
				float64(s.BusyCycles)/float64(s.CriticalPathCycles))
		}
	}
	var wasted uint64
	for _, v := range r.Wasted {
		wasted += v
	}
	add("wasted.cycles", ClassTiming, -1, float64(wasted))
	if sh := r.Sharding; sh != nil {
		add("serial.fraction", ClassTiming, -1, sh.SerialFraction)
		add("parks.per.epoch", ClassTiming, -1, sh.ParksPerEpoch)
	}
	return ms
}

// diffRecorder compares two same-label summaries metric by metric.
// Metrics present on only one side are compared against zero.
func diffRecorder(a, b RecorderJSON, tolPct float64) RecorderDiff {
	out := RecorderDiff{Label: a.Label}
	am, bm := metricsOf(a), metricsOf(b)
	bv := make(map[string]metric, len(bm))
	for _, m := range bm {
		bv[m.name] = m
	}
	seen := make(map[string]bool, len(am))
	for _, m := range am {
		seen[m.name] = true
		out.Deltas = append(out.Deltas, delta(m, bv[m.name].val, tolPct))
	}
	for _, m := range bm {
		if !seen[m.name] {
			out.Deltas = append(out.Deltas, delta(metric{
				name: m.name, class: m.class, dir: m.dir,
			}, m.val, tolPct))
		}
	}
	return out
}

func delta(m metric, bval, tolPct float64) MetricDelta {
	d := MetricDelta{Name: m.name, Class: m.class, A: m.val, B: bval}
	switch {
	case m.val == bval:
		d.DeltaPct = 0
	case m.val == 0:
		d.DeltaPct = 100 // from-zero growth; sign carries the direction
	default:
		d.DeltaPct = 100 * (bval - m.val) / m.val
	}
	if m.class == ClassSemantic {
		if m.val == bval {
			d.Verdict = VerdictMatch
		} else {
			d.Verdict = VerdictMismatch
		}
		return d
	}
	worse := d.DeltaPct * float64(-m.dir) // positive when moving the bad way
	switch {
	case m.dir == 0 || worse <= tolPct && worse >= -tolPct:
		d.Verdict = VerdictOK
	case worse > tolPct:
		d.Verdict = VerdictRegression
	default:
		d.Verdict = VerdictImprovement
	}
	return d
}

// DiffMetrics compares two sidecar documents recorder by recorder
// (matched on label; the aggregate participates like a recorder).
func DiffMetrics(a, b *MetricsJSON, tolPct float64) *DiffDoc {
	doc := &DiffDoc{ExperimentA: a.Experiment, ExperimentB: b.Experiment, TolPct: tolPct}
	ar, br := reportRecorders(a), reportRecorders(b)
	bIdx := make(map[string]int, len(br))
	for i, r := range br {
		bIdx[r.Label] = i
	}
	matched := make(map[string]bool, len(ar))
	for _, r := range ar {
		i, ok := bIdx[r.Label]
		if !ok {
			doc.OnlyA = append(doc.OnlyA, r.Label)
			continue
		}
		matched[r.Label] = true
		doc.Recorders = append(doc.Recorders, diffRecorder(r, br[i], tolPct))
	}
	for _, r := range br {
		if !matched[r.Label] {
			doc.OnlyB = append(doc.OnlyB, r.Label)
		}
	}
	for _, rd := range doc.Recorders {
		for _, d := range rd.Deltas {
			switch d.Verdict {
			case VerdictMismatch:
				doc.SemanticMismatches++
			case VerdictRegression:
				doc.Regressions++
			}
		}
	}
	return doc
}

// WriteDiff renders a diff document as text.
func WriteDiff(w io.Writer, d *DiffDoc) {
	fmt.Fprintf(w, "== rtmreport diff: %s vs %s (tol %.0f%%) ==\n",
		d.ExperimentA, d.ExperimentB, d.TolPct)
	for _, name := range d.OnlyA {
		fmt.Fprintf(w, "  only in A: %s\n", name)
	}
	for _, name := range d.OnlyB {
		fmt.Fprintf(w, "  only in B: %s\n", name)
	}
	for _, rd := range d.Recorders {
		fmt.Fprintf(w, "\n-- %s --\n", rd.Label)
		for _, m := range rd.Deltas {
			if m.A == m.B && m.Class == ClassTiming && m.A == 0 {
				continue // both-zero timing rows are noise
			}
			sign := ""
			if m.DeltaPct > 0 {
				sign = "+"
			}
			fmt.Fprintf(w, "  [%s] %-28s %14s -> %-14s %s%.1f%%  %s\n",
				m.Class, m.Name, trimFloat(m.A), trimFloat(m.B), sign, m.DeltaPct, m.Verdict)
		}
	}
	fmt.Fprintf(w, "\nverdict: ")
	switch {
	case d.SemanticMismatches > 0:
		fmt.Fprintf(w, "SEMANTIC MISMATCH (%d metrics differ that must not)\n", d.SemanticMismatches)
	case d.Regressions > 0:
		fmt.Fprintf(w, "semantics match; %d timing regression(s)\n", d.Regressions)
	default:
		fmt.Fprintf(w, "semantics match; timing within tolerance\n")
	}
}

// trimFloat renders a value without trailing zero noise ("320", "0.43").
func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// MarshalReportJSON renders a report or diff document as indented JSON
// with a trailing newline. Field order is fixed by the struct tags, so
// the bytes are deterministic.
func MarshalReportJSON(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
