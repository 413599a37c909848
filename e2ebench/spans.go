package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one host-time interval recorded around a call into a layer.
// Parent is the enclosing span's ID (-1 for a point's root span). All
// spans of one traced run share the run's trace ID.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// *spanLog records nothing, so untraced runs pass nil.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// open starts a span and returns its ID (-1 on a nil log).
func (l *spanLog) open(name string, parent int, start time.Time) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{ID: len(l.spans), Parent: parent, Name: name,
		StartNS: start.Sub(l.epoch).Nanoseconds()})
	return len(l.spans) - 1
}

func (l *spanLog) close(id int, end time.Time) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].EndNS = end.Sub(l.epoch).Nanoseconds()
}

// add records a finished span.
func (l *spanLog) add(name string, parent int, start, end time.Time) {
	l.close(l.open(name, parent, start), end)
}

// withSelf returns the spans with SelfNS set: a span's duration minus
// the part of it that its children cover.
func withSelf(spans []span) []span {
	out := append([]span(nil), spans...)
	kids := map[int][]span{}
	for _, s := range out {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i, s := range out {
		out[i].SelfNS = s.EndNS - s.StartNS - covered(kids[s.ID], s.StartNS, s.EndNS)
	}
	return out
}

// covered returns how much of [lo, hi) the union of the spans covers.
func covered(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
	var total int64
	cur := lo
	for _, s := range spans {
		a, b := max(s.StartNS, cur), min(s.EndNS, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// traceFile is what a traced run writes out when it ends.
type traceFile struct {
	TraceID    string             `json:"trace_id"`
	Provenance provenance         `json:"provenance"`
	Metrics    map[string]float64 `json:"metrics"`
	Spans      []span             `json:"spans"`
}

// writeTrace writes the traced run's spans under dir and returns the
// file's path.
func writeTrace(dir string, prov provenance, metrics map[string]float64, l *spanLog) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	id := fmt.Sprintf("%s-seed%d", prov.Workload, prov.Seed)
	path := filepath.Join(dir, "trace-"+id+".json")
	data, err := json.MarshalIndent(traceFile{TraceID: id, Provenance: prov, Metrics: metrics,
		Spans: withSelf(l.spans)}, "", " ")
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
