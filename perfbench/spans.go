package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one job, sweep or matrix cell share ID; Parent indexes the
// enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the same code path runs untraced.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string, id int64, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// layerTime is the self time one span name accumulated.
type layerTime struct {
	self  time.Duration
	count int
}

// selfTimes returns each span name's self time: its spans' durations minus
// the parts their child spans cover.
func (t *tracer) selfTimes() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerTime{}
	for i, s := range t.spans {
		lt := out[s.Name]
		lt.self += time.Duration(s.End - s.Start - child[i])
		lt.count++
		out[s.Name] = lt
	}
	return out
}

// totalSelf sums the self time of every span.
func (t *tracer) totalSelf() time.Duration {
	var sum time.Duration
	for _, lt := range t.selfTimes() {
		sum += lt.self
	}
	return sum
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// overheadMetrics fills bench.trace_overhead (traced over untraced time of
// the same work, minus one) and bench.unattributed_frac (the share of the
// traced busy time no layer span accounts for).
func overheadMetrics(m map[string]float64, untraced, traced, busy time.Duration, tr *tracer) {
	m["bench.trace_overhead"] = float64(traced)/float64(untraced) - 1
	m["bench.unattributed_frac"] = 1 - float64(tr.totalSelf())/float64(busy)
}
