package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation (a program
// run, a request, an attack) share an ID; Parent indexes the span that
// caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the timed runs skip tracing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns the tracer clock: nanoseconds since the tracer was made.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name, id string, parent int32) int32 {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start})
	return int32(len(t.spans) - 1)
}

// end closes the span begin returned.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere (a queue wait
// that began before any goroutine could open it). start and end are on
// the tracer clock.
func (t *tracer) add(name, id string, parent int32, start, end int64) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start, End: end})
	return int32(len(t.spans) - 1)
}

// layerSummary is the per-layer total of one span name.
type layerSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// summary sums each span name's duration and self time: the duration minus
// the part of it the span's children cover. Children of one span never
// overlap each other here (each operation is traced on one goroutine).
func (t *tracer) summary() []layerSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*layerSummary{}
	for i, s := range t.spans {
		l := by[s.Name]
		if l == nil {
			l = &layerSummary{Name: s.Name}
			by[s.Name] = l
		}
		l.Count++
		l.TotalMs += float64(s.End-s.Start) / 1e6
		l.SelfMs += float64(s.End-s.Start-child[i]) / 1e6
	}
	out := make([]layerSummary, 0, len(by))
	for _, l := range by {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// selfMs returns the summed self time of each span name.
func selfMs(sum []layerSummary) map[string]float64 {
	m := map[string]float64{}
	for _, l := range sum {
		m[l.Name] = l.SelfMs
	}
	return m
}

// printSummary writes the per-layer self-time table and the tracing
// overhead for a reader of the run's log.
func printSummary(w io.Writer, sum []layerSummary, v map[string]float64) {
	fmt.Fprintf(w, "%-14s %8s %12s %12s\n", "layer", "spans", "self ms", "total ms")
	for _, l := range sum {
		fmt.Fprintf(w, "%-14s %8d %12.2f %12.2f\n", l.Name, l.Count, l.SelfMs, l.TotalMs)
	}
	fmt.Fprintf(w, "tracing overhead: %.2f ms (traced %.2f ms, untraced %.2f ms of the same work)\n",
		v["trace.overhead_ms"], v["trace.wall_ms"], v["trace.untraced_ms"])
}
