package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one traced call into a layer, recorded from the harness around
// the call (nothing inside the program is instrumented). Times are
// nanoseconds since the tracer started. Parent is 0 for a root span;
// Trial is the trial, window or request id the call served (-1 when none).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Trial  int    `json:"trial"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// It is safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span runs fn inside a span named name under parent; fn receives the
// new span's id so nested calls can hang below it.
func (t *tracer) span(name string, parent, trial int, fn func(id int) error) error {
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Trial: trial})
	t.mu.Unlock()
	start := time.Since(t.t0).Nanoseconds()
	err := fn(id)
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].Start, t.spans[id-1].End = start, end
	t.mu.Unlock()
	return err
}

// Spans returns a copy of every span recorded so far.
func (t *tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals.
// Children that overlap (calls made in parallel) are counted once.
func selfTimes(spans []Span) map[int]int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := [2]int64{max(iv[0][0], lo), min(iv[0][1], hi)}
	for _, x := range iv[1:] {
		x = [2]int64{max(x[0], lo), min(x[1], hi)}
		if x[0] <= cur[1] {
			cur[1] = max(cur[1], x[1])
			continue
		}
		total += max(cur[1]-cur[0], 0)
		cur = x
	}
	return total + max(cur[1]-cur[0], 0)
}

// layerTotal is the calls, self time and total time of one span name.
type layerTotal struct {
	Name  string
	Calls int
	Self  int64
	Total int64
}

// layerTotals sums self time and call counts by span name, in the order
// names first appear.
func layerTotals(spans []Span) []layerTotal {
	self := selfTimes(spans)
	by := map[string]*layerTotal{}
	var order []string
	for _, s := range spans {
		lt, ok := by[s.Name]
		if !ok {
			lt = &layerTotal{Name: s.Name}
			by[s.Name] = lt
			order = append(order, s.Name)
		}
		lt.Calls++
		lt.Self += self[s.ID]
		lt.Total += s.End - s.Start
	}
	out := make([]layerTotal, len(order))
	for i, n := range order {
		out[i] = *by[n]
	}
	return out
}

// durations returns the duration of every span named name, in order.
func durations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}
