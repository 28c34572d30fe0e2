package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (spans inside the program are a later change). Start and End are
// nanoseconds since the tracer was created; Parent is the index of the span
// that caused this one, -1 for a query's root; spans of one query share
// Query.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, so the same driver code runs traced and untraced.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, query int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Query: query})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			from, to := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// perQuery sums, for every kept query, the self time (self = selfTimes(spans);
// the total time when total is set) of its spans called name, in
// milliseconds. Queries without such a span are left out.
func perQuery(spans []span, self []int64, name string, total bool, keep func(query int) bool) []float64 {
	sums := map[int]int64{}
	var order []int
	for i, s := range spans {
		if s.Name != name || !keep(s.Query) {
			continue
		}
		if _, seen := sums[s.Query]; !seen {
			order = append(order, s.Query)
		}
		if total {
			sums[s.Query] += s.End - s.Start
		} else {
			sums[s.Query] += self[i]
		}
	}
	out := make([]float64, len(order))
	for i, q := range order {
		out[i] = float64(sums[q]) / 1e6
	}
	return out
}

// write stores the spans as JSON, with each span's self time added so the
// file can be read without redoing the arithmetic.
func (t *tracer) write(path string) error {
	type row struct {
		span
		Self int64 `json:"self_ns"`
	}
	self := selfTimes(t.spans)
	rows := make([]row, len(t.spans))
	for i, s := range t.spans {
		rows[i] = row{s, self[i]}
	}
	buf, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
