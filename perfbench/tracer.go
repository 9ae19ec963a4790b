package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, made from the benchmark's side
// of the boundary. N is the work the call covered (tasks, bytes or
// events, per span name).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	N      int     `json:"n"`
}

// tracer keeps spans and scalar observations in memory until the run
// ends. One tracer belongs to one goroutine. A nil tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	vals  map[string][]float64
}

func newTracer(t0 time.Time) *tracer {
	return &tracer{t0: t0, vals: map[string][]float64{}}
}

func (t *tracer) begin(name string, op int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: t.since()})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id, n int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.since()
	t.spans[id].N = n
	t.open = t.open[:len(t.open)-1]
}

func (t *tracer) value(name string, v float64) {
	if t != nil {
		t.vals[name] = append(t.vals[name], v)
	}
}

func (t *tracer) since() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// merge folds other tracers' records into t, renumbering their spans.
func (t *tracer) merge(others ...*tracer) {
	for _, o := range others {
		if o == nil || o == t {
			continue
		}
		base := len(t.spans)
		for _, s := range o.spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			t.spans = append(t.spans, s)
		}
		for k, v := range o.vals {
			t.vals[k] = append(t.vals[k], v...)
		}
	}
}

// durations returns the named spans' durations in microseconds and the
// work they covered in total.
func (t *tracer) durations(name string) (us []float64, n int) {
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			us = append(us, s.End-s.Start)
			n += s.N
		}
	}
	return us, n
}

// write saves the spans as JSONL, one span per line, in start order.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
