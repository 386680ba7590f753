package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, start and end (ns since
// the recorder was created), the span that caused it (0 = none; ids start
// at 1) and the search it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Search int    `json:"search"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the spans of a traced run in memory; they are written
// out once, when the run ends. The mutex is for the probes whose callees
// run on other goroutines (scattered rounds, worker handlers).
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, search int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Search: search, Name: name})
	s := &r.spans[len(r.spans)-1]
	s.Start = int64(time.Since(r.t0)) // last, so the bookkeeping is outside the span
	return s.ID
}

func (r *recorder) end(id int) {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// named returns the durations of every span with the given name.
func (r *recorder) named(name string) []time.Duration {
	var out []time.Duration
	for i := range r.spans {
		if r.spans[i].Name == name {
			out = append(out, r.spans[i].dur())
		}
	}
	return out
}

// self returns, for every span with the given name, its duration minus
// the part of its interval that its child spans cover (children may
// overlap each other when a parent scatters work in parallel).
func (r *recorder) self(name string) []time.Duration {
	children := map[int][]*span{}
	for i := range r.spans {
		if p := r.spans[i].Parent; p != 0 {
			children[p] = append(children[p], &r.spans[i])
		}
	}
	var out []time.Duration
	for i := range r.spans {
		s := &r.spans[i]
		if s.Name != name {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out = append(out, time.Duration(s.End-s.Start-covered))
	}
	return out
}

// write dumps every span as one JSON array.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return sumDur(ds) / time.Duration(len(ds))
}

func sumDur(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
