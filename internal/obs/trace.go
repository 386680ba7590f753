// Per-search tracing: a trace is a tree of named spans, each a stage of
// the search (resolve, a lockstep round, a worker round trip) with a
// start time, a duration and a few attributes. Traces are opt-in per
// request, cost nothing when absent (every Span method is nil-safe, so
// call sites thread a possibly-nil span unconditionally), and carry a
// 64-bit id that crosses the dshard wire, so a worker files its span of a
// distributed search under the coordinator's id.
package obs

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"time"
)

// Attr is one span attribute.
type Attr struct {
	Key, Value string
}

// Span is one named stage of a trace. A span (and its Children slice)
// belongs to a single goroutine: create children for concurrent work
// before the fan-out and let each goroutine end only its own span.
type Span struct {
	Name     string
	Start    time.Time
	Dur      time.Duration
	Attrs    []Attr
	Children []*Span
}

// NewSpan starts a root span.
func NewSpan(name string) *Span {
	return &Span{Name: name, Start: time.Now()}
}

// StartChild starts a child span; on a nil receiver it returns nil, so
// untraced searches thread nil spans at zero cost.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name, Start: time.Now()}
	s.Children = append(s.Children, c)
	return c
}

// End fixes the span's duration.
func (s *Span) End() {
	if s != nil && s.Dur == 0 {
		s.Dur = time.Since(s.Start)
	}
}

// Attach adds a separately built span as a child (e.g. the
// worker.postings span a coordinator builds from a postings reply).
func (s *Span) Attach(c *Span) {
	if s != nil && c != nil {
		s.Children = append(s.Children, c)
	}
}

// SetAttr records a string attribute.
func (s *Span) SetAttr(k, v string) {
	if s != nil {
		s.Attrs = append(s.Attrs, Attr{Key: k, Value: v})
	}
}

// SetInt records an integer attribute.
func (s *Span) SetInt(k string, v int64) {
	if s != nil {
		s.Attrs = append(s.Attrs, Attr{Key: k, Value: fmt.Sprintf("%d", v)})
	}
}

// Trace is one search's span tree plus the id that files its
// coordinator-side and worker-side spans together.
type Trace struct {
	ID   uint64
	Root *Span
}

// NewTrace starts a trace with a fresh id.
func NewTrace(name string) *Trace {
	return &Trace{ID: NewID(), Root: NewSpan(name)}
}

// TraceID returns the trace id, 0 for a nil trace (the wire encoding of
// "not traced").
func (t *Trace) TraceID() uint64 {
	if t == nil {
		return 0
	}
	return t.ID
}

// Span returns the root span (nil-safe).
func (t *Trace) Span() *Span {
	if t == nil {
		return nil
	}
	return t.Root
}

// Finish ends the root span.
func (t *Trace) Finish() {
	if t != nil {
		t.Root.End()
	}
}

// IDString renders a trace id the way it appears in responses, the slow
// log and /debug/traces: 16 lowercase hex digits.
func IDString(id uint64) string { return fmt.Sprintf("%016x", id) }

// NewID returns a random non-zero 64-bit id (trace ids; zero is reserved
// for "absent" on the wire).
func NewID() uint64 {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			// crypto/rand never fails on supported platforms; fall back to
			// the clock rather than panicking in a serving path.
			return uint64(time.Now().UnixNano()) | 1
		}
		if id := binary.LittleEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
}

// NewRequestID returns a fresh X-Request-ID value (16 hex digits).
func NewRequestID() string { return IDString(NewID()) }

// SpanJSON is the rendered form of a span: times in microseconds
// relative to the tree's root, attributes flattened to a map.
type SpanJSON struct {
	Name     string            `json:"name"`
	StartUS  int64             `json:"start_us"`
	DurUS    int64             `json:"dur_us"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*SpanJSON       `json:"children,omitempty"`
}

// JSON renders the span tree with times relative to base (pass the root
// span's Start).
func (s *Span) JSON(base time.Time) *SpanJSON {
	if s == nil {
		return nil
	}
	out := &SpanJSON{
		Name:    s.Name,
		StartUS: s.Start.Sub(base).Microseconds(),
		DurUS:   s.Dur.Microseconds(),
	}
	if len(s.Attrs) > 0 {
		out.Attrs = make(map[string]string, len(s.Attrs))
		for _, a := range s.Attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range s.Children {
		out.Children = append(out.Children, c.JSON(base))
	}
	return out
}

// JSON renders the whole trace relative to its root start.
func (t *Trace) JSON() *SpanJSON {
	if t == nil || t.Root == nil {
		return nil
	}
	return t.Root.JSON(t.Root.Start)
}

// StagesMS flattens a root span's direct children into a stage → total
// milliseconds map (same-named children accumulate) — the per-stage
// attribution the slow-query log records.
func StagesMS(root *Span) map[string]float64 {
	if root == nil || len(root.Children) == 0 {
		return nil
	}
	out := make(map[string]float64, len(root.Children))
	for _, c := range root.Children {
		out[c.Name] += float64(c.Dur.Microseconds()) / 1000
	}
	return out
}
