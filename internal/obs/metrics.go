// Package obs is the zero-dependency observability layer threaded
// through every serving tier: lock-cheap metrics with a Prometheus
// text-format exposition, lightweight per-search traces (span trees with
// a propagatable trace id), a bounded ring of recent traces, and a
// structured slow-query log.
//
// Everything is deliberately tiny and allocation-shy: counters are one
// atomic word, histograms are a fixed bucket array of atomic words, and
// no instrument ever takes a lock on the hot path. The registry itself
// is locked only at registration and exposition time.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric label pair; labels render sorted by key so an
// instrument's identity (and its exposition) is deterministic.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// Counter is a monotonically increasing metric: one atomic word.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// DefBuckets are the default latency buckets in seconds: 100µs to 2.5s,
// roughly geometric — wide enough to bracket a cached in-process search
// (tens of µs) and a multi-round distributed search over a real network.
var DefBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5,
}

// RoundBuckets bucket rounds-per-search counts.
var RoundBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128}

// Histogram is a fixed-bucket histogram: cumulative-on-read bucket
// counts, a bit-cast float sum and a total count, all atomics. Observe
// never allocates or locks.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implied after
	counts []atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits accumulator
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t.
func (h *Histogram) ObserveSince(t time.Time) { h.Observe(time.Since(t).Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// metricKind orders the TYPE line of the exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

// metric is one registered instrument (one label combination of a family).
type metric struct {
	labels []Label
	c      *Counter
	h      *Histogram
	f      func() float64 // counter/gauge func variant
}

// family groups every label combination of one metric name, sharing the
// HELP/TYPE header.
type family struct {
	name    string
	help    string
	kind    metricKind
	metrics []*metric
}

// Registry holds a process's instruments and renders them in Prometheus
// text exposition format. Registration methods are idempotent: asking
// for an already-registered (name, labels) returns the existing
// instrument, so reload paths can re-register safely; func-backed
// metrics re-bind to the latest func instead (the closure may capture a
// swapped-in instance).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func sortLabels(labels []Label) []Label {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lookup finds or creates the family and the labeled slot; the caller
// holds r.mu and fills the slot's instrument on creation.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label) (*metric, bool) {
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: kind}
		r.families[name] = fam
		r.order = append(r.order, name)
	}
	for _, m := range fam.metrics {
		if labelsEqual(m.labels, labels) {
			return m, false
		}
	}
	m := &metric{labels: labels}
	fam.metrics = append(fam.metrics, m)
	return m, true
}

// Counter registers (or returns) a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, fresh := r.lookup(name, help, kindCounter, sortLabels(labels))
	if fresh {
		m.c = &Counter{}
	}
	return m.c
}

// CounterFunc registers a counter read from f at exposition time (the
// idiom for exposing an existing atomic counter without restructuring
// it). Re-registering replaces f — reload paths rebind the closure to
// the current instance.
func (r *Registry) CounterFunc(name, help string, f func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, _ := r.lookup(name, help, kindCounter, sortLabels(labels))
	m.f = f
}

// GaugeFunc registers a gauge read from f at exposition time.
// Re-registering replaces f.
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, _ := r.lookup(name, help, kindGauge, sortLabels(labels))
	m.f = f
}

// Histogram registers (or returns) a fixed-bucket histogram; nil bounds
// pick DefBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, fresh := r.lookup(name, help, kindHistogram, sortLabels(labels))
	if fresh {
		m.h = newHistogram(bounds)
	}
	return m.h
}

// renderLabels renders {k="v",...} with label values escaped, plus an
// optional extra label (the histogram "le").
func renderLabels(b *strings.Builder, labels []Label, extraKey, extraVal string) {
	if len(labels) == 0 && extraKey == "" {
		return
	}
	b.WriteByte('{')
	first := true
	for _, l := range labels {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if !first {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteTo renders the registry in Prometheus text exposition format
// (version 0.0.4): HELP/TYPE headers per family, one sample line per
// instrument, cumulative histogram buckets ending at +Inf.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, name := range r.order {
		fam := r.families[name]
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", fam.name, fam.help, fam.name, fam.kind)
		for _, m := range fam.metrics {
			switch {
			case m.h != nil:
				cum := uint64(0)
				for i, bound := range m.h.bounds {
					cum += m.h.counts[i].Load()
					b.WriteString(fam.name)
					b.WriteString("_bucket")
					renderLabels(&b, m.labels, "le", formatFloat(bound))
					b.WriteByte(' ')
					b.WriteString(strconv.FormatUint(cum, 10))
					b.WriteByte('\n')
				}
				cum += m.h.counts[len(m.h.bounds)].Load()
				b.WriteString(fam.name)
				b.WriteString("_bucket")
				renderLabels(&b, m.labels, "le", "+Inf")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(cum, 10))
				b.WriteByte('\n')
				b.WriteString(fam.name)
				b.WriteString("_sum")
				renderLabels(&b, m.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(formatFloat(m.h.Sum()))
				b.WriteByte('\n')
				b.WriteString(fam.name)
				b.WriteString("_count")
				renderLabels(&b, m.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(cum, 10))
				b.WriteByte('\n')
			case m.f != nil:
				b.WriteString(fam.name)
				renderLabels(&b, m.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(formatFloat(m.f()))
				b.WriteByte('\n')
			case m.c != nil:
				b.WriteString(fam.name)
				renderLabels(&b, m.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(m.c.Value(), 10))
				b.WriteByte('\n')
			}
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Handler serves GET /metrics from the registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}

// SearchMetrics bundles the engine-level instruments threaded through a
// search (core.Options.Obs / core.CoordOptions.Obs): how many rounds a
// search ran and how long each round took. One set serves every
// deployment of the engine in a process — single, sharded and
// coordinated searches record into the same pair.
type SearchMetrics struct {
	// Rounds observes rounds-per-search at search end.
	Rounds *Histogram
	// RoundSeconds observes one round: proximity step, admission, bound
	// refresh and selection (a distributed search fetches its postings
	// before the first round).
	RoundSeconds *Histogram
}

// NewSearchMetrics registers the engine-level instruments in r
// (idempotent, so reload paths may call it again).
func NewSearchMetrics(r *Registry) *SearchMetrics {
	return &SearchMetrics{
		Rounds:       r.Histogram("s3_search_rounds", "Proximity exploration rounds per search.", RoundBuckets),
		RoundSeconds: r.Histogram("s3_search_round_seconds", "Duration of one search round.", nil),
	}
}
