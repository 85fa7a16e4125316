// Package telemetry is the observability layer of the serving path: a
// zero-dependency metrics registry (atomic counters, gauges, fixed-bucket
// histograms), a bounded match-event ring buffer, Prometheus-text and
// JSON exposition writers, and an admin HTTP surface (admin.go) that
// serves them alongside net/http/pprof.
//
// Design constraints, in order:
//
//  1. The hot path pays atomics, nothing else. Counter.Add and
//     Gauge.Add/Set are single atomic ops; Histogram.Observe is one
//     branchless bucket search plus two atomic adds. No locks, no maps,
//     no allocation after registration.
//  2. Readers never perturb writers. Snapshot walks the registry under a
//     registration lock (registration is cold), but reads every value
//     with the same atomics the writers use — an exposition scrape
//     cannot stall a shard.
//  3. A component's Stats struct is the listing of its counters. Rows
//     registers a table of series over that struct: one Stats() call per
//     Snapshot, every row extracting from the same copy — no second
//     increment discipline, and no counter listed again per series.
//
// Snapshot semantics: a Snapshot is a point-in-time copy, internally
// consistent per metric (each value read once, histograms sum their own
// bucket copies) but not across metrics — two counters incremented
// together may be captured one apart. That is the standard exposition
// contract (Prometheus scrapes have the same property) and is exact once
// the instrumented component has quiesced, e.g. after engine.Close.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension of a metric. Metrics with the same
// name and different labels form a family and render as one Prometheus
// family with per-series label sets.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind discriminates metric behaviour for exposition.
type Kind uint8

const (
	KindCounter Kind = iota // monotonically non-decreasing
	KindGauge               // free-moving instantaneous value
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// Counter is a monotonic atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter. Negative deltas are a programming error
// (counters are monotonic) and are ignored.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous atomic value (int64: every gauge in this
// system is a count — flows, queued segments, bytes, a tier index).
type Gauge struct{ v atomic.Int64 }

// Set stores an absolute value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by a (possibly negative) delta.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// IncBelow adds 1 unless the gauge already reads limit or more, as one
// atomic step: a cap concurrent adders cannot overshoot.
func (g *Gauge) IncBelow(limit int64) bool {
	for {
		cur := g.v.Load()
		if cur >= limit {
			return false
		}
		if g.v.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metric is one registered series.
type metric struct {
	name   string
	help   string
	labels []Label
	kind   Kind

	counter   *Counter
	gauge     *Gauge
	histogram *Histogram
	set       rowSource // Rows: the set whose snapshot row reads
	row       any       // *Row[T] of set's T
}

// Registry holds registered metrics. Registration is idempotent for
// owned metrics (Counter/Gauge/Histogram return the existing instance on
// a repeat registration with the same kind) and a panic for kind
// conflicts — a conflict is always a programming error, and failing loud
// at startup beats silently splitting a series. All methods are safe for
// concurrent use.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	index   map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*metric)}
}

// seriesKey identifies a series: name plus labels in sorted order, so
// the same labels in a different argument order hit the same series.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// sortLabels returns a sorted copy so registration order of labels never
// leaks into identity or output.
func sortLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// register inserts m or returns the existing series with the same key.
// The bool reports whether m itself was inserted.
func (r *Registry) register(m *metric) (*metric, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := seriesKey(m.name, m.labels)
	if old, ok := r.index[key]; ok {
		if old.kind != m.kind {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)", m.name, m.kind, old.kind))
		}
		return old, false
	}
	r.index[key] = m
	r.metrics = append(r.metrics, m)
	return m, true
}

// Counter registers (or returns the existing) monotonic counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m, _ := r.register(&metric{name: name, help: help, labels: sortLabels(labels), kind: KindCounter, counter: &Counter{}})
	if m.counter == nil {
		panic(fmt.Sprintf("telemetry: %s is a row, not an owned counter", name))
	}
	return m.counter
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m, _ := r.register(&metric{name: name, help: help, labels: sortLabels(labels), kind: KindGauge, gauge: &Gauge{}})
	if m.gauge == nil {
		panic(fmt.Sprintf("telemetry: %s is a row, not an owned gauge", name))
	}
	return m.gauge
}

// Row is one callback series of a row set: its name, help and kind, and
// how to read its value out of the set's snapshot.
type Row[T any] struct {
	Name, Help string
	Kind       Kind
	Get        func(*T) float64
}

// CounterRow builds a counter Row; T is inferred from get.
func CounterRow[T any](name, help string, get func(*T) float64) Row[T] {
	return Row[T]{name, help, KindCounter, get}
}

// GaugeRow builds a gauge Row.
func GaugeRow[T any](name, help string, get func(*T) float64) Row[T] {
	return Row[T]{name, help, KindGauge, get}
}

// RowSet is a group of callback series that read one snapshot.
type RowSet[T any] struct {
	r    *Registry
	read func() T
}

// rowSource is a RowSet of any T, as Snapshot sees it.
type rowSource interface {
	snapshot() any // *T
	value(snap, row any) float64
}

// Rows registers one series per row, all reading the same snapshot: read
// runs once per Registry.Snapshot — never per series — and each row
// extracts its value from that copy, so the struct read returns is the
// one listing of the component's counters. read must be safe for
// concurrent use (concurrent scrapes each take their own snapshot). rows
// is retained, not copied; labels apply to every row.
func Rows[T any](r *Registry, read func() T, rows []Row[T], labels ...Label) *RowSet[T] {
	s := &RowSet[T]{r: r, read: read}
	s.Add(rows, labels...)
	return s
}

// Add registers more rows over the set's snapshot under their own labels:
// a labeled family (per tier, per component) costs no extra read.
func (s *RowSet[T]) Add(rows []Row[T], labels ...Label) {
	labels = sortLabels(labels)
	for i := range rows {
		row := &rows[i]
		if _, inserted := s.r.register(&metric{name: row.Name, help: row.Help, labels: labels, kind: row.Kind, set: s, row: row}); !inserted {
			panic(fmt.Sprintf("telemetry: duplicate registration of %s", row.Name))
		}
	}
}

func (s *RowSet[T]) snapshot() any               { v := s.read(); return &v }
func (s *RowSet[T]) value(snap, row any) float64 { return row.(*Row[T]).Get(snap.(*T)) }

// Histogram registers (or returns the existing) fixed-bucket histogram.
// bounds are strictly increasing upper bounds; a +Inf bucket is implicit.
// nil bounds select LatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	m, _ := r.register(&metric{name: name, help: help, labels: sortLabels(labels), kind: KindHistogram, histogram: newHistogram(bounds)})
	if m.histogram == nil {
		panic(fmt.Sprintf("telemetry: %s registered with a different kind", name))
	}
	return m.histogram
}

// MetricSnapshot is one series captured at a point in time.
type MetricSnapshot struct {
	Name   string
	Help   string
	Labels []Label
	Kind   Kind
	// Value carries counter/gauge readings; Hist carries histograms.
	Value float64
	Hist  *HistogramSnapshot
}

// Snapshot is a captured metric set, sorted by name then label set, so
// exposition output is deterministic.
type Snapshot []MetricSnapshot

// Snapshot captures every registered series.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	metrics := make([]*metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()
	reads := make(map[rowSource]any) // each row set's snapshot, taken on first use

	out := make(Snapshot, 0, len(metrics))
	for _, m := range metrics {
		s := MetricSnapshot{Name: m.name, Help: m.help, Labels: m.labels, Kind: m.kind}
		switch {
		case m.counter != nil:
			s.Value = float64(m.counter.Value())
		case m.gauge != nil:
			s.Value = float64(m.gauge.Value())
		case m.set != nil:
			read, ok := reads[m.set]
			if !ok {
				read = m.set.snapshot()
				reads[m.set] = read
			}
			s.Value = m.set.value(read, m.row)
		case m.histogram != nil:
			h := m.histogram.Snapshot()
			s.Hist = &h
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return labelString(out[i].Labels) < labelString(out[j].Labels)
	})
	return out
}

// Value sums every series of the named metric — the natural reading for
// families split by label (e.g. per-shard counters). Missing names read
// as zero.
func (s Snapshot) Value(name string) float64 {
	var sum float64
	for i := range s {
		if s[i].Name == name {
			sum += s[i].Value
		}
	}
	return sum
}

// Get finds one exact series by name and label set.
func (s Snapshot) Get(name string, labels ...Label) (MetricSnapshot, bool) {
	want := seriesKey(name, sortLabels(labels))
	for i := range s {
		if seriesKey(s[i].Name, s[i].Labels) == want {
			return s[i], true
		}
	}
	return MetricSnapshot{}, false
}

// labelString renders a label set in Prometheus form: {k="v",k2="v2"} or
// "" when empty.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the Prometheus label-value escapes.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
