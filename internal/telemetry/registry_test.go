package telemetry

import (
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
	snap := r.Snapshot()
	if v := snap.Value("c_total"); v != 5 {
		t.Errorf("snapshot c_total = %v, want 5", v)
	}
	if v := snap.Value("g"); v != 7 {
		t.Errorf("snapshot g = %v, want 7", v)
	}
}

func TestRegistrationIdempotentAndConflicts(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "x")
	if a != b {
		t.Error("repeat counter registration returned a different instance")
	}
	// Same name, different labels: distinct series, one family.
	s0 := r.Counter("shard_total", "s", L("shard", "0"))
	s1 := r.Counter("shard_total", "s", L("shard", "1"))
	if s0 == s1 {
		t.Error("differently-labeled series share an instance")
	}
	// Label order must not matter for identity.
	p := r.Gauge("m", "m", L("a", "1"), L("b", "2"))
	q := r.Gauge("m", "m", L("b", "2"), L("a", "1"))
	if p != q {
		t.Error("label order changed series identity")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind conflict did not panic")
		}
	}()
	r.Gauge("x_total", "now a gauge")
}

func TestSnapshotValueSumsAcrossLabels(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 4; i++ {
		c := r.Counter("pk_total", "per shard", L("shard", strconv.Itoa(i)))
		c.Add(int64(i + 1))
	}
	if v := r.Snapshot().Value("pk_total"); v != 10 {
		t.Errorf("summed family = %v, want 10", v)
	}
	if m, ok := r.Snapshot().Get("pk_total", L("shard", "2")); !ok || m.Value != 3 {
		t.Errorf("Get(shard=2) = %+v ok=%v, want value 3", m, ok)
	}
}

func TestHistogramBucketsAndSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005) // bucket 0
	h.Observe(0.001)  // still bucket 0 (le is inclusive)
	h.Observe(0.05)   // bucket 2
	h.Observe(5)      // +Inf
	s := h.Snapshot()
	want := []uint64{2, 0, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 4 {
		t.Errorf("count = %d, want 4", s.Count)
	}
	if math.Abs(s.Sum-5.0515) > 1e-9 {
		t.Errorf("sum = %v, want 5.0515", s.Sum)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("mfa_x_total", "things", L("shard", "0")).Add(3)
	r.Counter("mfa_x_total", "things", L("shard", "1")).Add(4)
	Rows(r, func() int { return 2 }, []Row[int]{GaugeRow("mfa_tier", "tier", func(v *int) float64 { return float64(*v) })})
	h := r.Histogram("mfa_lat_seconds", "lat", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(3)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE mfa_x_total counter",
		`mfa_x_total{shard="0"} 3`,
		`mfa_x_total{shard="1"} 4`,
		"# TYPE mfa_tier gauge",
		"mfa_tier 2",
		"# TYPE mfa_lat_seconds histogram",
		`mfa_lat_seconds_bucket{le="0.5"} 1`,
		`mfa_lat_seconds_bucket{le="1"} 2`,
		`mfa_lat_seconds_bucket{le="+Inf"} 3`,
		"mfa_lat_seconds_sum 4",
		"mfa_lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// HELP/TYPE must appear exactly once per family, not per series.
	if n := strings.Count(out, "# TYPE mfa_x_total"); n != 1 {
		t.Errorf("TYPE header emitted %d times, want 1", n)
	}
}

func TestJSONExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a").Add(7)
	r.Histogram("h_seconds", "h", []float64{1}).Observe(0.5)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"a_total"`, `"value": 7`, `"h_seconds"`, `"count": 1`, `"inf": true`} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("JSON missing %q in:\n%s", want, b.String())
		}
	}
}

// TestConcurrentUse hammers registration, observation, and exposition
// from many goroutines at once; run under -race this is the registry's
// thread-safety proof.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "hits")
	g := r.Gauge("depth", "depth")
	h := r.Histogram("lat_seconds", "lat", nil)
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i%10) * 1e-6)
				if i%100 == 0 {
					// Concurrent registration of the same and new series.
					r.Counter("hits_total", "hits").Inc()
					r.Counter("w_total", "per worker", L("w", strconv.Itoa(w)))
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	wantHits := float64(workers*per + workers*(per/100))
	if v := snap.Value("hits_total"); v != wantHits {
		t.Errorf("hits_total = %v, want %v", v, wantHits)
	}
	if v := snap.Value("depth"); v != 0 {
		t.Errorf("depth = %v, want 0", v)
	}
	m, ok := snap.Get("lat_seconds")
	if !ok || m.Hist == nil || m.Hist.Count != workers*per {
		t.Errorf("lat_seconds count = %+v, want %d observations", m.Hist, workers*per)
	}
	var b strings.Builder
	if err := snap.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
}

// TestRowsReadOncePerSnapshot is the scrape-count contract: however many
// rows and labeled families a set serves, one Snapshot runs its read once
// — the runtime gauges' ReadMemStats included — every row sees that one
// copy, and concurrent scrapes each take their own.
func TestRowsReadOncePerSnapshot(t *testing.T) {
	type sample struct{ a, b int64 }
	r := NewRegistry()
	var reads atomic.Int64
	set := Rows(r, func() sample { n := reads.Add(1); return sample{a: n, b: 10 * n} }, []Row[sample]{
		CounterRow("rows_a_total", "a", func(s *sample) float64 { return float64(s.a) }),
		GaugeRow("rows_b", "b", func(s *sample) float64 { return float64(s.b) }),
	})
	r.Counter("between_total", "registered between a set's rows").Inc()
	for _, k := range []string{"x", "y"} {
		set.Add([]Row[sample]{GaugeRow("rows_family", "per-label rows over the same read",
			func(s *sample) float64 { return float64(s.a) })}, L("k", k))
	}
	var memReads atomic.Int64
	registerRuntimeMetrics(r, time.Now(), func(m *runtime.MemStats) { memReads.Add(1); m.Sys = 7 })

	for i := int64(1); i <= 3; i++ {
		snap := r.Snapshot()
		if reads.Load() != i || memReads.Load() != i {
			t.Fatalf("after %d snapshots: %d reads of the set, %d of MemStats; want one each per snapshot", i, reads.Load(), memReads.Load())
		}
		fam, _ := snap.Get("rows_family", L("k", "y"))
		if a, b := snap.Value("rows_a_total"), snap.Value("rows_b"); a != float64(i) || b != float64(10*i) || fam.Value != a {
			t.Errorf("snapshot %d: a=%v b=%v family=%v; rows read different copies", i, a, b, fam.Value)
		}
		if snap.Value("mfa_go_sys_bytes") != 7 || snap.Value("mfa_go_goroutines") < 1 {
			t.Errorf("runtime rows: sys=%v goroutines=%v", snap.Value("mfa_go_sys_bytes"), snap.Value("mfa_go_goroutines"))
		}
	}
	if m, ok := r.Snapshot().Get("rows_b"); !ok || m.Kind != KindGauge || m.Help != "b" {
		t.Errorf("row metadata lost: %+v", m)
	}

	before := reads.Load()
	const scrapers, each = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < scrapers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				snap := r.Snapshot()
				if a, b := snap.Value("rows_a_total"), snap.Value("rows_b"); b != 10*a {
					t.Errorf("concurrent scrape mixed two reads: a=%v b=%v", a, b)
				}
			}
		}()
	}
	wg.Wait()
	if got := reads.Load() - before; got != scrapers*each {
		t.Errorf("%d reads over %d concurrent snapshots", got, scrapers*each)
	}

	defer func() {
		if recover() == nil {
			t.Error("a duplicate row did not panic")
		}
	}()
	set.Add([]Row[sample]{GaugeRow("rows_b", "again", func(*sample) float64 { return 0 })})
}
