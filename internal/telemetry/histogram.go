// Fixed-bucket histogram with lock-free observation.
//
// The serving path observes one latency per scanned segment, so Observe
// must cost no more than the atomics it commits: a binary search over a
// small immutable bound slice, one bucket increment, and one CAS-loop
// float add for the sum. There is no resizing, no per-observation
// allocation, and no lock anywhere.

package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// LatencyBuckets is the default bucket ladder for scan latencies per
// flush window: 500ns to 100ms, roughly 2.5x steps. A 1460-byte MSS
// segment scans in single-digit microseconds on the MFA hot path and a
// saturated window of 257 in about half a millisecond, so the ladder puts
// its resolution there while still separating "a slow pattern set"
// (milliseconds) from "a wedged matcher" (tens of ms).
var LatencyBuckets = []float64{
	500e-9, 1e-6, 2.5e-6, 5e-6, 10e-6, 25e-6, 50e-6, 100e-6,
	250e-6, 500e-6, 1e-3, 2.5e-3, 10e-3, 100e-3,
}

// Histogram counts observations into fixed buckets. Observe is safe for
// unlimited concurrency; Snapshot may run at any time.
type Histogram struct {
	bounds []float64 // immutable after construction, strictly increasing
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-added
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Uint64, len(b)+1), // last = +Inf overflow
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound admits v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds, the unit every latency
// histogram in this repository uses.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistogramSnapshot is a point-in-time copy. Counts are per-bucket (not
// cumulative); Counts[len(Bounds)] is the +Inf overflow bucket. Count is
// the sum of the captured buckets, so Count and Counts are always
// mutually consistent even if observations land mid-snapshot; Sum is
// read once and may trail Count by in-flight observations (exact once
// the writer has quiesced).
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot captures the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable, safe to share
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}
