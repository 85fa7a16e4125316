// The pump's burst hand-off: a quiet source is the one-segment burst
// delivered at once, bursts form only behind a busy sink, and both sink
// shapes — BurstSink and the per-segment fallback — own every lease they
// are handed.
package input

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"matchfilter/internal/burst"
	"matchfilter/internal/pcap"
	"matchfilter/internal/telemetry"
)

// oneThenBlock emits a single leased segment and then stays in Run, silent,
// until the pipeline stops: the quietest source there is.
type oneThenBlock struct{}

func (oneThenBlock) Describe() Description {
	return Description{Name: "quiet", Kind: "mem", Detail: "test", Finite: true}
}

func (oneThenBlock) Run(ctx context.Context, em *Emitter) error {
	fr := newFramer(synthFlowKey(sourceIDs.Add(1), 1, nil, 7))
	lease := em.Lease(5)
	copy(lease.Data(), "hello")
	if err := em.Segment(fr.data(lease.Data()), lease); err != nil {
		return err
	}
	<-ctx.Done()
	return nil
}

// burstHistogram reads the named source's mfa_input_burst_segments series.
func burstHistogram(t *testing.T, reg *telemetry.Registry, source string) telemetry.HistogramSnapshot {
	t.Helper()
	m, ok := reg.Snapshot().Get("mfa_input_burst_segments", telemetry.L("source", source))
	if !ok || m.Hist == nil {
		t.Fatalf("mfa_input_burst_segments{source=%q} not registered", source)
	}
	return *m.Hist
}

// TestQuietSourceSegmentIsDeliveredAlone is the latency property of
// natural batching: a burst never waits to fill. The lone segment of a
// source that then goes silent reaches the sink while the source is still
// blocked, as a burst of one.
func TestQuietSourceSegmentIsDeliveredAlone(t *testing.T) {
	reg := telemetry.NewRegistry()
	sink := newCollectSink()
	sup := NewSupervisor(Config{Sink: sink, Metrics: reg})
	sup.Add(oneThenBlock{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- sup.Run(ctx) }()

	waitFor(t, 10*time.Second, "the lone segment", func() bool {
		s, _ := sink.counts()
		return s == 1
	})
	select {
	case err := <-done:
		t.Fatalf("source returned (%v) before the test released it", err)
	default:
	}
	if h := burstHistogram(t, reg, "quiet"); h.Count != 1 || h.Sum != 1 {
		t.Fatalf("burst histogram: %d bursts totalling %v segments, want one burst of one", h.Count, h.Sum)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if ast := sup.Arena().Stats(); ast.Leases != 1 || ast.Releases != 1 || ast.BytesLeased != 0 {
		t.Fatalf("arena after the run: %+v", ast)
	}
}

// gatedBurstSink is a BurstSink that records the size of every burst and
// parks inside the first one until the gate opens — a sink busy enough
// for a backlog to form behind it.
type gatedBurstSink struct {
	*collectSink
	gate    chan struct{}
	entered chan struct{} // closed once the first burst is parked at gate
	once    sync.Once
	bursts  []int
}

func (g *gatedBurstSink) HandleBurst(items []burst.Item) error {
	g.once.Do(func() {
		close(g.entered)
		<-g.gate
	})
	g.mu.Lock()
	g.bursts = append(g.bursts, len(items))
	g.mu.Unlock()
	for i, it := range items {
		if err := g.HandleSegmentOwned(it.Seg, it.Owner); err != nil {
			burst.Release(items[i+1:])
			return err
		}
	}
	return nil
}

// TestBurstsFormBehindABusySink: what queues while the sink is busy
// crosses in one call, the histogram sees one observation per burst, and
// the per-source counters still count segments.
func TestBurstsFormBehindABusySink(t *testing.T) {
	reg := telemetry.NewRegistry()
	sink := &gatedBurstSink{collectSink: newCollectSink(), gate: make(chan struct{}), entered: make(chan struct{})}
	// 302 segments: however many the pump's first burst took, more than a
	// queueful is left.
	src := &memSource{name: "busy", flows: [][]byte{make([]byte, 150<<10)}, chunk: 512}
	sup := NewSupervisor(Config{Sink: sink, QueueDepth: 64, Metrics: reg})
	sup.Add(src)
	done := make(chan error, 1)
	go func() { done <- sup.Run(context.Background()) }()

	// The pump is parked in the sink with its first burst; the source
	// fills the queue behind it and blocks.
	<-sink.entered
	waitFor(t, 10*time.Second, "the queue to fill behind the busy sink", func() bool {
		return sup.Stats()[0].QueueDepth == 64
	})
	close(sink.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	total := 0
	for _, n := range sink.bursts {
		total += n
	}
	if len(sink.bursts) < 2 || sink.bursts[1] != 64 {
		t.Fatalf("bursts %v: want the full queue to cross as the second burst", sink.bursts)
	}
	if int64(total) != src.segCount() {
		t.Fatalf("bursts %v carry %d segments, source emitted %d", sink.bursts, total, src.segCount())
	}
	if h := burstHistogram(t, reg, "busy"); h.Count != uint64(len(sink.bursts)) || h.Sum != float64(total) {
		t.Fatalf("burst histogram: %d observations summing to %v, want %d summing to %d",
			h.Count, h.Sum, len(sink.bursts), total)
	}
	row := sup.Stats()[0]
	if row.Segments != src.segCount() || row.PayloadBytes != src.byteCount() || row.QueueDepth != 0 || row.QueueCap != 64 {
		t.Fatalf("source row after the run: %+v", row)
	}
	if ast := sup.Arena().Stats(); ast.Leases != ast.Releases || ast.BytesLeased != 0 {
		t.Fatalf("arena imbalance: %+v", ast)
	}
}

// failAfterSink is a plain Sink — no HandleBurst — that parks in its first
// call until the gate opens and rejects its third.
type failAfterSink struct {
	*collectSink
	gate chan struct{}
	once sync.Once
}

func (f *failAfterSink) HandleSegmentOwned(seg pcap.Segment, owner pcap.Owner) error {
	f.once.Do(func() { <-f.gate })
	if s, _ := f.counts(); s == 2 {
		f.mu.Lock()
		f.fail = errors.New("scripted sink failure")
		f.mu.Unlock()
	}
	return f.collectSink.HandleSegmentOwned(seg, owner)
}

// TestSinkErrorMidBurstReleasesTheRest: when a per-segment sink rejects a
// segment in the middle of a burst, the pump settles the leases the sink
// never saw, and the pipeline stops with the sink's error.
func TestSinkErrorMidBurstReleasesTheRest(t *testing.T) {
	sink := &failAfterSink{collectSink: newCollectSink(), gate: make(chan struct{})}
	sup := NewSupervisor(Config{Sink: sink, QueueDepth: 32})
	sup.Add(&memSource{name: "doomed", flows: [][]byte{make([]byte, 40<<10)}, chunk: 512})
	done := make(chan error, 1)
	go func() { done <- sup.Run(context.Background()) }()
	waitFor(t, 10*time.Second, "a burst to queue behind the parked sink", func() bool {
		return sup.Stats()[0].QueueDepth == 32
	})
	close(sink.gate)
	err := <-done
	if err == nil || !errors.Is(err, sink.fail) {
		t.Fatalf("Run = %v, want the sink's error", err)
	}
	if s, _ := sink.counts(); s != 2 {
		t.Fatalf("sink accepted %d segments, want the 2 before its failure", s)
	}
	if ast := sup.Arena().Stats(); ast.Leases != ast.Releases || ast.DoubleReleases != 0 || ast.BytesLeased != 0 {
		t.Fatalf("arena imbalance after a mid-burst failure: %+v", ast)
	}
}
