// The source's hand-off: a quiet source's segment reaches the sink alone
// and at once, a capture's frames read back to back cross as staged bursts
// of at most burst.Max, and both sink shapes — BurstSink and the
// per-segment fallback — own every lease they are handed.
package input

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"matchfilter/internal/burst"
	"matchfilter/internal/pcap"
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

// callSink is a BurstSink that records how many segments each call of
// either kind carried.
type callSink struct {
	*collectSink
	callMu sync.Mutex
	calls  []int
}

func (c *callSink) record(n int) {
	c.callMu.Lock()
	c.calls = append(c.calls, n)
	c.callMu.Unlock()
}

func (c *callSink) sizes() []int {
	c.callMu.Lock()
	defer c.callMu.Unlock()
	return append([]int(nil), c.calls...)
}

func (c *callSink) HandleSegmentOwned(seg pcap.Segment, owner pcap.Owner) error {
	c.record(1)
	return c.collectSink.HandleSegmentOwned(seg, owner)
}

func (c *callSink) HandleBurst(items []burst.Item) error {
	c.record(len(items))
	for i, it := range items {
		if err := c.collectSink.HandleSegmentOwned(it.Seg, it.Owner); err != nil {
			burst.Release(items[i+1:])
			return err
		}
	}
	return nil
}

// TestQuietSourceSegmentIsDeliveredAlone is the latency property of the
// hand-off: a segment never waits for company. The lone segment of a
// source that then goes silent reaches the sink while the source is still
// blocked, in one call carrying that one segment.
func TestQuietSourceSegmentIsDeliveredAlone(t *testing.T) {
	sink := &callSink{collectSink: newCollectSink()}
	sup := NewSupervisor(Config{Sink: sink})
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
	if calls := sink.sizes(); len(calls) != 1 || calls[0] != 1 {
		t.Fatalf("sink calls %v, want one call carrying one segment", calls)
	}
	if row := sup.Stats()[0]; row.Segments != 1 || row.PayloadBytes != 5 {
		t.Fatalf("source row: %+v", row)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if ast := sup.Arena().Stats(); ast.Leases != 1 || ast.Releases != 1 || ast.BytesLeased != 0 {
		t.Fatalf("arena after the run: %+v", ast)
	}
}

// TestBurstsFormBehindABusySink: a capture's frames are read faster than
// one call each is worth, so what the reader already holds crosses to a
// BurstSink staged, in calls of at most burst.Max, and the per-source
// counters still count segments.
func TestBurstsFormBehindABusySink(t *testing.T) {
	capture := synthCapture(t, 4, 40000, []string{"kabra"}, 3)
	frames, payload := countCapture(t, capture)
	sink := &callSink{collectSink: newCollectSink()}
	sup := NewSupervisor(Config{Sink: sink})
	sup.Add(NewPcapStream("busy", bytes.NewReader(capture)))
	if err := sup.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	calls := sink.sizes()
	total, widest := 0, 0
	for _, n := range calls {
		total += n
		widest = max(widest, n)
	}
	if widest != burst.Max || int64(total) != frames || frames <= burst.Max {
		t.Fatalf("%d calls carrying %d segments, the widest %d; want %d frames in calls of at most and up to %d",
			len(calls), total, widest, frames, burst.Max)
	}
	if row := sup.Stats()[0]; row.Segments != frames || row.PayloadBytes != payload {
		t.Fatalf("source row after the run: %+v, want %d segments, %d bytes", row, frames, payload)
	}
	if ast := sup.Arena().Stats(); ast.Leases != ast.Releases || ast.BytesLeased != 0 {
		t.Fatalf("arena imbalance: %+v", ast)
	}
}

// failAfterSink is a plain Sink — no HandleBurst — that rejects its third
// segment.
type failAfterSink struct{ *collectSink }

func (f *failAfterSink) HandleSegmentOwned(seg pcap.Segment, owner pcap.Owner) error {
	if s, _ := f.counts(); s == 2 {
		f.mu.Lock()
		f.fail = errors.New("scripted sink failure")
		f.mu.Unlock()
	}
	return f.collectSink.HandleSegmentOwned(seg, owner)
}

// TestSinkErrorMidBurstReleasesTheRest: when a per-segment sink rejects a
// segment in the middle of a staged burst, the source settles the leases
// the sink never saw — each lease exactly once — and the pipeline stops
// with the sink's error.
func TestSinkErrorMidBurstReleasesTheRest(t *testing.T) {
	sink := &failAfterSink{collectSink: newCollectSink()}
	sup := NewSupervisor(Config{Sink: sink})
	sup.Add(NewPcapStream("doomed", bytes.NewReader(synthCapture(t, 2, 40000, nil, 5))))
	err := sup.Run(context.Background())
	if err == nil || !errors.Is(err, sink.fail) {
		t.Fatalf("Run = %v, want the sink's error", err)
	}
	if s, _ := sink.counts(); s != 2 {
		t.Fatalf("sink accepted %d segments, want the 2 before its failure", s)
	}
	ast := sup.Arena().Stats()
	if ast.Leases <= 3 || ast.Leases != ast.Releases || ast.DoubleReleases != 0 || ast.BytesLeased != 0 {
		t.Fatalf("arena after a mid-burst failure: %+v, want a staged burst's leases each released once", ast)
	}
}
