package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"matchfilter/internal/burst"
	"matchfilter/internal/flow"
	"matchfilter/internal/pcap"
)

// lease is an Owner that counts its releases, one per test segment.
type lease struct{ n atomic.Int32 }

func (l *lease) Release() { l.n.Add(1) }

// leased wraps segs as burst items, each under its own lease.
func leased(segs []pcap.Segment) ([]burst.Item, []*lease) {
	items := make([]burst.Item, len(segs))
	leases := make([]*lease, len(segs))
	for i, seg := range segs {
		leases[i] = &lease{}
		items[i] = burst.Item{Seg: seg, Owner: leases[i]}
	}
	return items, leases
}

// wantReleases fails unless each lease was released exactly want times.
func wantReleases(t *testing.T, what string, leases []*lease, want int32) {
	t.Helper()
	for i, l := range leases {
		if got := l.n.Load(); got != want {
			t.Fatalf("%s: lease %d released %d times, want %d", what, i, got, want)
		}
	}
}

// segsOn returns n one-byte in-order segments of flow k.
func segsOn(k pcap.FlowKey, n int) []pcap.Segment {
	segs := make([]pcap.Segment, n)
	for i := range segs {
		segs[i] = pcap.Segment{Key: k, Seq: uint32(1 + i), Flags: pcap.FlagACK, Payload: []byte("x")}
	}
	return segs
}

func decodeCapture(t testing.TB, capture []byte) []pcap.Segment {
	t.Helper()
	pr, err := pcap.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	var segs []pcap.Segment
	for {
		pkt, err := pr.Next()
		if errors.Is(err, io.EOF) {
			return segs
		}
		if err != nil {
			t.Fatal(err)
		}
		seg, err := pcap.DecodeTCP(pkt.Data)
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, seg)
	}
}

// orderedFlowMatches groups matches by flow, keeping each flow's order.
func orderedFlowMatches(ms []Match) map[pcap.FlowKey][]string {
	out := make(map[pcap.FlowKey][]string)
	for _, m := range ms {
		out[m.Flow] = append(out[m.Flow], fmt.Sprintf("%d@%d", m.ID, m.Pos))
	}
	return out
}

// TestBurstDispatchEquivalence: bursts that interleave many flows, cut at
// sizes from the one-segment burst to more than a queue chunk, give every
// flow the sequential scanner's (rule id, end) stream — in order, not just
// as a set — on 1, 2 and 4 shards, with every lease released exactly once.
func TestBurstDispatchEquivalence(t *testing.T) {
	m := buildMFA(t, "attack.*payload", "evil[^\n]*string", "xmrig")
	capture := interleavedCapture(t, 48, 6<<10, []string{"attack", "payload", "evil", "string", "xmrig"})

	var seq []Match
	seqStats, err := flow.ScanPcap(bytes.NewReader(capture), flow.Config{},
		func() flow.Runner { return m.NewRunner() },
		func(mt flow.Match) { seq = append(seq, mt) })
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) == 0 {
		t.Fatal("trace produced no sequential matches; test would be vacuous")
	}
	want := orderedFlowMatches(seq)
	segs := decodeCapture(t, capture)

	for _, shards := range []int{1, 2, 4} {
		for _, size := range []int{1, 7, burst.Max, burst.Max + 44} {
			t.Run(fmt.Sprintf("shards=%d/burst=%d", shards, size), func(t *testing.T) {
				var mu sync.Mutex
				var got []Match
				// A queue shallower than the bursts, so Put blocks mid-burst.
				e := New(Config{Shards: shards, QueueDepth: 64},
					func() flow.Runner { return m.NewRunner() },
					func(mt Match) {
						mu.Lock()
						got = append(got, mt)
						mu.Unlock()
					})
				items, leases := leased(segs)
				for len(items) > 0 {
					k := min(size, len(items))
					if err := e.HandleBurst(items[:k]); err != nil {
						t.Fatal(err)
					}
					items = items[k:]
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				if !equalFlowMatches(want, orderedFlowMatches(got)) {
					t.Errorf("per-flow streams diverge from the sequential scan (seq %d matches, engine %d)", len(seq), len(got))
				}
				st := e.Stats()
				if st.Packets != seqStats.Packets || st.PayloadBytes != seqStats.PayloadBytes {
					t.Errorf("engine scanned %d packets / %d bytes, sequential %d / %d",
						st.Packets, st.PayloadBytes, seqStats.Packets, seqStats.PayloadBytes)
				}
				wantReleases(t, "after Close", leases, 1)
			})
		}
	}
}

// TestBurstDropPathsCountAndRelease: inside a burst, every drop path
// still counts and releases per segment.
func TestBurstDropPathsCountAndRelease(t *testing.T) {
	k := pcap.FlowKey{SrcIP: 9, DstIP: 8, SrcPort: 7, DstPort: 6}
	nop := func() flow.Runner { return nopRunner{} }

	t.Run("DropWhenFull", func(t *testing.T) {
		gate := make(chan struct{})
		e := New(Config{Shards: 1, QueueDepth: 4, DropWhenFull: true, SoftWatermark: 1.1, HardWatermark: 1.2},
			func() flow.Runner { return &blockingRunner{gate: gate} }, nil)
		segs := segsOn(k, 11)
		first, firstLease := leased(segs[:1])
		if err := e.HandleBurst(first); err != nil {
			t.Fatal(err)
		}
		waitProcessed(t, e, 1) // the shard is stalled inside Feed with an empty queue behind it
		rest, restLeases := leased(segs[1:])
		if err := e.HandleBurst(rest); err != nil {
			t.Fatal(err)
		}
		if st := e.Stats(); st.QueueDrops != 6 || st.QueueDepth != 4 {
			t.Fatalf("a burst of 10 into a 4-deep queue: QueueDrops %d, QueueDepth %d; want 6, 4", st.QueueDrops, st.QueueDepth)
		}
		wantReleases(t, "queued", restLeases[:4], 0)
		wantReleases(t, "overflowed", restLeases[4:], 1)
		close(gate)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if st := e.Stats(); st.Packets != 5 || st.Packets+st.QueueDrops != 11 {
			t.Fatalf("accounting: scanned %d + dropped %d != 11", st.Packets, st.QueueDrops)
		}
		wantReleases(t, "after Close", append(firstLease, restLeases...), 1)
	})

	t.Run("hard tier", func(t *testing.T) {
		e := New(Config{Shards: 2, DropWhenFull: true, MemPressure: func() float64 { return 1 }}, nop, nil)
		defer e.Close()
		e.evalPressure()
		items, leases := leased(segsOn(k, 5))
		if err := e.HandleBurst(items); err != nil {
			t.Fatal(err)
		}
		if st := e.Stats(); st.HardDrops != 5 || st.Packets != 0 {
			t.Fatalf("HardDrops %d, Packets %d; want 5, 0", st.HardDrops, st.Packets)
		}
		wantReleases(t, "hard tier", leases, 1)
	})

	t.Run("wedged shard", func(t *testing.T) {
		e := New(Config{Shards: 2}, nop, nil)
		e.shards[0].wedged.Store(true)
		stuck, stuckLeases := leased(segsOn(keyOnShard(t, 0, 2), 3))
		fine, fineLeases := leased(segsOn(keyOnShard(t, 1, 2), 4))
		mixed := []burst.Item{stuck[0], fine[0], fine[1], stuck[1], fine[2], stuck[2], fine[3]}
		if err := e.HandleBurst(mixed); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if st := e.Stats(); st.WedgeDrops != 3 || st.Packets != 4 {
			t.Fatalf("WedgeDrops %d, Packets %d; want 3, 4", st.WedgeDrops, st.Packets)
		}
		wantReleases(t, "wedged", append(stuckLeases, fineLeases...), 1)
	})

	t.Run("unknown tenant", func(t *testing.T) {
		e := New(Config{Shards: 2}, nop, nil)
		tagged := k
		tagged.Tenant = 7 // no registry: never published
		segs := append(segsOn(k, 3), segsOn(tagged, 2)...)
		items, leases := leased(segs)
		if err := e.HandleBurst(items); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if st := e.Stats(); st.UnknownTenantDrops != 2 || st.Packets != 3 {
			t.Fatalf("UnknownTenantDrops %d, Packets %d; want 2, 3", st.UnknownTenantDrops, st.Packets)
		}
		wantReleases(t, "unknown tenant", leases, 1)
	})

	t.Run("closed", func(t *testing.T) {
		e := New(Config{Shards: 2}, nop, nil)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		items, leases := leased(segsOn(k, 4))
		if err := e.HandleBurst(items); err != ErrClosed {
			t.Fatalf("HandleBurst after Close: %v, want ErrClosed", err)
		}
		wantReleases(t, "closed", leases, 1)
	})
}

// TestCloseUnblocksDispatcherMidBurst: a dispatcher parked in the middle
// of a burst — part queued, part waiting for room on a stalled shard, part
// staged for a shard it has not reached — returns ErrClosed once Close
// begins, and every lease it was handed is released exactly once by the
// time the engine has drained.
func TestCloseUnblocksDispatcherMidBurst(t *testing.T) {
	gate := make(chan struct{})
	e := New(Config{Shards: 2, QueueDepth: 2, SoftWatermark: 1.1, HardWatermark: 1.2},
		func() flow.Runner { return &blockingRunner{gate: gate} }, nil)
	k0, k1 := keyOnShard(t, 0, 2), keyOnShard(t, 1, 2)
	first, firstLease := leased(segsOn(k0, 1))
	if err := e.HandleBurst(first); err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, e, 1) // shard 0 is stalled inside Feed

	items, leases := leased(append(segsOn(k0, 9)[1:], segsOn(k1, 5)...))
	sent := make(chan error, 1)
	go func() { sent <- e.HandleBurst(items) }()
	waitStats(t, e, "shard 0's queue to fill", func(st Stats) bool { return st.QueueDepth == 2 })
	waitParked(t, "burst.(*Queue).put")
	select {
	case err := <-sent:
		t.Fatalf("HandleBurst returned %v with 6 segments still waiting for room", err)
	default:
	}

	ctx, cancel := context.WithDeadline(context.Background(), time.Now()) // already past
	defer cancel()
	var sderr *ShutdownError
	if err := e.CloseContext(ctx); !errors.As(err, &sderr) {
		t.Fatalf("CloseContext with a stalled shard: %v, want *ShutdownError", err)
	}
	select {
	case err := <-sent:
		if err != ErrClosed {
			t.Fatalf("blocked HandleBurst returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dispatcher still blocked after CloseContext")
	}
	wantReleases(t, "queued on shard 0", leases[:2], 0)
	wantReleases(t, "given up", leases[2:], 1)

	close(gate)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Packets != 3 {
		t.Fatalf("Packets = %d, want the 3 segments queued before Close", st.Packets)
	}
	wantReleases(t, "after drain", append(firstLease, leases...), 1)
}
