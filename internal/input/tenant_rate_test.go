// Ingest-policy tests: per-source replay pacing, tenant tagging at the
// emitter, and the UDP listener's sequenced delivery accounting.
package input

import (
	"context"
	"net"
	"testing"
	"time"

	"matchfilter/internal/clocktest"
	"matchfilter/internal/pcap"
)

// paceSlack is the rounding a paced schedule may lose: the limiter
// truncates each sleep to whole nanoseconds.
const paceSlack = time.Microsecond

// TestRateLimiterPacing: the limiter's sleeps, stepped on the manual
// clock, add up to the bytes past the burst at the configured rate.
func TestRateLimiterPacing(t *testing.T) {
	clk := clocktest.New()
	clk.Drive(t, time.Second)
	rl := newRateLimiter(1<<20, clk) // 1 MiB/s, 10 ms burst = ~10 KiB
	ctx := context.Background()
	start := clk.Now()
	const chunk, chunks = 8 << 10, 12 // 96 KiB total
	for i := 0; i < chunks; i++ {
		if err := rl.wait(ctx, chunk); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := clk.Now().Sub(start)
	// 96 KiB minus the burst window at 1 MiB/s is 83.75 ms of pacing.
	if want := 83750 * time.Microsecond; elapsed > want || elapsed < want-paceSlack {
		t.Fatalf("96 KiB at 1 MiB/s took %v, want %v", elapsed, want)
	}
	if got := time.Duration(rl.pausedNanos.Load()); got != elapsed {
		t.Fatalf("limiter accounted %v paused, the clock moved %v", got, elapsed)
	}

	// A cancelled context unblocks the debt sleep promptly.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := rl.wait(cctx, 64<<20); err == nil {
		t.Fatal("wait succeeded on a cancelled context")
	}
}

// policySource emits segs segments of payload on one flow.
type policySource struct {
	name    string
	segs    int
	payload string
	key     pcap.FlowKey
	tagged  bool // pre-tag the segment's key with tenant 3
}

func (m *policySource) Describe() Description {
	return Description{Name: m.name, Kind: "mem", Detail: "test", Finite: true}
}

func (m *policySource) Run(ctx context.Context, em *Emitter) error {
	for i := 0; i < m.segs; i++ {
		lease := em.Lease(len(m.payload))
		copy(lease.Data(), m.payload)
		key := m.key
		if m.tagged {
			key.Tenant = 3
		}
		seg := pcap.Segment{Key: key, Seq: uint32(i * len(m.payload)), Flags: pcap.FlagACK, Payload: lease.Data()}
		if err := em.Segment(seg, lease); err != nil {
			return err
		}
	}
	return nil
}

func TestSourceRateLimitsEmission(t *testing.T) {
	clk := useManualClock(t)
	clk.Drive(t, time.Second)
	sink := newCollectSink()
	sup := NewSupervisor(Config{Sink: sink, QueueDepth: 64})
	// 32 KiB at 256 KiB/s, less a 10 ms burst, is 115 ms of pacing.
	src := &policySource{name: "paced", segs: 32, payload: string(make([]byte, 1024)), key: synthFlowKey(9001, 1, nil, 80)}
	sup.AddOptions(src, SourceOptions{RateBytesPerSec: 256 << 10})
	start := clk.Now()
	if err := sup.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed, want := clk.Now().Sub(start), 115*time.Millisecond; elapsed > want || elapsed < want-paceSlack {
		t.Fatalf("32 KiB at 256 KiB/s replayed in %v, want %v", elapsed, want)
	}
	if _, b := sink.counts(); b != 32<<10 {
		t.Fatalf("delivered %d bytes, want %d", b, 32<<10)
	}
	row := sup.Stats()[0]
	if row.RateBytesPerSec != 256<<10 {
		t.Fatalf("stats advertise rate %d, want %d", row.RateBytesPerSec, 256<<10)
	}
}

func TestEmitterTenantTagging(t *testing.T) {
	sink := newCollectSink()
	taggedKey := synthFlowKey(9100, 1, nil, 80)
	sup := NewSupervisor(Config{
		Sink:       sink,
		QueueDepth: 64,
		Tagger: func(k pcap.FlowKey) uint32 {
			if k == taggedKey {
				return 9
			}
			return 0
		},
	})
	// Source-bound tenant wins for untagged segments.
	bound := &policySource{name: "bound", segs: 4, payload: "abcd", key: synthFlowKey(9200, 1, nil, 80)}
	sup.AddOptions(bound, SourceOptions{Tenant: 7})
	// A segment the source pre-tagged keeps its tag even on a bound source.
	pre := &policySource{name: "pre", segs: 4, payload: "efgh", key: synthFlowKey(9300, 1, nil, 80), tagged: true}
	sup.AddOptions(pre, SourceOptions{Tenant: 7})
	// Unbound source falls through to the classifier.
	classified := &policySource{name: "cidr", segs: 4, payload: "ijkl", key: taggedKey}
	sup.Add(classified)
	if err := sup.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	sink.mu.Lock()
	defer sink.mu.Unlock()
	wantTag := map[uint32]int{7: 0, 3: 0, 9: 0}
	for key := range sink.payloads {
		wantTag[key.Tenant]++
	}
	if wantTag[7] != 1 || wantTag[3] != 1 || wantTag[9] != 1 {
		t.Fatalf("tenant tags wrong: %v (keys %v)", wantTag, sink.payloads)
	}
	for _, row := range sup.Stats() {
		if row.Name == "bound" && row.Tenant != 7 {
			t.Fatalf("bound source advertises tenant %d, want 7", row.Tenant)
		}
	}
}

func TestUDPListenerSeqAccounting(t *testing.T) {
	src := NewUDPListener("127.0.0.1:0")
	src.Seq = true
	sink, sup, shutdown := startSocketSupervisor(t, src)
	waitFor(t, 5*time.Second, "socket bound", func() bool { return src.Bound() != nil })

	conn, err := net.Dial("udp", src.Bound().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(seq uint32, payload string) {
		t.Helper()
		dgram := append([]byte{byte(seq >> 24), byte(seq >> 16), byte(seq >> 8), byte(seq)}, payload...)
		if _, err := conn.Write(dgram); err != nil {
			t.Fatal(err)
		}
	}
	// Baseline 10, in-order 11, gap to 13 (skips 12), late 12, in-order
	// 14, gap to 20 (skips 15..19): gaps 6, reorders 1. The payloads
	// still deliver in arrival order — accounting, not reassembly.
	var wantBytes int64
	for _, d := range []struct {
		seq     uint32
		payload string
	}{
		{10, "aa"}, {11, "bb"}, {13, "cc"}, {12, "dd"}, {14, "ee"}, {20, "ff"},
	} {
		send(d.seq, d.payload)
		wantBytes += int64(len(d.payload))
	}
	// A datagram too short for the header counts as malformed.
	if _, err := conn.Write([]byte{0, 1}); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 10*time.Second, "sequenced datagrams accounted", func() bool {
		row := sup.Stats()[0]
		_, b := sink.counts()
		return b == wantBytes && row.Gaps == 6 && row.Reorders == 1 && row.Malformed == 1
	})
	shutdown()
}

func TestSeqAfterWrap(t *testing.T) {
	cases := []struct {
		a, b uint32
		want bool
	}{
		{1, 0, true},
		{0, 1, false},
		{0, 0xffffffff, true}, // wrap: 0 is after 2^32-1
		{0xffffffff, 0, false},
		{5, 5, false},
	}
	for _, c := range cases {
		if got := seqAfter(c.a, c.b); got != c.want {
			t.Errorf("seqAfter(%d, %d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
