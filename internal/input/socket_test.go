package input

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"matchfilter/internal/flow"
	"matchfilter/internal/pcap"
)

// startSocketSupervisor runs one socket source against a collect sink
// and returns the sink plus a shutdown func.
func startSocketSupervisor(t *testing.T, src Source) (*collectSink, *Supervisor, func()) {
	t.Helper()
	sink := newCollectSink()
	sup, shutdown := startSupervisor(t, sink, src)
	return sink, sup, shutdown
}

// startSupervisor runs one source against sink and returns the
// supervisor plus a shutdown func.
func startSupervisor(t *testing.T, sink Sink, src Source) (*Supervisor, func()) {
	t.Helper()
	sup := NewSupervisor(Config{Sink: sink, QueueDepth: 64})
	sup.Add(src)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- sup.Run(ctx) }()
	shutdown := func() {
		cancel()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	return sup, shutdown
}

func TestTCPListenerScansConnections(t *testing.T) {
	src := NewTCPListener("127.0.0.1:0")
	sink, _, shutdown := startSocketSupervisor(t, src)
	waitFor(t, 5*time.Second, "listener bound", func() bool { return src.Bound() != nil })

	payloads := [][]byte{[]byte("alpha payload"), bytes.Repeat([]byte("b"), 40000)}
	for _, p := range payloads {
		conn, err := net.Dial("tcp", src.Bound().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(p); err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	var want int64
	for _, p := range payloads {
		want += int64(len(p))
	}
	waitFor(t, 10*time.Second, "all connection bytes delivered", func() bool {
		_, b := sink.counts()
		return b == want
	})
	shutdown()

	// Each connection surfaced as its own flow carrying exactly its
	// bytes, in order.
	sink.mu.Lock()
	flows := len(sink.payloads)
	sink.mu.Unlock()
	if flows != len(payloads) {
		t.Fatalf("got %d flows, want %d", flows, len(payloads))
	}
}

func TestUDPListenerScansPeers(t *testing.T) {
	src := NewUDPListener("127.0.0.1:0")
	sink, _, shutdown := startSocketSupervisor(t, src)
	waitFor(t, 5*time.Second, "socket bound", func() bool { return src.Bound() != nil })

	conn, err := net.Dial("udp", src.Bound().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, dgram := range []string{"first datagram ", "second datagram"} {
		if _, err := conn.Write([]byte(dgram)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "datagrams delivered", func() bool {
		_, b := sink.counts()
		return b == int64(len("first datagram second datagram"))
	})
	shutdown()

	// One peer socket → one flow, datagrams concatenated in order.
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.payloads) != 1 {
		t.Fatalf("got %d flows, want 1", len(sink.payloads))
	}
	for _, stream := range sink.payloads {
		if string(stream) != "first datagram second datagram" {
			t.Fatalf("reassembled stream: %q", stream)
		}
	}
}

// TestUDPLeasesWhatItReceived: a datagram is leased at the length it
// arrived with, not at the largest a datagram can be, so small datagrams
// held downstream pin (and charge the memory governor) a few cache lines
// each.
func TestUDPLeasesWhatItReceived(t *testing.T) {
	const n, size = 32, 100
	src := NewUDPListener("127.0.0.1:0")
	sink := &holdSink{}
	sup, shutdown := startSupervisor(t, sink, src)
	defer sink.releaseAll()
	defer shutdown()
	waitFor(t, 5*time.Second, "socket bound", func() bool { return src.Bound() != nil })

	conn, err := net.Dial("udp", src.Bound().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	dgram := bytes.Repeat([]byte("u"), size)
	for i := 0; i < n; i++ {
		if _, err := conn.Write(dgram); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "datagrams held by the sink", func() bool {
		sink.mu.Lock()
		defer sink.mu.Unlock()
		return len(sink.held) == n
	})
	if got := sup.Arena().BytesLeased(); got > n*128 {
		t.Fatalf("%d held %d-byte datagrams pin %d bytes, want at most %d", n, size, got, n*128)
	}
}

// recordRunner concatenates everything the assembler feeds it.
type recordRunner struct{ buf *[]byte }

func (r *recordRunner) Feed(data []byte, onMatch func(id int32, pos int64)) {
	*r.buf = append(*r.buf, data...)
}
func (r *recordRunner) Reset() {}

// FuzzSocketFraming drives the framer the way a socket source does —
// SYN, arbitrary read-sized data segments, FIN — through real flow
// reassembly, asserting the flow's reassembled byte stream equals the
// wire bytes for any payload and any chunking.
func FuzzSocketFraming(f *testing.F) {
	f.Add([]byte("hello framing world"), 3)
	f.Add([]byte(""), 1)
	f.Add(bytes.Repeat([]byte("xyz"), 10000), 1460)
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, 1)
	f.Fuzz(func(t *testing.T, payload []byte, chunk int) {
		if chunk <= 0 {
			chunk = 1
		}
		if chunk > 1<<16 {
			chunk %= 1 << 16
			chunk++
		}
		if len(payload) > 1<<20 {
			payload = payload[:1<<20]
		}
		key := synthFlowKey(uint32(0xfff), 1, nil, 80)
		fr := newFramer(key)
		var got []byte
		asm := flow.NewAssembler(flow.Config{},
			func() flow.Runner { return &recordRunner{buf: &got} },
			func(flow.Match) {})
		asm.HandleSegment(fr.syn())
		for off := 0; off < len(payload); off += chunk {
			end := off + chunk
			if end > len(payload) {
				end = len(payload)
			}
			asm.HandleSegment(fr.data(payload[off:end]))
		}
		asm.HandleSegment(fr.fin())
		if !bytes.Equal(got, payload) {
			t.Fatalf("reassembled %d bytes, want %d; framer seq drifted from stream offset",
				len(got), len(payload))
		}
	})
}

// TestSynthFlowKeysDisjointAcrossSources: two sources' synthesized keys
// never collide, even for the same connection ordinals.
func TestSynthFlowKeysDisjointAcrossSources(t *testing.T) {
	a, b := sourceIDs.Add(1), sourceIDs.Add(1)
	seen := make(map[pcap.FlowKey]bool)
	for _, src := range []uint32{a, b} {
		for conn := uint32(1); conn <= 100; conn++ {
			key := synthFlowKey(src, conn, nil, 9)
			if seen[key] {
				t.Fatalf("duplicate key %+v", key)
			}
			seen[key] = true
		}
	}
}
