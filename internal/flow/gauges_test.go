package flow

import (
	"testing"

	"matchfilter/internal/pcap"
	"matchfilter/internal/telemetry"
)

type countRunner struct{ fed int64 }

func (r *countRunner) Feed(data []byte, onMatch func(int32, int64)) { r.fed += int64(len(data)) }
func (r *countRunner) Reset()                                       { r.fed = 0 }

func gaugeSet() (*Gauges, func() (live, pend, bytes int64)) {
	reg := telemetry.NewRegistry()
	g := &Gauges{
		LiveFlows:       reg.Gauge("live", ""),
		PendingSegments: reg.Gauge("pend", ""),
		BufferedBytes:   reg.Gauge("bytes", ""),
	}
	return g, func() (int64, int64, int64) {
		return g.LiveFlows.Value(), g.PendingSegments.Value(), g.BufferedBytes.Value()
	}
}

func seg(key pcap.FlowKey, seq uint32, flags uint8, payload string) pcap.Segment {
	return pcap.Segment{Key: key, Seq: seq, Flags: flags, Payload: []byte(payload)}
}

// TestGaugesTrackLifecycle walks a flow through creation, out-of-order
// buffering, gap fill, and FIN teardown, asserting the gauges mirror
// Stats-visible state at every step.
func TestGaugesTrackLifecycle(t *testing.T) {
	g, read := gaugeSet()
	a := NewAssembler(Config{Gauges: g}, func() Runner { return &countRunner{} }, nil)
	k := pcap.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}

	a.HandleSegment(seg(k, 100, pcap.FlagSYN, ""))
	if live, pend, by := read(); live != 1 || pend != 0 || by != 0 {
		t.Fatalf("after SYN: live=%d pend=%d bytes=%d, want 1,0,0", live, pend, by)
	}

	// Out-of-order segment parks in the pending buffer.
	a.HandleSegment(seg(k, 106, pcap.FlagACK, "world"))
	if live, pend, by := read(); live != 1 || pend != 1 || by != 5 {
		t.Fatalf("after OOO: live=%d pend=%d bytes=%d, want 1,1,5", live, pend, by)
	}

	// The gap filler releases the parked segment.
	a.HandleSegment(seg(k, 101, pcap.FlagACK, "hello"))
	if live, pend, by := read(); live != 1 || pend != 0 || by != 0 {
		t.Fatalf("after fill: live=%d pend=%d bytes=%d, want 1,0,0", live, pend, by)
	}

	a.HandleSegment(seg(k, 111, pcap.FlagFIN, ""))
	if live, pend, by := read(); live != 0 || pend != 0 || by != 0 {
		t.Fatalf("after FIN: live=%d pend=%d bytes=%d, want all zero", live, pend, by)
	}
}

// TestGaugesOnEvictionAndTrim covers the paths where buffered state is
// destroyed rather than delivered: cap eviction, overflow drop of the
// oldest pending segment, SetMaxBuffered trims, and DropFlow quarantine.
func TestGaugesOnEvictionAndTrim(t *testing.T) {
	g, read := gaugeSet()
	a := NewAssembler(Config{MaxFlows: 2, Gauges: g},
		func() Runner { return &countRunner{} }, nil)
	a.SetMaxBuffered(2)
	k1 := pcap.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	k2 := pcap.FlowKey{SrcIP: 5, DstIP: 6, SrcPort: 7, DstPort: 8}
	k3 := pcap.FlowKey{SrcIP: 9, DstIP: 10, SrcPort: 11, DstPort: 12}

	// k1 accumulates two pending segments (at the cap).
	a.HandleSegment(seg(k1, 100, pcap.FlagSYN, ""))
	a.HandleSegment(seg(k1, 110, pcap.FlagACK, "aaaa"))
	a.HandleSegment(seg(k1, 120, pcap.FlagACK, "bb"))
	if live, pend, by := read(); live != 1 || pend != 2 || by != 6 {
		t.Fatalf("k1 buffered: live=%d pend=%d bytes=%d, want 1,2,6", live, pend, by)
	}
	// A third future segment overflows the buffer: the oldest (4 bytes)
	// is dropped to admit it.
	a.HandleSegment(seg(k1, 130, pcap.FlagACK, "ccc"))
	if live, pend, by := read(); live != 1 || pend != 2 || by != 5 {
		t.Fatalf("after overflow: live=%d pend=%d bytes=%d, want 1,2,5", live, pend, by)
	}
	// Shrinking the buffer trims down to one pending segment.
	a.SetMaxBuffered(1)
	if live, pend, by := read(); live != 1 || pend != 1 || by != 3 {
		t.Fatalf("after trim: live=%d pend=%d bytes=%d, want 1,1,3", live, pend, by)
	}

	// Two more flows: k1 is LRU-evicted with its pending data.
	a.HandleSegment(seg(k2, 100, pcap.FlagSYN, ""))
	a.HandleSegment(seg(k3, 100, pcap.FlagSYN, ""))
	if live, pend, by := read(); live != 2 || pend != 0 || by != 0 {
		t.Fatalf("after cap evict: live=%d pend=%d bytes=%d, want 2,0,0", live, pend, by)
	}

	// Quarantine path.
	if !a.DropFlow(k2) {
		t.Fatal("DropFlow(k2) = false")
	}
	if live, _, _ := read(); live != 1 {
		t.Fatalf("after DropFlow: live=%d, want 1", live)
	}

	// Wholesale release (the shard-rebuild path) zeroes the rest.
	a.ReleaseGauges()
	if live, pend, by := read(); live != 0 || pend != 0 || by != 0 {
		t.Fatalf("after ReleaseGauges: live=%d pend=%d bytes=%d, want zeros", live, pend, by)
	}
	// Idempotent: releasing again must not go negative.
	a.ReleaseGauges()
	if live, _, _ := read(); live != 0 {
		t.Fatalf("ReleaseGauges not idempotent: live=%d", live)
	}
}

// TestGaugesSharedAcrossAssemblers: two assemblers feeding one gauge set
// compose by atomic addition, and each releases only its own share.
func TestGaugesSharedAcrossAssemblers(t *testing.T) {
	g, read := gaugeSet()
	mk := func() *Assembler {
		return NewAssembler(Config{Gauges: g}, func() Runner { return &countRunner{} }, nil)
	}
	a1, a2 := mk(), mk()
	k := pcap.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	a1.HandleSegment(seg(k, 100, pcap.FlagSYN, ""))
	a2.HandleSegment(seg(k, 100, pcap.FlagSYN, ""))
	a2.HandleSegment(seg(k, 110, pcap.FlagACK, "zzz"))
	if live, pend, by := read(); live != 2 || pend != 1 || by != 3 {
		t.Fatalf("shared: live=%d pend=%d bytes=%d, want 2,1,3", live, pend, by)
	}
	a2.ReleaseGauges()
	if live, pend, by := read(); live != 1 || pend != 0 || by != 0 {
		t.Fatalf("after a2 release: live=%d pend=%d bytes=%d, want 1,0,0", live, pend, by)
	}
	a1.ReleaseGauges()
	if live, _, _ := read(); live != 0 {
		t.Fatalf("after both released: live=%d, want 0", live)
	}
}
