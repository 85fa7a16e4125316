package engine

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"matchfilter/internal/flow"
	"matchfilter/internal/pcap"
	"matchfilter/internal/telemetry"
)

// TestEventFlowNames: a shard interleaving more flows than its
// flow-string cache has slots — so keys share slots and replace each other
// — must still name every traced event's flow as FlowKey.String does. The
// events the ring holds are compared, as a multiset, with the matches
// delivered to the engine's callback.
func TestEventFlowNames(t *testing.T) {
	const flows = 400
	m := buildMFA(t, "attack.*payload", "needle")
	capture := interleavedCapture(t, flows, 1<<10, []string{"attack", "payload", "needle"})
	ring := telemetry.NewEventRing(1 << 16)
	var want []string
	// A queue deeper than the capture and watermarks out of reach: no
	// segment is shed, so every flow gets to match.
	e := New(Config{Shards: 1, QueueDepth: 4096, SoftWatermark: 2, HardWatermark: 2, Events: ring},
		func() flow.Runner { return m.NewRunner() },
		func(mt Match) { want = append(want, fmt.Sprintf("%s %d@%d", mt.Flow.String(), mt.ID, mt.Pos)) })
	feedCapture(t, e, capture)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	named := map[string]bool{}
	for _, ev := range ring.Tail(0) {
		got = append(got, fmt.Sprintf("%s %d@%d", ev.Flow, ev.Pattern, ev.Offset))
		named[ev.Flow] = true
	}
	if ring.Total() != int64(len(got)) {
		t.Fatalf("the ring dropped events: %d of %d held", len(got), ring.Total())
	}
	if len(named) <= 1<<flowNameBits {
		t.Fatalf("events name %d flows; the test wants more than the cache's %d slots", len(named), 1<<flowNameBits)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("%d traced events, %d delivered matches; the flow names differ", len(got), len(want))
	}
}

// BenchmarkFlowNames is the per-match flow string of a shard that traces
// events: keys of n flows (the synthesizer's sequential clients) named
// round-robin through one flowNames, allocations reported per event. A
// flow whose slot no other flow shares allocates only on its first event.
func BenchmarkFlowNames(b *testing.B) {
	for _, n := range []int{1, 16, 64, 256} {
		keys := make([]pcap.FlowKey, n)
		for i := range keys {
			keys[i] = pcap.FlowKey{SrcIP: 0x0a000000 | uint32(i+1), DstIP: 0xc0a80101, SrcPort: uint16(20000 + i), DstPort: 80}
		}
		b.Run(fmt.Sprintf("%d-flows", n), func(b *testing.B) {
			var c flowNames
			var sink string
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			for i := 0; i < b.N; i++ {
				sink = c.name(keys[i%n])
			}
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(ms.Mallocs-before)/float64(b.N), "allocs/event")
			_ = sink
		})
	}
}
