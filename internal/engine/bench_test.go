package engine

// Shard-scaling benchmarks. The dispatch work (decode + hash + queue
// append) is measured apart from the scan work so the scaling headroom is
// visible: on a multi-core host the scan parallelizes across shards
// while dispatch stays a single producer. Numbers are recorded in
// EXPERIMENTS.md ("Shard scaling").

import (
	"bytes"
	"fmt"
	"testing"

	"matchfilter/internal/burst"
	"matchfilter/internal/flow"
	"matchfilter/internal/patterns"
	"matchfilter/internal/pcap"
	"matchfilter/internal/telemetry"
	"matchfilter/internal/trace"
)

// benchCapture builds a 32-flow interleaved capture and pre-decodes its
// segments so the benchmark loop measures dispatch + scan, not pcap
// parsing.
func benchCapture(b *testing.B) (segs []pcap.Segment, payload int64) {
	b.Helper()
	segs = decodeCapture(b, interleavedCapture(b, 32, 32<<10,
		[]string{"attack", "payload", "evil", "string", "xmrig"}))
	for _, seg := range segs {
		payload += int64(len(seg.Payload))
	}
	return segs, payload
}

// BenchmarkShardScaling scans the same pre-decoded capture through 1, 2,
// 4 and 8 shards. Throughput (MB/s column) versus the shards=1 row is
// the scaling curve; on a single-core host expect ≈1× with a small
// channel-handoff tax, on N cores up to ≈N×.
func BenchmarkShardScaling(b *testing.B) {
	m := buildMFA(b, "attack.*payload", "evil[^\n]*string", "xmrig")
	segs, payload := benchCapture(b)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.SetBytes(payload)
			for i := 0; i < b.N; i++ {
				e := New(Config{Shards: shards},
					func() flow.Runner { return m.NewRunner() }, nil)
				for _, seg := range segs {
					if err := e.HandleSegment(seg); err != nil {
						b.Fatal(err)
					}
				}
				if err := e.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSequentialBaseline is the flow.Assembler equivalent of the
// shards=1 row, without any queueing: the cost floor the engine's
// dispatch layer is measured against.
func BenchmarkSequentialBaseline(b *testing.B) {
	m := buildMFA(b, "attack.*payload", "evil[^\n]*string", "xmrig")
	segs, payload := benchCapture(b)
	b.SetBytes(payload)
	for i := 0; i < b.N; i++ {
		a := flow.NewAssembler(flow.Config{}, func() flow.Runner { return m.NewRunner() }, nil)
		for _, seg := range segs {
			a.HandleSegment(seg)
		}
	}
}

// BenchmarkEngineDispatch isolates the engine's routing overhead: hash,
// stage and queue append to shards that discard instantly, a segment per
// call (the one-segment burst, as HandleSegment sends it) and a full
// burst per call (as the input pump hands it over under backlog). It bounds
// the per-segment tax the sharding layer adds over the sequential scanner.
func BenchmarkEngineDispatch(b *testing.B) {
	segs, payload := benchCapture(b)
	items := make([]burst.Item, len(segs))
	for i, seg := range segs {
		items[i] = burst.Item{Seg: seg}
	}
	for _, size := range []int{1, burst.Max} {
		b.Run(fmt.Sprintf("burst=%d", size), func(b *testing.B) {
			e := New(Config{Shards: 4},
				func() flow.Runner { return nopRunner{} }, nil)
			defer e.Close()
			b.SetBytes(payload)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for rest := items; len(rest) > 0; {
					k := min(size, len(rest))
					if err := e.HandleBurst(rest[:k]); err != nil {
						b.Fatal(err)
					}
					rest = rest[k:]
				}
			}
		})
	}
}

type nopRunner struct{}

func (nopRunner) Feed(data []byte, onMatch func(int32, int64)) {}
func (nopRunner) Reset()                                       {}

// BenchmarkShardScalingInstrumented repeats the shard-scaling
// measurement with telemetry attached — the delta against
// BenchmarkShardScaling is the scan-path cost of instrumentation. Two
// modes separate the per-window cost from the per-match cost:
//
//   - metrics: registry only — the two per-window observations on each
//     shard plus atomic reassembly-gauge accounting in the assembler.
//     This is the cost every deployment pays.
//   - metrics+events: adds the match-event ring. The bench capture is
//     adversarially match-dense (a match every ~130 payload bytes, salted
//     with the patterns' own literals), so this mode bounds the per-event
//     cost from above; realistic traffic with rare true matches pays the
//     metrics-only figure.
//
// EXPERIMENTS.md ("Instrumentation overhead") records the measured
// numbers; the budget for the always-on metrics mode is <= 3%.
func BenchmarkShardScalingInstrumented(b *testing.B) {
	m := buildMFA(b, "attack.*payload", "evil[^\n]*string", "xmrig")
	segs, payload := benchCapture(b)
	for _, mode := range []string{"metrics", "metrics+events"} {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/shards=%d", mode, shards), func(b *testing.B) {
				b.SetBytes(payload)
				for i := 0; i < b.N; i++ {
					cfg := Config{
						Shards:  shards,
						Metrics: telemetry.NewRegistry(),
					}
					if mode == "metrics+events" {
						cfg.Events = telemetry.NewEventRing(1024)
					}
					e := New(cfg, func() flow.Runner { return m.NewRunner() }, nil)
					for _, seg := range segs {
						if err := e.HandleSegment(seg); err != nil {
							b.Fatal(err)
						}
					}
					if err := e.Close(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkShardSmallSegments probes the shard path on small_packets'
// shape without the benchmark harness around it: 2,048 C10 flows of
// 8 KiB text at small_packets' word probability, cut into 96-byte
// segments with 5 % reordering, pre-decoded and handed to a one-shard
// engine with Metrics and Events in bursts of burst.Max, as the input pump
// hands them over under backlog. Run it at -cpu 1,2: at GOMAXPROCS 1 the
// dispatcher and the shard share one core, so a saving on the shard path
// shows undiluted.
func BenchmarkShardSmallSegments(b *testing.B) {
	srcs, err := patterns.Sources("C10")
	if err != nil {
		b.Fatal(err)
	}
	words, err := patterns.AllWords("C10")
	if err != nil {
		b.Fatal(err)
	}
	m := buildMFA(b, srcs...)
	payloads := make([][]byte, 2048)
	var payload int64
	for i := range payloads {
		payloads[i] = trace.TextLike(8<<10, int64(1+i*7919), words, 0.002)
		payload += int64(len(payloads[i]))
	}
	var capture bytes.Buffer
	if err := pcap.Synthesize(&capture, payloads, 96, 0.05, 11); err != nil {
		b.Fatal(err)
	}
	segs := decodeCapture(b, capture.Bytes())
	items := make([]burst.Item, len(segs))
	for i, seg := range segs {
		items[i] = burst.Item{Seg: seg}
	}
	b.SetBytes(payload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(Config{Shards: 1, Metrics: telemetry.NewRegistry(), Events: telemetry.NewEventRing(1024)},
			func() flow.Runner { return m.NewRunner() }, nil)
		for rest := items; len(rest) > 0; {
			k := min(burst.Max, len(rest))
			if err := e.HandleBurst(rest[:k]); err != nil {
				b.Fatal(err)
			}
			rest = rest[k:]
		}
		if err := e.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
