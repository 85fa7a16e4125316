package engine

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"

	"matchfilter/internal/core"
	"matchfilter/internal/flow"
	"matchfilter/internal/pcap"
	"matchfilter/internal/regexparse"
	"matchfilter/internal/trace"
)

func buildMFA(t testing.TB, sources ...string) *core.MFA {
	t.Helper()
	rules := make([]core.Rule, len(sources))
	for i, src := range sources {
		p, err := regexparse.ParsePCRE(src)
		if err != nil {
			t.Fatal(err)
		}
		rules[i] = core.Rule{Pattern: p, ID: int32(i + 1)}
	}
	m, err := core.Compile(rules, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// interleavedCapture synthesizes a pcap of nFlows streams salted with the
// pattern literals, with reordering, so reassembly and matching are both
// exercised.
func interleavedCapture(t testing.TB, nFlows, flowBytes int, words []string) []byte {
	t.Helper()
	payloads := make([][]byte, nFlows)
	for i := range payloads {
		payloads[i] = trace.TextLike(flowBytes, int64(1000+i*37), words, 0.02)
	}
	var buf bytes.Buffer
	if err := pcap.Synthesize(&buf, payloads, 512, 0.05, 42); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// flowMatches groups matches by flow and sorts each flow's matches, the
// canonical form for equivalence: per-flow order is guaranteed, global
// interleaving is not.
func flowMatches(ms []Match) map[pcap.FlowKey][]string {
	out := make(map[pcap.FlowKey][]string)
	for _, m := range ms {
		out[m.Flow] = append(out[m.Flow], fmt.Sprintf("%d@%d", m.ID, m.Pos))
	}
	for _, v := range out {
		sort.Strings(v)
	}
	return out
}

func equalFlowMatches(a, b map[pcap.FlowKey][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || len(va) != len(vb) {
			return false
		}
		for i := range va {
			if va[i] != vb[i] {
				return false
			}
		}
	}
	return true
}

// TestShardedEquivalence is the core soundness claim: for every shard
// count, the sharded engine produces exactly the sequential scanner's
// per-flow match sets on an interleaved multi-flow capture.
func TestShardedEquivalence(t *testing.T) {
	m := buildMFA(t, "attack.*payload", "evil[^\n]*string", "xmrig")
	capture := interleavedCapture(t, 12, 8<<10, []string{"attack", "payload", "evil", "string", "xmrig"})

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
	want := flowMatches(seq)

	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var mu sync.Mutex
			var got []Match
			st, err := ScanPcap(bytes.NewReader(capture), Config{Shards: shards},
				func() flow.Runner { return m.NewRunner() },
				func(mt Match) {
					mu.Lock()
					got = append(got, mt)
					mu.Unlock()
				})
			if err != nil {
				t.Fatal(err)
			}
			if !equalFlowMatches(want, flowMatches(got)) {
				t.Errorf("per-flow matches diverge from sequential scan\nseq: %d matches, engine: %d", len(seq), len(got))
			}
			if st.PayloadBytes != seqStats.PayloadBytes {
				t.Errorf("payload bytes: engine %d, sequential %d", st.PayloadBytes, seqStats.PayloadBytes)
			}
			if st.Matches != int64(len(got)) {
				t.Errorf("Stats.Matches = %d, delivered %d", st.Matches, len(got))
			}
			if st.Packets != seqStats.Packets {
				t.Errorf("packets: engine %d, sequential %d", st.Packets, seqStats.Packets)
			}
		})
	}
}

// TestConcurrentProducers drives one engine from many goroutines at once
// (the -race test backing the engine's concurrent-dispatch contract):
// each producer feeds disjoint flows, and every flow's matches must equal
// a sequential scan of its payload.
func TestConcurrentProducers(t *testing.T) {
	m := buildMFA(t, "aa.*zz", "needle")
	const producers = 8
	const segsPerFlow = 32

	// Build per-producer segment lists up front (one flow per producer).
	type flowInput struct {
		key  pcap.FlowKey
		segs []pcap.Segment
		data []byte
	}
	inputs := make([]flowInput, producers)
	for i := range inputs {
		data := trace.TextLike(segsPerFlow*64, int64(i*131+7), []string{"aa", "zz", "needle"}, 0.05)
		k := pcap.FlowKey{SrcIP: 0x0a00000a + uint32(i), DstIP: 2, SrcPort: uint16(40000 + i), DstPort: 80}
		var segs []pcap.Segment
		for off := 0; off < len(data); off += 64 {
			end := off + 64
			if end > len(data) {
				end = len(data)
			}
			segs = append(segs, pcap.Segment{
				Key: k, Seq: uint32(1 + off), Flags: pcap.FlagACK, Payload: data[off:end],
			})
		}
		inputs[i] = flowInput{key: k, segs: segs, data: data}
	}

	var mu sync.Mutex
	got := make(map[pcap.FlowKey][]string)
	e := New(Config{Shards: 4}, func() flow.Runner { return m.NewRunner() }, func(mt Match) {
		mu.Lock()
		got[mt.Flow] = append(got[mt.Flow], fmt.Sprintf("%d@%d", mt.ID, mt.Pos))
		mu.Unlock()
	})

	var wg sync.WaitGroup
	for i := range inputs {
		wg.Add(1)
		go func(in flowInput) {
			defer wg.Done()
			for _, seg := range in.segs {
				if err := e.HandleSegment(seg); err != nil {
					t.Error(err)
					return
				}
			}
		}(inputs[i])
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	for _, in := range inputs {
		var want []string
		r := m.NewRunner()
		r.Feed(in.data, func(id int32, pos int64) {
			want = append(want, fmt.Sprintf("%d@%d", id, pos))
		})
		sort.Strings(want)
		have := got[in.key]
		sort.Strings(have)
		if len(want) != len(have) {
			t.Fatalf("flow %v: engine %d matches, sequential %d", in.key, len(have), len(want))
		}
		for j := range want {
			if want[j] != have[j] {
				t.Fatalf("flow %v match %d: engine %q, sequential %q", in.key, j, have[j], want[j])
			}
		}
	}
}

// TestCloseSemantics: Close drains, is idempotent, and fails intake
// afterwards.
func TestCloseSemantics(t *testing.T) {
	m := buildMFA(t, "ab")
	e := New(Config{Shards: 2}, func() flow.Runner { return m.NewRunner() }, nil)
	seg := pcap.Segment{
		Key: pcap.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4},
		Seq: 1, Flags: pcap.FlagACK, Payload: []byte("ab"),
	}
	if err := e.HandleSegment(seg); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.HandleSegment(seg); err != ErrClosed {
		t.Fatalf("HandleSegment after Close: %v, want ErrClosed", err)
	}
	// After Close the snapshot is exact: the one segment was scanned.
	if st := e.Stats(); st.Packets != 1 || st.PayloadBytes != 2 || st.QueueDepth != 0 {
		t.Errorf("stats after close: %+v", st)
	}
}

// blockingRunner lets the test stall a shard to observe queue behavior.
type blockingRunner struct{ gate chan struct{} }

func (r *blockingRunner) Feed(data []byte, onMatch func(int32, int64)) { <-r.gate }
func (r *blockingRunner) Reset()                                       {}

// TestDropWhenFull verifies explicit drop accounting under overload: with
// the shard stalled, a bounded queue overflows into QueueDrops and no
// segment is silently lost from the books. Watermarks above 1.0 keep the
// degradation ladder out of the way so the overflow path itself is
// exercised (the ladder's own drops are covered in fault_test.go).
func TestDropWhenFull(t *testing.T) {
	gate := make(chan struct{})
	e := New(Config{Shards: 1, QueueDepth: 4, DropWhenFull: true,
		SoftWatermark: 1.1, HardWatermark: 1.2},
		func() flow.Runner { return &blockingRunner{gate: gate} }, nil)
	k := pcap.FlowKey{SrcIP: 9, DstIP: 8, SrcPort: 7, DstPort: 6}
	const total = 32
	for i := 0; i < total; i++ {
		seg := pcap.Segment{Key: k, Seq: uint32(1 + i), Flags: pcap.FlagACK, Payload: []byte("x")}
		if err := e.HandleSegment(seg); err != nil {
			t.Fatal(err)
		}
	}
	close(gate) // release the shard
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.QueueDrops == 0 {
		t.Fatal("expected drops with a stalled shard and a 4-deep queue")
	}
	if st.Packets+st.QueueDrops != total {
		t.Errorf("accounting: processed %d + dropped %d != sent %d", st.Packets, st.QueueDrops, total)
	}
}

// TestIdleSweep verifies shards run the idle eviction policy.
func TestIdleSweep(t *testing.T) {
	m := buildMFA(t, "x")
	e := New(Config{Shards: 1, IdleAfter: 8},
		func() flow.Runner { return m.NewRunner() }, nil)
	quiet := pcap.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	busy := pcap.FlowKey{SrcIP: 5, DstIP: 6, SrcPort: 7, DstPort: 8}
	if err := e.HandleSegment(pcap.Segment{Key: quiet, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("y")}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := e.HandleSegment(pcap.Segment{Key: busy, Seq: uint32(1 + i), Flags: pcap.FlagACK, Payload: []byte("y")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.EvictedIdle == 0 {
		t.Errorf("idle flow not swept: %+v", st)
	}
	if st.FlowsLive != 1 {
		t.Errorf("busy flow should survive: %+v", st)
	}
}

// TestShardAffinity pins the routing invariant: every segment of a key
// lands on the same shard, and the hash spreads distinct keys — even the
// *sequential* client addresses and ports real traffic (and the trace
// synthesizer) produces, whose correlated low bits defeat a bare
// FNV-mod-N (the regression the avalanche finalizer fixes).
func TestShardAffinity(t *testing.T) {
	patterns := map[string]func(i int) pcap.FlowKey{
		"scattered": func(i int) pcap.FlowKey {
			return pcap.FlowKey{SrcIP: uint32(i * 2654435761), DstIP: 0xc0a80101, SrcPort: uint16(i), DstPort: 443}
		},
		// The synthesizer's shape: 10.0.0.i clients, ports 20000+i.
		"sequential": func(i int) pcap.FlowKey {
			return pcap.FlowKey{SrcIP: 0x0a000000 | uint32(i+1), DstIP: 0xc0a80101, SrcPort: uint16(20000 + i), DstPort: 80}
		},
	}
	for name, mk := range patterns {
		t.Run(name, func(t *testing.T) {
			for _, shards := range []int{2, 4, 8} {
				counts := make(map[int]int)
				for i := 0; i < 1024; i++ {
					k := mk(i)
					idx := shardIndex(k, shards)
					if again := shardIndex(k, shards); again != idx {
						t.Fatalf("unstable shard index for %v: %d then %d", k, idx, again)
					}
					counts[idx]++
				}
				if len(counts) != shards {
					t.Errorf("n=%d: 1024 distinct keys hit only %d shards: %v", shards, len(counts), counts)
				}
				for idx, n := range counts {
					if n < 1024/shards/4 {
						t.Errorf("n=%d: shard %d badly underloaded: %d/1024 keys", shards, idx, n)
					}
				}
			}
		})
	}
}
