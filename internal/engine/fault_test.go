// Fault-injection tests: every recovery path the engine claims —
// quarantine, crash budget, degradation tiers, deadline shutdown — is
// forced here with internal/faultinject rather than trusted.
package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"matchfilter/internal/faultinject"
	"matchfilter/internal/flow"
	"matchfilter/internal/pcap"
	"matchfilter/internal/trace"
)

// poisonedCapture builds an interleaved capture where exactly one flow
// (index poisonIdx) carries the poison token, and returns the capture
// plus that flow's key (following pcap.Synthesize's addressing scheme).
func poisonedCapture(t *testing.T, nFlows int, words []string, token string, poisonIdx int) ([]byte, pcap.FlowKey) {
	t.Helper()
	payloads := make([][]byte, nFlows)
	for i := range payloads {
		payloads[i] = trace.TextLike(4<<10, int64(500+i*13), words, 0.02)
	}
	// Plant the token mid-payload so the poisoned flow has delivered some
	// clean segments before the fault fires.
	mid := len(payloads[poisonIdx]) / 2
	copy(payloads[poisonIdx][mid:], token)
	var buf bytes.Buffer
	if err := pcap.Synthesize(&buf, payloads, 512, 0.05, 99); err != nil {
		t.Fatal(err)
	}
	key := pcap.FlowKey{
		SrcIP: 0x0a000000 | uint32(poisonIdx+1), DstIP: 0xc0a80101,
		SrcPort: uint16(20000 + poisonIdx), DstPort: 80,
	}
	return buf.Bytes(), key
}

// TestPanicPoisonsOneFlow is the acceptance scenario: a forced matcher
// panic poisons exactly one flow, and every other flow's match set stays
// byte-identical to the sequential scanner's.
func TestPanicPoisonsOneFlow(t *testing.T) {
	m := buildMFA(t, "attack.*payload", "evil[^\n]*string", "xmrig")
	words := []string{"attack", "payload", "evil", "string", "xmrig"}
	const token = "\x00POISON\x00"
	capture, poisonKey := poisonedCapture(t, 10, words, token, 3)

	// Ground truth: sequential scan with clean runners.
	var seq []Match
	_, err := flow.ScanPcap(bytes.NewReader(capture), flow.Config{},
		func() flow.Runner { return m.NewRunner() },
		func(mt flow.Match) { seq = append(seq, mt) })
	if err != nil {
		t.Fatal(err)
	}
	want := flowMatches(seq)
	if len(want) < 2 {
		t.Fatal("need matches on multiple flows for a meaningful test")
	}

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var mu sync.Mutex
			var got []Match
			st, err := ScanPcap(bytes.NewReader(capture), Config{Shards: shards},
				func() flow.Runner { return faultinject.PanicOn([]byte(token), m.NewRunner()) },
				func(mt Match) {
					mu.Lock()
					got = append(got, mt)
					mu.Unlock()
				})
			if err != nil {
				t.Fatal(err)
			}
			if st.PoisonedFlows != 1 {
				t.Fatalf("PoisonedFlows = %d, want 1 (stats %+v)", st.PoisonedFlows, st)
			}
			if st.ShardPanics != 1 {
				t.Errorf("ShardPanics = %d, want 1", st.ShardPanics)
			}
			if st.UnhealthyShards != 0 {
				t.Errorf("one panic must not condemn a shard: %d unhealthy", st.UnhealthyShards)
			}
			if st.PoisonedDrops == 0 {
				t.Errorf("the poisoned flow's later segments should be drop-counted")
			}
			have := flowMatches(got)
			for k, w := range want {
				if k == poisonKey {
					continue
				}
				h := have[k]
				if len(h) != len(w) {
					t.Fatalf("flow %v: %d matches, sequential %d", k, len(h), len(w))
				}
				for i := range w {
					if h[i] != w[i] {
						t.Fatalf("flow %v match %d: engine %q, sequential %q", k, i, h[i], w[i])
					}
				}
			}
			for k := range have {
				if _, ok := want[k]; !ok && k != poisonKey {
					t.Fatalf("engine matched flow %v the sequential scan did not", k)
				}
			}
		})
	}
}

// TestQuarantineIsSticky: after the panic, more segments of the poisoned
// flow are dropped with accounting, without re-entering the matcher.
func TestQuarantineIsSticky(t *testing.T) {
	e := New(Config{Shards: 1}, func() flow.Runner {
		return faultinject.PanicOn([]byte("BAD"), faultinject.Discard)
	}, nil)
	k := pcap.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	segs := []string{"ok1", "BAD", "after1", "after2", "after3"}
	seq := uint32(1)
	for _, p := range segs {
		if err := e.HandleSegment(pcap.Segment{Key: k, Seq: seq, Flags: pcap.FlagACK, Payload: []byte(p)}); err != nil {
			t.Fatal(err)
		}
		seq += uint32(len(p))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.PoisonedFlows != 1 || st.ShardPanics != 1 {
		t.Fatalf("poisoned=%d panics=%d, want 1/1", st.PoisonedFlows, st.ShardPanics)
	}
	if st.PoisonedDrops != 3 {
		t.Errorf("PoisonedDrops = %d, want 3 (the post-poison segments)", st.PoisonedDrops)
	}
	// Accounting identity: every accepted segment is scanned or counted.
	if st.Packets+st.PoisonedDrops != int64(len(segs)) {
		t.Errorf("accounting: scanned %d + poisoned-dropped %d != sent %d",
			st.Packets, st.PoisonedDrops, len(segs))
	}
}

// TestCrashBudget: a shard that keeps panicking is marked unhealthy
// after CrashBudget panics; its traffic is drop-counted and the engine
// survives to Close with exact accounting.
func TestCrashBudget(t *testing.T) {
	e := New(Config{Shards: 1, CrashBudget: 2}, func() flow.Runner {
		return faultinject.PanicOn([]byte("BAD"), faultinject.Discard)
	}, nil)
	mkKey := func(i int) pcap.FlowKey {
		return pcap.FlowKey{SrcIP: uint32(i + 1), DstIP: 99, SrcPort: 1000, DstPort: 80}
	}
	var sent int64
	send := func(i int, payload string, seq uint32) {
		t.Helper()
		if err := e.HandleSegment(pcap.Segment{Key: mkKey(i), Seq: seq, Flags: pcap.FlagACK, Payload: []byte(payload)}); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	send(0, "BAD", 1) // panic 1: flow 0 quarantined
	send(1, "BAD", 1) // panic 2: flow 1 quarantined, budget exhausted
	for i := 0; i < 5; i++ {
		send(2, "clean traffic", uint32(1+13*i)) // lands on an unhealthy shard
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.UnhealthyShards != 1 {
		t.Fatalf("UnhealthyShards = %d, want 1 (stats %+v)", st.UnhealthyShards, st)
	}
	if st.PoisonedFlows != 2 || st.ShardPanics != 2 {
		t.Errorf("poisoned=%d panics=%d, want 2/2", st.PoisonedFlows, st.ShardPanics)
	}
	if st.UnhealthyDrops != 5 {
		t.Errorf("UnhealthyDrops = %d, want 5", st.UnhealthyDrops)
	}
	if got := st.Packets + st.PoisonedDrops + st.UnhealthyDrops; got != sent {
		t.Errorf("accounting: %d accounted != %d sent", got, sent)
	}
}

// TestCloseContextDeadline is the acceptance scenario for deadline
// shutdown: with a shard wedged mid-Feed, CloseContext returns promptly
// with ctx.Err() and accurate per-shard drain progress instead of
// hanging; releasing the wedge lets a later Close finish the drain.
func TestCloseContextDeadline(t *testing.T) {
	gate := make(chan struct{})
	e := New(Config{Shards: 1, QueueDepth: 16, SoftWatermark: 1.1, HardWatermark: 1.2},
		func() flow.Runner { return faultinject.Stall(gate, faultinject.Discard) }, nil)
	k := pcap.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	const total = 8
	for i := 0; i < total; i++ {
		if err := e.HandleSegment(pcap.Segment{Key: k, Seq: uint32(1 + i), Flags: pcap.FlagACK, Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := e.CloseContext(ctx)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("CloseContext succeeded with a wedged shard")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("CloseContext took %v, expected prompt return", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
	var sderr *ShutdownError
	if !errors.As(err, &sderr) {
		t.Fatalf("error %T is not *ShutdownError", err)
	}
	if len(sderr.Progress) != 1 {
		t.Fatalf("progress for %d shards, want 1", len(sderr.Progress))
	}
	p := sderr.Progress[0]
	if p.Done {
		t.Error("wedged shard reported Done")
	}
	// The shard consumed the first segment (wedged inside Feed); the rest
	// must still be visible as queued work.
	if p.Processed != 1 || p.Queued != total-1 {
		t.Errorf("drain progress processed=%d queued=%d, want 1/%d", p.Processed, p.Queued, total-1)
	}

	// Intake must already be fenced even though the drain is incomplete.
	if err := e.HandleSegment(pcap.Segment{Key: k, Seq: 99, Flags: pcap.FlagACK, Payload: []byte("x")}); err != ErrClosed {
		t.Fatalf("HandleSegment during wedged shutdown: %v, want ErrClosed", err)
	}

	close(gate) // unwedge
	if err := e.Close(); err != nil {
		t.Fatalf("Close after unwedge: %v", err)
	}
	st := e.Stats()
	if st.Packets != total {
		t.Errorf("Packets = %d after full drain, want %d", st.Packets, total)
	}
	for _, d := range e.DrainProgress() {
		if !d.Done || d.Queued != 0 {
			t.Errorf("shard %d not fully drained: %+v", d.Shard, d)
		}
	}
}

// TestDegradationLadder drives the engine through normal → hard and back:
// a wedged shard fills its queue, the hard watermark flips dispatch into
// drop-with-accounting (even under the backpressure policy, so the
// producer is never stranded), and draining steps the ladder back down.
func TestDegradationLadder(t *testing.T) {
	gate := make(chan struct{})
	e := New(Config{Shards: 1, QueueDepth: 8},
		func() flow.Runner { return faultinject.Stall(gate, faultinject.Discard) }, nil)
	k := pcap.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	const total = 40
	seg := func(i int) pcap.Segment {
		return pcap.Segment{Key: k, Seq: uint32(1 + i), Flags: pcap.FlagACK, Payload: []byte("x")}
	}
	// Wedge the shard on the first segment before the flood, so what
	// follows fills the queue rather than riding into the stalled window.
	if err := e.HandleSegment(seg(0)); err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, e, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i < total; i++ {
			if err := e.HandleSegment(seg(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("producer stranded: hard tier did not engage on a full queue")
	}
	st := e.Stats()
	if st.Tier != TierHard {
		t.Fatalf("Tier = %v with a wedged full queue, want hard", st.Tier)
	}
	if st.HardDrops == 0 {
		t.Fatal("no HardDrops recorded")
	}
	if st.TierEnters[TierHard] == 0 {
		t.Error("hard entry not counted")
	}

	close(gate)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Tier != TierNormal {
		t.Errorf("Tier = %v after drain, want normal (pressure receded)", st.Tier)
	}
	if st.TierTime[TierHard] <= 0 {
		t.Errorf("no time accounted to the hard tier: %+v", st.TierTime)
	}
	if got := st.Packets + st.HardDrops + st.QueueDrops; got != total {
		t.Errorf("accounting: scanned %d + hard %d + queue %d != sent %d",
			st.Packets, st.HardDrops, st.QueueDrops, total)
	}
}

// TestSoftTierDegradesAndRecovers: soft watermark shrinks reassembly
// buffers and steps back to normal with hysteresis once pressure
// recedes, with every segment still scanned (no drops at soft).
func TestSoftTierDegradesAndRecovers(t *testing.T) {
	gate := make(chan struct{})
	e := New(Config{Shards: 1, QueueDepth: 8, SoftWatermark: 0.5, HardWatermark: 0.95},
		func() flow.Runner { return faultinject.Stall(gate, faultinject.Discard) }, nil)
	k := pcap.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	const total = 6 // fills to 5/8 = 0.625: above soft, below hard
	for i := 0; i < total; i++ {
		if err := e.HandleSegment(pcap.Segment{Key: k, Seq: uint32(1 + i), Flags: pcap.FlagACK, Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			waitProcessed(t, e, 1) // the shard is wedged; the rest queue behind it
		}
	}
	if st := e.Stats(); st.Tier != TierSoft {
		t.Fatalf("Tier = %v at 0.625 occupancy, want soft", st.Tier)
	}
	close(gate)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Tier != TierNormal {
		t.Errorf("Tier = %v after drain, want normal", st.Tier)
	}
	if st.Packets != total || st.HardDrops != 0 || st.QueueDrops != 0 {
		t.Errorf("soft tier must scan everything: %+v", st)
	}
	if st.TierEnters[TierSoft] == 0 || st.TierTime[TierSoft] <= 0 {
		t.Errorf("soft transition not accounted: enters=%v time=%v", st.TierEnters, st.TierTime)
	}
}

// TestMangledCaptureEquivalence wires the wire-fault injector into both
// scanning paths: the same deterministic schedule of truncated,
// corrupted, reordered, and dropped frames must leave the sharded engine
// and the sequential scanner with identical per-flow match sets — fault
// handling must not depend on which path sees the damage.
func TestMangledCaptureEquivalence(t *testing.T) {
	m := buildMFA(t, "attack.*payload", "needle")
	capture := interleavedCapture(t, 8, 4<<10, []string{"attack", "payload", "needle"})

	// Mangle once; feed the identical frame list to both paths.
	pr, err := pcap.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Config{
		Seed: 11, TruncateProb: 0.05, CorruptProb: 0.05, ReorderProb: 0.1, DropProb: 0.02,
	})
	var frames [][]byte
	for {
		pkt, err := pr.Next()
		if err != nil {
			break
		}
		frames = append(frames, inj.Frame(pkt.Data)...)
	}
	frames = append(frames, inj.Flush()...)
	if st := inj.Stats(); st.Truncated == 0 || st.Corrupted == 0 {
		t.Fatalf("schedule applied no wire faults: %+v", st)
	}

	var seq []Match
	asm := flow.NewAssembler(flow.Config{}, func() flow.Runner { return m.NewRunner() },
		func(mt flow.Match) { seq = append(seq, mt) })
	for _, f := range frames {
		_ = asm.HandleFrame(f) // lenient: skip malformed, as mfaserve does
	}
	want := flowMatches(seq)

	var mu sync.Mutex
	var got []Match
	e := New(Config{Shards: 4}, func() flow.Runner { return m.NewRunner() },
		func(mt Match) {
			mu.Lock()
			got = append(got, mt)
			mu.Unlock()
		})
	for _, f := range frames {
		_ = e.HandleFrame(f)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if !equalFlowMatches(want, flowMatches(got)) {
		t.Errorf("per-flow matches diverge on a mangled capture: seq %d, engine %d", len(seq), len(got))
	}
}
