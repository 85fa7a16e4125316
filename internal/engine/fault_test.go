// Fault-injection tests: every recovery path the engine claims —
// quarantine, crash budget, degradation tiers, deadline shutdown — is
// forced here with internal/faultinject rather than trusted.
package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
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

// TestCrashBudget: a shard that keeps panicking stays healthy through
// crashBudget-1 panics and is marked unhealthy by the crashBudget-th;
// its traffic is then drop-counted and the engine survives to Close with
// exact accounting.
func TestCrashBudget(t *testing.T) {
	e := New(Config{Shards: 1}, func() flow.Runner {
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
	for i := 0; i < crashBudget-1; i++ {
		send(i, "BAD", 1) // one panic each: flow i quarantined
	}
	waitStats(t, e, "one panic short of the budget", func(st Stats) bool { return st.ShardPanics == crashBudget-1 })
	if st := e.Stats(); st.UnhealthyShards != 0 {
		t.Fatalf("unhealthy after %d panics, budget %d (stats %+v)", st.ShardPanics, crashBudget, st)
	}
	for i := 0; i < 3; i++ {
		send(100, "clean traffic", uint32(1+13*i)) // scanned by the still-healthy shard
	}
	send(crashBudget-1, "BAD", 1) // the last panic: budget exhausted
	for i := 0; i < 5; i++ {
		send(101, "clean traffic", uint32(1+13*i)) // lands on an unhealthy shard
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.UnhealthyShards != 1 {
		t.Fatalf("UnhealthyShards = %d, want 1 (stats %+v)", st.UnhealthyShards, st)
	}
	if st.PoisonedFlows != crashBudget || st.ShardPanics != crashBudget {
		t.Errorf("poisoned=%d panics=%d, want %d/%d", st.PoisonedFlows, st.ShardPanics, crashBudget, crashBudget)
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

	// A deadline already past once the shard is wedged inside Feed: the
	// drain cannot finish, and CloseContext must not wait for it.
	waitProcessed(t, e, 1)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now())
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

// dial is a test-set Config.MemPressure: the ladder's one signal, moved
// by hand.
type dial struct{ bits atomic.Uint64 }

func (d *dial) set(p float64) { d.bits.Store(math.Float64bits(p)) }
func (d *dial) read() float64 { return math.Float64frombits(d.bits.Load()) }

// TestDegradationLadder drives the engine through normal → hard and back
// on governed memory alone: at hard pressure a drop-policy engine sheds at
// dispatch with accounting, a backpressured one sheds nothing (the
// governor's Admit gate holds its producers), and once pressure recedes
// the next dispatch steps the ladder back down.
func TestDegradationLadder(t *testing.T) {
	const total = 40
	k1 := pcap.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	k2 := pcap.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 5}
	for _, drop := range []bool{true, false} {
		t.Run(fmt.Sprintf("DropWhenFull=%t", drop), func(t *testing.T) {
			var mem dial
			mem.set(1)
			e := New(Config{Shards: 1, QueueDepth: 2 * total, DropWhenFull: drop, MemPressure: mem.read},
				func() flow.Runner { return faultinject.Discard }, nil)
			for _, seg := range segsOn(k1, total) {
				if err := e.HandleSegment(seg); err != nil {
					t.Fatal(err)
				}
			}
			st := e.Stats()
			if st.Tier != TierHard || st.TierEnters[TierHard] != 1 {
				t.Fatalf("Tier = %v, hard entries %d at pressure 1, want hard, 1", st.Tier, st.TierEnters[TierHard])
			}
			wantShed := int64(0)
			if drop {
				wantShed = total
			}
			if st.HardDrops != wantShed {
				t.Fatalf("HardDrops = %d at the hard tier, want %d", st.HardDrops, wantShed)
			}

			mem.set(0)
			for _, seg := range segsOn(k2, total) {
				if err := e.HandleSegment(seg); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			st = e.Stats()
			if st.Tier != TierNormal {
				t.Errorf("Tier = %v after pressure receded, want normal", st.Tier)
			}
			if st.TierTime[TierHard] <= 0 {
				t.Errorf("no time accounted to the hard tier: %+v", st.TierTime)
			}
			if st.HardDrops != wantShed || st.QueueDrops != 0 || st.Packets != 2*total-wantShed {
				t.Errorf("scanned %d, hard %d, queue %d of %d sent; want %d hard, no queue drops",
					st.Packets, st.HardDrops, st.QueueDrops, 2*total, wantShed)
			}
		})
	}
}

// TestTierTimeOnEngineClock: the ladder times its tiers on the engine's
// clock, so TierTime reads exactly the manual clock's steps, the open
// tier's share included.
func TestTierTimeOnEngineClock(t *testing.T) {
	clk := useManualClock(t)
	var mem dial
	e := New(Config{Shards: 1, MemPressure: mem.read}, func() flow.Runner { return faultinject.Discard }, nil)
	defer e.Close()
	clk.Advance(2 * time.Second)
	mem.set(1)
	e.evalPressure()
	clk.Advance(3 * time.Second)
	if st := e.Stats(); st.Tier != TierHard || st.TierTime != [3]time.Duration{2 * time.Second, 0, 3 * time.Second} {
		t.Fatalf("Tier %v, TierTime %v; want hard, [2s 0s 3s]", st.Tier, st.TierTime)
	}
	mem.set(0)
	e.evalPressure()
	clk.Advance(time.Second)
	if st := e.Stats(); st.Tier != TierNormal || st.TierTime != [3]time.Duration{3 * time.Second, 0, 3 * time.Second} {
		t.Fatalf("Tier %v, TierTime %v; want normal, [3s 0s 3s]", st.Tier, st.TierTime)
	}
}

// TestSoftTierDegradesAndRecovers: pressure between the watermarks puts
// the engine at the soft tier, which scans every segment, and the shard
// itself steps the ladder back down once its queue runs dry — no dispatch
// needed. The test's governed memory is the payload dispatched and not
// yet scanned, so draining the queue is what makes pressure recede.
func TestSoftTierDegradesAndRecovers(t *testing.T) {
	const total, ceiling = 6, 10 // 6 of 10 bytes held: above soft (0.5), below hard
	var held atomic.Int64
	e := New(Config{Shards: 1, MemPressure: func() float64 { return float64(held.Load()) / ceiling }},
		func() flow.Runner { return drainRunner{&held} }, nil)
	k := pcap.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	held.Add(total)
	items, _ := leased(segsOn(k, total))
	if err := e.HandleBurst(items); err != nil {
		t.Fatal(err)
	}
	st := waitStats(t, e, "the drained shard to step the ladder down", func(st Stats) bool {
		return st.Tier == TierNormal && st.TierEnters[TierSoft] > 0
	})
	if st.TierEnters[TierHard] != 0 || st.TierTime[TierSoft] <= 0 {
		t.Errorf("soft transition not accounted: enters=%v time=%v", st.TierEnters, st.TierTime)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Packets != total || st.HardDrops != 0 || st.QueueDrops != 0 {
		t.Errorf("soft tier must scan everything: %+v", st)
	}
}

// drainRunner withdraws what it scans from held.
type drainRunner struct{ held *atomic.Int64 }

func (r drainRunner) Feed(data []byte, onMatch func(int32, int64)) { r.held.Add(-int64(len(data))) }
func (drainRunner) Reset()                                         {}

// TestBackpressureFloodLosesNothing: a shallow queue kept full by a
// producer that outruns its shard is backpressure doing its job, not
// overload. Every segment is scanned and the ladder never sheds.
func TestBackpressureFloodLosesNothing(t *testing.T) {
	e := New(Config{Shards: 1, QueueDepth: 8}, func() flow.Runner { return slowRunner{} }, nil)
	k := pcap.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	const sent = 2000
	items, _ := leased(segsOn(k, sent))
	for len(items) > 0 { // bursts of three: the queue fills at every phase of a burst
		n := min(3, len(items))
		if err := e.HandleBurst(items[:n]); err != nil {
			t.Fatal(err)
		}
		items = items[n:]
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Packets != sent || st.HardDrops != 0 || st.Tier != TierNormal {
		t.Errorf("scanned %d of %d, HardDrops %d, Tier %v; want all scanned, none shed, normal",
			st.Packets, sent, st.HardDrops, st.Tier)
	}
}

// slowRunner scans slower than a producer sends: its sleep models slow
// work, not a wait for a timer.
type slowRunner struct{}

func (slowRunner) Feed(data []byte, onMatch func(int32, int64)) { time.Sleep(10 * time.Microsecond) }
func (slowRunner) Reset()                                       {}

// TestFlowCapIsNotPressure: a full flow table evicts LRU by itself; it is
// not overload. Sixty-four round-robin flows thrash a 4-flow table, and
// every segment is still scanned at the normal tier.
func TestFlowCapIsNotPressure(t *testing.T) {
	e := New(Config{Shards: 1, MaxFlows: 4}, func() flow.Runner { return nopRunner{} }, nil)
	const flows, rounds = 64, 8
	for r := 0; r < rounds; r++ {
		for f := 0; f < flows; f++ {
			seg := pcap.Segment{Key: pcap.FlowKey{SrcIP: uint32(f), DstIP: 2, SrcPort: 3, DstPort: 4},
				Seq: uint32(1 + r), Flags: pcap.FlagACK, Payload: []byte("x")}
			if err := e.HandleSegment(seg); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.EvictedCap == 0 || st.HardDrops != 0 || st.Packets != flows*rounds || st.Tier != TierNormal {
		t.Errorf("EvictedCap %d, HardDrops %d, scanned %d of %d, Tier %v; want evictions, none shed, all scanned, normal",
			st.EvictedCap, st.HardDrops, st.Packets, flows*rounds, st.Tier)
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
