package engine

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"matchfilter/internal/core"
	"matchfilter/internal/faultinject"
	"matchfilter/internal/flow"
	"matchfilter/internal/pcap"
)

// everyByte is 256 one-byte rules, \x00 … \xff: every byte value is its
// own class, so the automaton walks 256 columns under the identity map.
func everyByte() []string {
	srcs := make([]string, 256)
	for b := range srcs {
		srcs[b] = fmt.Sprintf(`\x%02x`, b)
	}
	return srcs
}

// TestShardedLayoutEquivalence extends the core soundness claim across
// table widths — a class quotient, and the 256 columns of everyByte — and
// shard counts: per-flow match sets are byte-identical to the sequential
// scanner's, and no payload is lost at close (the final lockstep window
// flushes before the shard exits).
func TestShardedLayoutEquivalence(t *testing.T) {
	capture := interleavedCapture(t, 12, 8<<10, []string{"attack", "payload", "evil", "string", "xmrig"})
	for _, row := range []struct {
		name    string
		sources []string
	}{
		{"classed", []string{"attack.*payload", "evil[^\n]*string", "xmrig"}},
		{"everyByte", everyByte()},
	} {
		m := buildMFA(t, row.sources...)
		var seq []Match
		seqStats, err := flow.ScanPcap(bytes.NewReader(capture), flow.Config{},
			func() flow.Runner { return m.NewRunner() },
			func(mt flow.Match) { seq = append(seq, mt) })
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) == 0 {
			t.Fatalf("%s: capture produced no matches; test would be vacuous", row.name)
		}
		want := flowMatches(seq)
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", row.name, shards), func(t *testing.T) {
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
					t.Errorf("per-flow matches diverge from sequential scan (seq %d, engine %d)", len(seq), len(got))
				}
				if st.PayloadBytes != seqStats.PayloadBytes {
					t.Errorf("payload bytes: engine %d, sequential %d", st.PayloadBytes, seqStats.PayloadBytes)
				}
			})
		}
	}
}

// TestBatchedInlineFallback checks that the engine still serves
// runners the batcher cannot lockstep (fault-injection decorators are
// not *core.Runner): they fall back to scan-on-arrival and their flows'
// match sets stay exact.
func TestBatchedInlineFallback(t *testing.T) {
	m := buildMFA(t, "attack.*payload", "xmrig")
	capture := interleavedCapture(t, 6, 4<<10, []string{"attack", "payload", "xmrig"})

	var seq []Match
	_, err := flow.ScanPcap(bytes.NewReader(capture), flow.Config{},
		func() flow.Runner { return m.NewRunner() },
		func(mt flow.Match) { seq = append(seq, mt) })
	if err != nil {
		t.Fatal(err)
	}
	want := flowMatches(seq)

	var mu sync.Mutex
	var got []Match
	_, err = ScanPcap(bytes.NewReader(capture), Config{Shards: 2},
		// PanicOn with an absent token is a pass-through decorator: it
		// never fires, but it hides the *core.Runner from the batcher.
		func() flow.Runner { return faultinject.PanicOn([]byte("\x00NEVER\x00"), m.NewRunner()) },
		func(mt Match) {
			mu.Lock()
			got = append(got, mt)
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	if !equalFlowMatches(want, flowMatches(got)) {
		t.Error("inline-fallback matches diverge from sequential scan")
	}
}

// TestBatchedCallbackPanicQuarantinesOneFlow forces a panic inside a
// match callback during a lockstep flush: the engine must quarantine
// exactly the flow whose callback panicked (attributed through the
// batcher's dead list) and keep every other flow's match set intact.
func TestBatchedCallbackPanicQuarantinesOneFlow(t *testing.T) {
	sources := []string{"attack.*payload", "evil[^\n]*string", "xmrig"}
	words := []string{"attack", "payload", "evil", "string", "xmrig"}
	capture, poisonKey := poisonedCapture(t, 10, words, "xmrig", 3)
	m := buildMFA(t, sources...)

	var seq []Match
	_, err := flow.ScanPcap(bytes.NewReader(capture), flow.Config{},
		func() flow.Runner { return m.NewRunner() },
		func(mt flow.Match) { seq = append(seq, mt) })
	if err != nil {
		t.Fatal(err)
	}
	want := flowMatches(seq)
	if len(want[poisonKey]) == 0 {
		t.Fatal("poisoned flow has no matches; panic would never fire")
	}

	var mu sync.Mutex
	var got []Match
	st, err := ScanPcap(bytes.NewReader(capture), Config{Shards: 2},
		func() flow.Runner { return m.NewRunner() },
		func(mt Match) {
			if mt.Flow == poisonKey {
				panic("hostile match handler")
			}
			mu.Lock()
			got = append(got, mt)
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	if st.PoisonedFlows != 1 {
		t.Fatalf("PoisonedFlows = %d, want 1", st.PoisonedFlows)
	}
	gm := flowMatches(got)
	for k, v := range want {
		if k == poisonKey {
			continue
		}
		if fmt.Sprint(gm[k]) != fmt.Sprint(v) {
			t.Fatalf("clean flow %v lost matches after sibling's callback panic", k)
		}
	}
	if _, hit := gm[poisonKey]; hit {
		// Matches before the first panic were delivered... but the panic
		// fires on the flow's first match, so none should have landed.
		t.Fatalf("poisoned flow delivered matches: %v", gm[poisonKey])
	}
}

// TestWindowQuarantinesEveryDeadLane holds a shard until sixteen flows'
// segments are queued, so that they form one K = 16 lockstep window, in
// which three flows' match handlers panic. The window's panic is counted
// once, all three flows — not just the first to die — are quarantined
// and excised, and the other thirteen flows' match streams are exactly
// the sequential scanner's.
func TestWindowQuarantinesEveryDeadLane(t *testing.T) {
	m := buildMFA(t, "attack.*payload", "xmrig")
	h := newHeldWindow()
	hostile := map[pcap.FlowKey]bool{}
	var got []Match
	e := New(Config{Shards: 1, QueueDepth: 64},
		func() flow.Runner { return m.NewRunner() },
		func(mt Match) { // one shard: the handler runs on one goroutine
			h.hold(mt)
			if hostile[mt.Flow] {
				panic("hostile match handler")
			}
			got = append(got, mt)
		})
	var segs []pcap.Segment
	want := map[pcap.FlowKey][]string{}
	for i := 0; i < core.MaxBatchFlows; i++ {
		k := pcap.FlowKey{SrcIP: 0x0a000001 + uint32(i), DstIP: 0xc0a80101, SrcPort: 20000, DstPort: 80}
		payload := fmt.Sprintf("%sxmrig then attack, then payload %d", strings.Repeat(".", 3*i), i)
		segs = append(segs, pcap.Segment{Key: k, Seq: 1, Flags: pcap.FlagACK, Payload: []byte(payload)})
		if i == 1 || i == 6 || i == 12 { // first match in strips 1, 2 and 5
			hostile[k] = true
			continue
		}
		for _, ev := range m.Run([]byte(payload)) {
			want[k] = append(want[k], fmt.Sprintf("%d@%d", ev.RuleID, ev.Pos))
		}
	}
	h.run(t, e, "xmrig", segs)
	waitStats(t, e, "the window's quarantines", func(st Stats) bool { return st.PoisonedFlows == 3 })
	// Later segments of the dead flows are dropped, not scanned on a
	// runner one window behind.
	for k := range hostile {
		if err := e.HandleSegment(pcap.Segment{Key: k, Seq: 100, Flags: pcap.FlagACK, Payload: []byte("xmrig")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.PoisonedFlows != 3 || st.ShardPanics != 1 || st.PoisonedDrops != 3 || st.FlowsLive != 14 {
		t.Fatalf("PoisonedFlows %d, ShardPanics %d, PoisonedDrops %d, FlowsLive %d; want 3, 1, 3, 14",
			st.PoisonedFlows, st.ShardPanics, st.PoisonedDrops, st.FlowsLive)
	}
	for k := range hostile {
		if _, ok := e.shards[0].quarantined[k]; !ok {
			t.Errorf("dead flow %v not quarantined", k)
		}
	}
	gm := flowMatches(got)
	delete(gm, h.key)
	for k, v := range want {
		sort.Strings(v)
		if fmt.Sprint(gm[k]) != fmt.Sprint(v) {
			t.Errorf("flow %v: matches %v, sequential %v", k, gm[k], v)
		}
	}
	if len(gm) != len(want) {
		t.Errorf("%d flows delivered matches, want %d", len(gm), len(want))
	}
}

// TestMidWindowLifecycleFlushIsSupervised: a window's deferred scans can
// also be flushed by what step does between segments — an idle sweep
// evicting a batched flow, a hot reload landing mid-window — and a match
// handler that panics in such a flush must cost its one flow, exactly as
// in the window's own flush: one recovered panic, one quarantine, every
// other flow's matches delivered, and the swap still applied.
func TestMidWindowLifecycleFlushIsSupervised(t *testing.T) {
	m := buildMFA(t, "xmrig")
	key := func(i int) pcap.FlowKey {
		return pcap.FlowKey{SrcIP: 0x0a000001 + uint32(i), DstIP: 0xc0a80101, SrcPort: 20000, DstPort: 80}
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		reload bool
	}{
		{"idle sweep", Config{Shards: 1, QueueDepth: 64, IdleAfter: 1}, false},
		{"reload", Config{Shards: 1, QueueDepth: 64}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHeldWindow()
			hostile, trigger := key(2), key(5)
			var e *Engine
			got := map[pcap.FlowKey]int{}
			made := 0
			e = New(tc.cfg,
				func() flow.Runner { // one shard: flows get their runners in arrival order
					if made++; tc.reload && made == 7 {
						// The trigger flow (after the parking flow and key(0..4)):
						// a decorator the batcher refuses, so it is scanned —
						// and its handler runs — in the middle of the window.
						return faultinject.PanicOn(nil, m.NewRunner())
					}
					return m.NewRunner()
				},
				func(mt Match) {
					h.hold(mt)
					if mt.Flow == hostile {
						panic("hostile match handler")
					}
					if tc.reload && mt.Flow == trigger {
						if _, err := e.Reload(func() flow.Runner { return m.NewRunner() }, false); err != nil {
							t.Error(err)
						}
					}
					got[mt.Flow]++
				})
			var segs []pcap.Segment
			for i := 0; i < 7; i++ {
				segs = append(segs, pcap.Segment{Key: key(i), Seq: 1, Flags: pcap.FlagACK, Payload: []byte("..xmrig..")})
			}
			h.run(t, e, "xmrig", segs)
			// The trigger's handler must run before Close begins, or its
			// Reload is refused.
			waitStats(t, e, "the window", func(Stats) bool { return e.shards[0].processed.Load() == 8 })
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			if st.ShardPanics != 1 || st.PoisonedFlows != 1 || st.ShardRestarts != 0 {
				t.Fatalf("ShardPanics %d, PoisonedFlows %d, ShardRestarts %d; want 1, 1, 0",
					st.ShardPanics, st.PoisonedFlows, st.ShardRestarts)
			}
			if _, ok := e.shards[0].quarantined[hostile]; !ok {
				t.Errorf("hostile flow not quarantined: %v", e.shards[0].quarantined)
			}
			for i := 0; i < 7; i++ {
				if want := map[bool]int{true: 0, false: 1}[key(i) == hostile]; got[key(i)] != want {
					t.Errorf("flow %d delivered %d matches, want %d", i, got[key(i)], want)
				}
			}
			if tc.reload && st.Generation != 2 {
				t.Errorf("Generation = %d: the reload was lost", st.Generation)
			}
		})
	}
}
