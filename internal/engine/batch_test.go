package engine

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"matchfilter/internal/core"
	"matchfilter/internal/dfa"
	"matchfilter/internal/faultinject"
	"matchfilter/internal/flow"
	"matchfilter/internal/pcap"
	"matchfilter/internal/regexparse"
)

func buildLayoutMFA(t testing.TB, layout dfa.Layout, sources ...string) *core.MFA {
	t.Helper()
	rules := make([]core.Rule, len(sources))
	for i, src := range sources {
		p, err := regexparse.ParsePCRE(src)
		if err != nil {
			t.Fatal(err)
		}
		rules[i] = core.Rule{Pattern: p, ID: int32(i + 1)}
	}
	m, err := core.Compile(rules, core.Options{DFA: dfa.Options{Layout: layout}})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBatchedShardedEquivalence extends the core soundness claim to the
// batched lockstep path: for every (shards, BatchFlows, layout)
// combination, per-flow match sets are byte-identical to the sequential
// scanner's, and no payload is lost at close (the final lockstep window
// flushes before the shard exits).
func TestBatchedShardedEquivalence(t *testing.T) {
	sources := []string{"attack.*payload", "evil[^\n]*string", "xmrig"}
	capture := interleavedCapture(t, 12, 8<<10, []string{"attack", "payload", "evil", "string", "xmrig"})

	flat := buildLayoutMFA(t, dfa.LayoutFlat, sources...)
	var seq []Match
	seqStats, err := flow.ScanPcap(bytes.NewReader(capture), flow.Config{},
		func() flow.Runner { return flat.NewRunner() },
		func(mt flow.Match) { seq = append(seq, mt) })
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) == 0 {
		t.Fatal("capture produced no matches; test would be vacuous")
	}
	want := flowMatches(seq)

	for _, layout := range []dfa.Layout{dfa.LayoutFlat, dfa.LayoutClassed} {
		m := buildLayoutMFA(t, layout, sources...)
		for _, shards := range []int{1, 4} {
			for _, k := range []int{4, core.MaxBatchFlows} {
				t.Run(fmt.Sprintf("%v/shards=%d/k=%d", layout, shards, k), func(t *testing.T) {
					var mu sync.Mutex
					var got []Match
					st, err := ScanPcap(bytes.NewReader(capture),
						Config{Shards: shards, BatchFlows: k},
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
						t.Errorf("batched per-flow matches diverge from sequential scan (seq %d, batched %d)", len(seq), len(got))
					}
					if st.PayloadBytes != seqStats.PayloadBytes {
						t.Errorf("payload bytes: batched %d, sequential %d", st.PayloadBytes, seqStats.PayloadBytes)
					}
				})
			}
		}
	}
}

// TestBatchedInlineFallback checks that a batching engine still serves
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
	_, err = ScanPcap(bytes.NewReader(capture), Config{Shards: 2, BatchFlows: 8},
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
// batcher's Scanning tag) and keep every other flow's match set intact.
func TestBatchedCallbackPanicQuarantinesOneFlow(t *testing.T) {
	sources := []string{"attack.*payload", "evil[^\n]*string", "xmrig"}
	words := []string{"attack", "payload", "evil", "string", "xmrig"}
	capture, poisonKey := poisonedCapture(t, 10, words, "xmrig", 3)
	m := buildLayoutMFA(t, dfa.LayoutClassed, sources...)

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
	st, err := ScanPcap(bytes.NewReader(capture), Config{Shards: 2, BatchFlows: 8},
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
	_ = pcap.FlowKey{}
}
