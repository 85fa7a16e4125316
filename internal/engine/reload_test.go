package engine

// Hot-reload semantics under the sharded engine: zero-disruption drain,
// deterministic reset, rule-set swap visibility, and liveness of the
// dispatch path against stalled shards during Close.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"matchfilter/internal/faultinject"
	"matchfilter/internal/flow"
	"matchfilter/internal/leakcheck"
	"matchfilter/internal/pcap"
)

// waitProcessed blocks until the shards have consumed n segments (the
// processed counter is exact, unlike the periodic stats snapshots),
// yielding between polls: it waits on shard progress, not on a timer.
func waitProcessed(t *testing.T, e *Engine, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var got int64
		for _, d := range e.DrainProgress() {
			got += d.Processed
		}
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("shards processed %d segments, want %d", got, n)
		}
		runtime.Gosched()
	}
}

// A drain-mode reload in the middle of a live capture must be invisible:
// no flow dropped, and the per-flow match streams byte-identical to an
// uninterrupted sequential scan.
func TestReloadDrainEquivalence(t *testing.T) {
	leakcheck.Check(t)
	m := buildMFA(t, "attack.*payload", "evil[^\n]*string", "xmrig")
	capture := interleavedCapture(t, 10, 8<<10, []string{"attack", "payload", "evil", "string", "xmrig"})

	var seq []Match
	_, err := flow.ScanPcap(bytes.NewReader(capture), flow.Config{},
		func() flow.Runner { return m.NewRunner() },
		func(mt flow.Match) { seq = append(seq, mt) })
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) == 0 {
		t.Fatal("trace produced no sequential matches; test would be vacuous")
	}
	want := flowMatches(seq)

	// Decode the capture into frames so the reload can land mid-stream.
	var frames [][]byte
	pr, err := pcap.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	for {
		pkt, err := pr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, append([]byte(nil), pkt.Data...))
	}

	var mu sync.Mutex
	var got []Match
	e := New(Config{Shards: 4}, func() flow.Runner { return m.NewRunner() },
		func(mt Match) {
			mu.Lock()
			got = append(got, mt)
			mu.Unlock()
		})
	for i, f := range frames {
		if i == len(frames)/2 {
			gen, err := e.Reload(func() flow.Runner { return m.NewRunner() }, false)
			if err != nil {
				t.Fatal(err)
			}
			if gen != 2 {
				t.Fatalf("generation after reload = %d, want 2", gen)
			}
		}
		if err := e.HandleFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	if !equalFlowMatches(want, flowMatches(got)) {
		t.Errorf("per-flow matches diverge across a drain reload\nseq: %d matches, engine: %d", len(seq), len(got))
	}
	st := e.Stats()
	if st.QueueDrops != 0 || st.DroppedSegs != 0 {
		t.Errorf("reload dropped traffic: queue=%d reasm=%d", st.QueueDrops, st.DroppedSegs)
	}
	if st.Generation != 2 {
		t.Errorf("Stats.Generation = %d, want 2", st.Generation)
	}
}

// Drain vs reset on one straddling flow: "ab" before the reload, "cd"
// after. Drain keeps the old automaton mid-flow (match); reset restarts
// matching on the new generation ("cd" alone — no match).
func TestReloadPolicies(t *testing.T) {
	k := pcap.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	for _, tc := range []struct {
		name    string
		reset   bool
		matches int
	}{
		{"drain", false, 1},
		{"reset", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := buildMFA(t, "ab.*cd")
			var mu sync.Mutex
			var got []Match
			e := New(Config{Shards: 1}, func() flow.Runner { return m.NewRunner() },
				func(mt Match) {
					mu.Lock()
					got = append(got, mt)
					mu.Unlock()
				})
			if err := e.HandleSegment(pcap.Segment{Key: k, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("ab")}); err != nil {
				t.Fatal(err)
			}
			// The flow must exist before the swap for the policy to act on
			// it; segments dispatched after Reload are scanned post-swap.
			waitProcessed(t, e, 1)
			if _, err := e.Reload(func() flow.Runner { return m.NewRunner() }, tc.reset); err != nil {
				t.Fatal(err)
			}
			if err := e.HandleSegment(pcap.Segment{Key: k, Seq: 3, Flags: pcap.FlagACK, Payload: []byte("cd")}); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if len(got) != tc.matches {
				t.Fatalf("matches = %v, want %d", got, tc.matches)
			}
			st := e.Stats()
			if st.Generation != 2 {
				t.Errorf("Generation = %d, want 2", st.Generation)
			}
			wantGen := uint64(1) // drain: the straddling flow stays on gen 1
			if tc.reset {
				wantGen = 2
				if st.StaleRunners != 1 {
					t.Errorf("StaleRunners = %d, want 1", st.StaleRunners)
				}
			}
			// The serving generation also reports (possibly 0) live flows.
			if st.GenFlows[wantGen] != 1 || st.GenFlows[1]+st.GenFlows[2] != 1 {
				t.Errorf("GenFlows = %v, want the one flow on generation %d", st.GenFlows, wantGen)
			}
		})
	}
}

// A reload that changes the rule set: flows already in flight keep the
// rules they started with (drain), flows created after it match only the
// new rules.
func TestReloadSwapsRuleSet(t *testing.T) {
	leakcheck.Check(t)
	m1 := buildMFA(t, "aaa")
	m2 := buildMFA(t, "bbb")
	kOld := pcap.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	kNew := pcap.FlowKey{SrcIP: 5, DstIP: 6, SrcPort: 7, DstPort: 8}

	var mu sync.Mutex
	var got []Match
	e := New(Config{Shards: 1}, func() flow.Runner { return m1.NewRunner() },
		func(mt Match) {
			mu.Lock()
			got = append(got, mt)
			mu.Unlock()
		})
	if err := e.HandleSegment(pcap.Segment{Key: kOld, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("aa")}); err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, e, 1)
	if _, err := e.Reload(func() flow.Runner { return m2.NewRunner() }, false); err != nil {
		t.Fatal(err)
	}
	// Old flow finishes its old-rules match; a new flow sees only new
	// rules ("aaa" is dead there, "bbb" fires).
	if err := e.HandleSegment(pcap.Segment{Key: kOld, Seq: 3, Flags: pcap.FlagACK, Payload: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	if err := e.HandleSegment(pcap.Segment{Key: kNew, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("aaabbb")}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	byFlow := flowMatches(got)
	if len(byFlow[kOld]) != 1 {
		t.Errorf("old flow on old rules: %v", byFlow[kOld])
	}
	if len(byFlow[kNew]) != 1 {
		t.Errorf("new flow on new rules: %v", byFlow[kNew])
	}
}

func TestReloadErrors(t *testing.T) {
	m := buildMFA(t, "x")
	e := New(Config{Shards: 1}, func() flow.Runner { return m.NewRunner() }, nil)
	if _, err := e.Reload(nil, false); err == nil {
		t.Error("nil factory accepted")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Reload(func() flow.Runner { return m.NewRunner() }, false); err != ErrClosed {
		t.Errorf("Reload after Close: %v, want ErrClosed", err)
	}
}

// waitParked blocks until some goroutine is parked inside fn (a function
// name as goroutine dumps print it), yielding between looks.
func waitParked(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, fn) && !strings.Contains(g, "[running]") && !strings.Contains(g, "[runnable]") {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no goroutine parked in %s", fn)
		}
		runtime.Gosched()
	}
}

// Regression: a backpressure dispatcher blocked on a full queue holds the
// engine mutex's read side; CloseContext must still be able to proceed
// (it unblocks the dispatcher via the closing channel before taking the
// write lock). Before that fix this test deadlocked.
func TestCloseUnblocksBackpressure(t *testing.T) {
	leakcheck.Check(t)
	gate := make(chan struct{})
	e := New(Config{Shards: 1, QueueDepth: 1, SoftWatermark: 1.1, HardWatermark: 1.2},
		func() flow.Runner { return faultinject.Stall(gate, faultinject.Discard) }, nil)
	k := pcap.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}

	// Segment 1 wedges the shard inside Feed; segment 2 fills the queue;
	// segment 3 parks its dispatcher in the backpressure send.
	sendErr := make(chan error, 1)
	go func() {
		var last error
		for i := 0; i < 3; i++ {
			last = e.HandleSegment(pcap.Segment{Key: k, Seq: uint32(1 + 2*i), Flags: pcap.FlagACK, Payload: []byte("xx")})
			if last != nil {
				break
			}
		}
		sendErr <- last
	}()
	waitProcessed(t, e, 1) // the shard is now inside the stalled Feed
	waitParked(t, "burst.(*Queue).put")

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now()) // already past
		defer cancel()
		done <- e.CloseContext(ctx)
	}()
	select {
	case err := <-done:
		var sderr *ShutdownError
		if !errors.As(err, &sderr) {
			t.Fatalf("CloseContext with a wedged shard: %v, want *ShutdownError", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("CloseContext deadlocked against a blocked backpressure dispatcher")
	}
	select {
	case err := <-sendErr:
		if err != ErrClosed {
			t.Fatalf("blocked HandleSegment returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("backpressure dispatcher still blocked after CloseContext")
	}

	close(gate) // unwedge and finish the drain
	if err := e.Close(); err != nil {
		t.Fatalf("Close after unwedge: %v", err)
	}
}
