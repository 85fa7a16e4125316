package flow

import (
	"testing"

	"matchfilter/internal/pcap"
	"matchfilter/internal/telemetry"
)

// --- 4-tuple reuse (SYN on a live flow) ---

// A SYN landing on an already-tracked key is a brand-new connection: the
// old connection's matcher state must not bleed into it. "ab" from the
// old connection plus "cd" from the new one must NOT complete "ab.*cd".
func TestSynReuseResetsMatchState(t *testing.T) {
	m := buildMFA(t, "ab.*cd")
	var matches []Match
	a := newAsm(m, &matches)
	k := key(1)

	a.HandleSegment(pcap.Segment{Key: k, Seq: 0, Flags: pcap.FlagSYN})
	a.HandleSegment(pcap.Segment{Key: k, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("ab")})

	// Same 4-tuple, new connection (old FIN was missed on the wire).
	a.HandleSegment(pcap.Segment{Key: k, Seq: 100, Flags: pcap.FlagSYN})
	a.HandleSegment(pcap.Segment{Key: k, Seq: 101, Flags: pcap.FlagACK, Payload: []byte("cd")})
	if len(matches) != 0 {
		t.Fatalf("stale \"ab\" completed a match across connections: %v", matches)
	}

	// The restarted flow still matches on its own bytes.
	a.HandleSegment(pcap.Segment{Key: k, Seq: 103, Flags: pcap.FlagACK, Payload: []byte("ab..cd")})
	if len(matches) != 1 {
		t.Fatalf("restarted flow matches: %v", matches)
	}

	st := a.Stats()
	if st.FlowRestarts != 1 {
		t.Errorf("FlowRestarts = %d, want 1", st.FlowRestarts)
	}
	if st.FlowsTotal != 1 || st.Flows != 1 {
		t.Errorf("restart must reuse the flow entry: total=%d live=%d", st.FlowsTotal, st.Flows)
	}
}

// The restart must also discard the old connection's out-of-order buffer
// and withdraw its gauge contribution: those bytes belong to a stream
// that no longer exists.
func TestSynReuseClearsPending(t *testing.T) {
	m := buildMFA(t, "needle")
	var matches []Match
	g := &Gauges{
		LiveFlows:       &telemetry.Gauge{},
		PendingSegments: &telemetry.Gauge{},
		BufferedBytes:   &telemetry.Gauge{},
	}
	a := NewAssembler(Config{Gauges: g}, func() Runner { return m.NewRunner() },
		func(mt Match) { matches = append(matches, mt) })
	k := key(2)

	a.HandleSegment(pcap.Segment{Key: k, Seq: 0, Flags: pcap.FlagSYN})
	// Future segment: buffered, not delivered.
	a.HandleSegment(pcap.Segment{Key: k, Seq: 50, Flags: pcap.FlagACK, Payload: []byte("dle")})
	if g.PendingSegments.Value() != 1 || g.BufferedBytes.Value() != 3 {
		t.Fatalf("setup: pending=%d bytes=%d", g.PendingSegments.Value(), g.BufferedBytes.Value())
	}

	a.HandleSegment(pcap.Segment{Key: k, Seq: 200, Flags: pcap.FlagSYN})
	if g.PendingSegments.Value() != 0 || g.BufferedBytes.Value() != 0 {
		t.Fatalf("after restart: pending=%d bytes=%d, want zeros",
			g.PendingSegments.Value(), g.BufferedBytes.Value())
	}
	if g.LiveFlows.Value() != 1 {
		t.Fatalf("after restart: live=%d, want 1", g.LiveFlows.Value())
	}

	// The new connection must not see the discarded bytes: fill the gap
	// the old buffer was waiting on and confirm nothing fires.
	a.HandleSegment(pcap.Segment{Key: k, Seq: 201, Flags: pcap.FlagACK, Payload: []byte("nee")})
	if len(matches) != 0 {
		t.Fatalf("discarded pending bytes were delivered: %v", matches)
	}
}

// --- generations ---

// TestSetGenerationDrain: existing flows keep matching on the automaton
// they started with; flows created after the swap use the new one.
func TestSetGenerationDrain(t *testing.T) {
	m1 := buildMFA(t, "aaa")
	m2 := buildMFA(t, "bbb")
	var matches []Match
	a := newAsm(m1, &matches)

	k1, k2 := key(1), key(2)
	a.HandleSegment(pcap.Segment{Key: k1, Seq: 0, Flags: pcap.FlagSYN})
	a.HandleSegment(pcap.Segment{Key: k1, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("aa")})

	moved := a.SetGeneration(0, Generation{ID: 1, New: func() Runner { return m2.NewRunner() }}, nil, false)
	if moved != 0 {
		t.Fatalf("drain swap moved %d flows, want 0", moved)
	}

	// The in-flight flow completes its old-generation match.
	a.HandleSegment(pcap.Segment{Key: k1, Seq: 3, Flags: pcap.FlagACK, Payload: []byte("a")})
	if len(matches) != 1 || matches[0].Flow != k1 {
		t.Fatalf("draining flow lost its old-generation match: %v", matches)
	}

	// A new flow runs the new rules: "aaa" is dead, "bbb" fires.
	a.HandleSegment(pcap.Segment{Key: k2, Seq: 0, Flags: pcap.FlagSYN})
	a.HandleSegment(pcap.Segment{Key: k2, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("aaabbb")})
	if len(matches) != 2 || matches[1].Flow != k2 {
		t.Fatalf("new flow on new generation: %v", matches)
	}

	st := a.Stats()
	if st.Generation != 1 {
		t.Errorf("Generation = %d, want 1", st.Generation)
	}
	if st.FlowsByGen[0] != 1 || st.FlowsByGen[1] != 1 {
		t.Errorf("FlowsByGen = %v, want {0:1 1:1}", st.FlowsByGen)
	}
}

// TestSetGenerationReset: existing flows restart matching on the new
// generation; partial old-generation progress is discarded but TCP
// reassembly state survives.
func TestSetGenerationReset(t *testing.T) {
	m := buildMFA(t, "ab.*cd")
	var matches []Match
	a := newAsm(m, &matches)
	k := key(1)

	a.HandleSegment(pcap.Segment{Key: k, Seq: 0, Flags: pcap.FlagSYN})
	a.HandleSegment(pcap.Segment{Key: k, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("ab")})

	moved := a.SetGeneration(0, Generation{ID: 1, New: func() Runner { return m.NewRunner() }}, nil, true)
	if moved != 1 {
		t.Fatalf("reset swap moved %d flows, want 1", moved)
	}

	// Pre-swap progress is gone: "cd" alone must not complete "ab.*cd".
	// Sequencing still works — the segment is delivered in order.
	a.HandleSegment(pcap.Segment{Key: k, Seq: 3, Flags: pcap.FlagACK, Payload: []byte("cd")})
	if len(matches) != 0 {
		t.Fatalf("reset flow kept pre-swap matcher state: %v", matches)
	}
	a.HandleSegment(pcap.Segment{Key: k, Seq: 5, Flags: pcap.FlagACK, Payload: []byte("ab_cd")})
	if len(matches) != 1 {
		t.Fatalf("reset flow must match on post-swap bytes: %v", matches)
	}

	st := a.Stats()
	if st.StaleRunners != 1 {
		t.Errorf("StaleRunners = %d, want 1", st.StaleRunners)
	}
	if len(st.FlowsByGen) != 1 || st.FlowsByGen[1] != 1 {
		t.Errorf("FlowsByGen = %v, want {1:1}", st.FlowsByGen)
	}
}

// Superseded-generation runners must never be recycled into new flows,
// and the free list itself is emptied by the swap.
func TestStaleRunnersNotRecycled(t *testing.T) {
	m := buildMFA(t, "x")
	var matches []Match
	a := newAsm(m, &matches)

	// Keep one generation-0 flow live across the swap.
	k2 := key(2)
	a.HandleSegment(pcap.Segment{Key: k2, Seq: 0, Flags: pcap.FlagSYN})

	// Pool a generation-0 runner via normal FIN teardown.
	k1 := key(1)
	a.HandleSegment(pcap.Segment{Key: k1, Seq: 0, Flags: pcap.FlagSYN})
	a.HandleSegment(pcap.Segment{Key: k1, Seq: 1, Flags: pcap.FlagFIN})

	a.SetGeneration(0, Generation{ID: 1, New: func() Runner { return m.NewRunner() }}, nil, false)

	// A new flow must get a fresh generation-1 runner, not the pooled
	// generation-0 one.
	k3 := key(3)
	a.HandleSegment(pcap.Segment{Key: k3, Seq: 0, Flags: pcap.FlagSYN})
	if st := a.Stats(); st.RunnersReused != 0 {
		t.Errorf("RunnersReused = %d, want 0 (free list must be emptied by swap)", st.RunnersReused)
	}

	// The draining generation-0 flow's runner is discarded at teardown,
	// not pooled: still no reuse possible afterwards.
	a.HandleSegment(pcap.Segment{Key: k2, Seq: 1, Flags: pcap.FlagFIN})
	k4 := key(4)
	a.HandleSegment(pcap.Segment{Key: k4, Seq: 0, Flags: pcap.FlagSYN})
	st := a.Stats()
	if st.RunnersReused != 0 {
		t.Errorf("RunnersReused = %d, want 0 (stale runner must not be pooled)", st.RunnersReused)
	}
	if st.StaleRunners != 1 {
		t.Errorf("StaleRunners = %d, want 1", st.StaleRunners)
	}
}

// Per-generation live gauges track each generation's flows exactly,
// through drain, reset and teardown.
func TestGenerationLiveGauges(t *testing.T) {
	m := buildMFA(t, "x")
	a := NewAssembler(Config{}, func() Runner { return m.NewRunner() }, nil)

	g1, g2 := &telemetry.Gauge{}, &telemetry.Gauge{}
	a.SetGeneration(0, Generation{ID: 1, New: func() Runner { return m.NewRunner() }, Live: g1}, nil, false)

	k1, k2 := key(1), key(2)
	a.HandleSegment(pcap.Segment{Key: k1, Seq: 0, Flags: pcap.FlagSYN})
	a.HandleSegment(pcap.Segment{Key: k2, Seq: 0, Flags: pcap.FlagSYN})
	if g1.Value() != 2 {
		t.Fatalf("gen1 live = %d, want 2", g1.Value())
	}

	// Drain swap: flows stay counted on their own generation.
	a.SetGeneration(0, Generation{ID: 2, New: func() Runner { return m.NewRunner() }, Live: g2}, nil, false)
	if g1.Value() != 2 || g2.Value() != 0 {
		t.Fatalf("after drain swap: gen1=%d gen2=%d, want 2/0", g1.Value(), g2.Value())
	}

	// One flow ends; the other is moved by a reset swap back to gen 2.
	a.HandleSegment(pcap.Segment{Key: k1, Seq: 1, Flags: pcap.FlagFIN})
	if g1.Value() != 1 {
		t.Fatalf("after FIN: gen1=%d, want 1", g1.Value())
	}
	a.SetGeneration(0, Generation{ID: 3, New: func() Runner { return m.NewRunner() }, Live: g2}, nil, true)
	if g1.Value() != 0 || g2.Value() != 1 {
		t.Fatalf("after reset swap: gen1=%d gen2=%d, want 0/1", g1.Value(), g2.Value())
	}

	// ReleaseGauges withdraws the per-generation contributions too.
	a.ReleaseGauges()
	if g1.Value() != 0 || g2.Value() != 0 {
		t.Fatalf("after ReleaseGauges: gen1=%d gen2=%d, want zeros", g1.Value(), g2.Value())
	}
}

// Re-applying the current generation is a no-op: the free list survives
// and nothing moves.
func TestSetGenerationSameIDNoop(t *testing.T) {
	m := buildMFA(t, "x")
	a := NewAssembler(Config{}, func() Runner { return m.NewRunner() }, nil)

	k1 := key(1)
	a.HandleSegment(pcap.Segment{Key: k1, Seq: 0, Flags: pcap.FlagSYN})
	a.HandleSegment(pcap.Segment{Key: k1, Seq: 1, Flags: pcap.FlagFIN})

	if moved := a.SetGeneration(0, Generation{ID: 0, New: func() Runner { return m.NewRunner() }}, nil, true); moved != 0 {
		t.Fatalf("same-ID swap moved %d flows", moved)
	}
	k2 := key(2)
	a.HandleSegment(pcap.Segment{Key: k2, Seq: 0, Flags: pcap.FlagSYN})
	if st := a.Stats(); st.RunnersReused != 1 {
		t.Errorf("RunnersReused = %d, want 1 (no-op swap must keep the free list)", st.RunnersReused)
	}
}
