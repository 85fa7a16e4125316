package flow

import (
	"bytes"
	"strings"
	"testing"

	"matchfilter/internal/core"
	"matchfilter/internal/pcap"
	"matchfilter/internal/regexparse"
)

func buildMFA(t *testing.T, sources ...string) *core.MFA {
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

func key(i int) pcap.FlowKey {
	return pcap.FlowKey{SrcIP: 0x0a000000 | uint32(i), DstIP: 1, SrcPort: uint16(i), DstPort: 80}
}

func newAsm(m *core.MFA, matches *[]Match) *Assembler {
	return NewAssembler(Config{}, func() Runner { return m.NewRunner() },
		func(mt Match) { *matches = append(*matches, mt) })
}

func TestInOrderDelivery(t *testing.T) {
	m := buildMFA(t, "attack.*payload")
	var matches []Match
	a := newAsm(m, &matches)

	k := key(1)
	a.HandleSegment(pcap.Segment{Key: k, Seq: 0, Flags: pcap.FlagSYN})
	a.HandleSegment(pcap.Segment{Key: k, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("attack then ")})
	a.HandleSegment(pcap.Segment{Key: k, Seq: 13, Flags: pcap.FlagACK, Payload: []byte("payload")})
	if len(matches) != 1 {
		t.Fatalf("matches: %v", matches)
	}
	if matches[0].Flow != k || matches[0].ID != 1 {
		t.Fatalf("match: %+v", matches[0])
	}
	st := a.Stats()
	if st.PayloadBytes != 19 || st.Flows != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestOutOfOrderReassembly(t *testing.T) {
	m := buildMFA(t, "needle")
	var matches []Match
	a := newAsm(m, &matches)

	k := key(2)
	// Segments delivered 3,1,2 (seq 1 is "nee", 4 is "dle").
	a.HandleSegment(pcap.Segment{Key: k, Seq: 0, Flags: pcap.FlagSYN})
	a.HandleSegment(pcap.Segment{Key: k, Seq: 4, Flags: pcap.FlagACK, Payload: []byte("dle")})
	if len(matches) != 0 {
		t.Fatal("future segment must be buffered, not fed")
	}
	a.HandleSegment(pcap.Segment{Key: k, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("nee")})
	if len(matches) != 1 {
		t.Fatalf("reordered match: %v", matches)
	}
	if a.Stats().OutOfOrder != 1 {
		t.Errorf("stats: %+v", a.Stats())
	}
}

func TestDuplicateAndOverlap(t *testing.T) {
	m := buildMFA(t, "abcd")
	var matches []Match
	a := newAsm(m, &matches)

	k := key(3)
	a.HandleSegment(pcap.Segment{Key: k, Seq: 0, Flags: pcap.FlagSYN})
	a.HandleSegment(pcap.Segment{Key: k, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("ab")})
	// Retransmission with overlap: seq 1 again carrying "abcd".
	a.HandleSegment(pcap.Segment{Key: k, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("abcd")})
	if len(matches) != 1 {
		t.Fatalf("overlap-trimmed match: %v", matches)
	}
	// Full duplicate of already-delivered data: dropped.
	a.HandleSegment(pcap.Segment{Key: k, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("ab")})
	if a.Stats().DroppedSegs != 1 {
		t.Errorf("stats: %+v", a.Stats())
	}
}

func TestMultiplexedFlows(t *testing.T) {
	// Two flows interleaved; each must match independently via its own
	// (q, m) context, and a cross-flow split must NOT match.
	m := buildMFA(t, "aa.*zz")
	var matches []Match
	a := newAsm(m, &matches)

	k1, k2 := key(4), key(5)
	a.HandleSegment(pcap.Segment{Key: k1, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("aa..")})
	a.HandleSegment(pcap.Segment{Key: k2, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("zz..")})
	if len(matches) != 0 {
		t.Fatalf("cross-flow contamination: %v", matches)
	}
	a.HandleSegment(pcap.Segment{Key: k1, Seq: 5, Flags: pcap.FlagACK, Payload: []byte("zz")})
	if len(matches) != 1 || matches[0].Flow != k1 {
		t.Fatalf("flow 1 should match: %v", matches)
	}
	a.HandleSegment(pcap.Segment{Key: k2, Seq: 5, Flags: pcap.FlagACK, Payload: []byte("aa..zz")})
	if len(matches) != 2 || matches[1].Flow != k2 {
		t.Fatalf("flow 2 should match: %v", matches)
	}
}

func TestFinTeardown(t *testing.T) {
	m := buildMFA(t, "ab.*cd")
	var matches []Match
	a := newAsm(m, &matches)
	k := key(6)
	a.HandleSegment(pcap.Segment{Key: k, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("ab")})
	a.HandleSegment(pcap.Segment{Key: k, Seq: 3, Flags: pcap.FlagFIN})
	if a.Stats().Flows != 0 {
		t.Errorf("flow must be dropped after FIN: %+v", a.Stats())
	}
	// A new flow with the same key starts fresh: no stale guard bit.
	a.HandleSegment(pcap.Segment{Key: k, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("cd")})
	if len(matches) != 0 {
		t.Fatalf("stale context after teardown: %v", matches)
	}
}

func TestMaxFlowsCap(t *testing.T) {
	m := buildMFA(t, "x")
	a := NewAssembler(Config{MaxFlows: 2}, func() Runner { return m.NewRunner() }, nil)
	for i := 0; i < 5; i++ {
		a.HandleSegment(pcap.Segment{Key: key(i), Seq: 1, Flags: pcap.FlagACK, Payload: []byte("y")})
	}
	st := a.Stats()
	if st.Flows != 2 {
		t.Errorf("flow cap: %+v", st)
	}
	// Cap pressure is counted, not silent: 3 of the 5 flows displaced.
	if st.EvictedCap != 3 || st.FlowsTotal != 5 {
		t.Errorf("eviction accounting: %+v", st)
	}
}

func TestMaxFlowsEvictsOldestNotNewest(t *testing.T) {
	// Regression for the silent reject-new behavior: at the cap, the
	// *least recently seen* flow must be evicted so new traffic is still
	// scanned, and surviving flows keep their matching context.
	m := buildMFA(t, "aa.*zz")
	var matches []Match
	a := NewAssembler(Config{MaxFlows: 2}, func() Runner { return m.NewRunner() },
		func(mt Match) { matches = append(matches, mt) })

	k1, k2, k3 := key(1), key(2), key(3)
	a.HandleSegment(pcap.Segment{Key: k1, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("aa..")})
	a.HandleSegment(pcap.Segment{Key: k2, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("....")})
	// Touch k1 so k2 becomes the LRU victim.
	a.HandleSegment(pcap.Segment{Key: k1, Seq: 5, Flags: pcap.FlagACK, Payload: []byte("..")})
	// k3 arrives at the cap: k2 must go, k1 must survive.
	a.HandleSegment(pcap.Segment{Key: k3, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("zz")})
	if st := a.Stats(); st.Flows != 2 || st.EvictedCap != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// k1's context survived eviction pressure: completing the pattern
	// still matches.
	a.HandleSegment(pcap.Segment{Key: k1, Seq: 7, Flags: pcap.FlagACK, Payload: []byte("zz")})
	if len(matches) != 1 || matches[0].Flow != k1 {
		t.Fatalf("surviving flow lost its context: %v", matches)
	}
}

func TestRunnerRecycledThroughPool(t *testing.T) {
	m := buildMFA(t, "ab.*cd")
	allocs := 0
	a := NewAssembler(Config{}, func() Runner { allocs++; return m.NewRunner() }, nil)

	// Tear down and recreate flows repeatedly. The assertion is
	// statistical rather than exact-count because sync.Pool deliberately
	// drops a fraction of items under the race detector; across this many
	// cycles at least one reuse is certain on both build modes.
	const cycles = 32
	for i := 0; i < cycles; i++ {
		k := key(100 + i)
		a.HandleSegment(pcap.Segment{Key: k, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("ab")})
		a.HandleSegment(pcap.Segment{Key: k, Seq: 3, Flags: pcap.FlagFIN})
	}
	st := a.Stats()
	if st.RunnersReused == 0 {
		t.Errorf("no runner reuse across %d teardown/recreate cycles: %+v", cycles, st)
	}
	if int64(allocs)+st.RunnersReused != cycles {
		t.Errorf("allocs %d + reused %d != %d flows", allocs, st.RunnersReused, cycles)
	}
}

func TestEvictIdle(t *testing.T) {
	m := buildMFA(t, "x")
	a := NewAssembler(Config{}, func() Runner { return m.NewRunner() }, nil)

	a.HandleSegment(pcap.Segment{Key: key(1), Seq: 1, Flags: pcap.FlagACK, Payload: []byte("y")})
	// 10 segments of other traffic age flow 1 out.
	for i := 0; i < 10; i++ {
		a.HandleSegment(pcap.Segment{Key: key(2), Seq: uint32(1 + i), Flags: pcap.FlagACK, Payload: []byte("y")})
	}
	if n := a.EvictIdle(5); n != 1 {
		t.Fatalf("EvictIdle = %d, want 1", n)
	}
	st := a.Stats()
	if st.Flows != 1 || st.EvictedIdle != 1 {
		t.Errorf("stats: %+v", st)
	}
	// The active flow stays.
	if n := a.EvictIdle(5); n != 0 {
		t.Errorf("active flow evicted: %d", n)
	}
}

func TestBufferedSegmentCap(t *testing.T) {
	m := buildMFA(t, "x")
	a := NewAssembler(Config{}, func() Runner { return m.NewRunner() }, nil)
	a.SetMaxBuffered(4)
	k := key(7)
	for i := 0; i < 10; i++ {
		a.HandleSegment(pcap.Segment{Key: k, Seq: uint32(100 + 10*i), Flags: pcap.FlagACK, Payload: []byte("zzz")})
	}
	if a.Stats().DroppedSegs == 0 {
		t.Error("buffer cap should drop segments")
	}
}

func TestScanPcapEndToEnd(t *testing.T) {
	// Synthesize a capture whose flows contain a split-across-packets
	// match, scan it, and verify reassembly finds it.
	m := buildMFA(t, "evil.*string", "benign")
	payloads := [][]byte{
		[]byte("some evil stuff followed by a string of text"),
		[]byte(strings.Repeat("nothing to see ", 50)),
		[]byte("completely benign content"),
	}
	var buf bytes.Buffer
	if err := pcap.Synthesize(&buf, payloads, 16, 0.2, 11); err != nil {
		t.Fatal(err)
	}

	var matches []Match
	stats, err := ScanPcap(bytes.NewReader(buf.Bytes()), Config{},
		func() Runner { return m.NewRunner() },
		func(mt Match) { matches = append(matches, mt) })
	if err != nil {
		t.Fatal(err)
	}

	wantBytes := int64(0)
	for _, p := range payloads {
		wantBytes += int64(len(p))
	}
	if stats.PayloadBytes != wantBytes {
		t.Errorf("payload bytes: %d, want %d", stats.PayloadBytes, wantBytes)
	}
	var evil, benign int
	for _, mt := range matches {
		switch mt.ID {
		case 1:
			evil++
		case 2:
			benign++
		}
	}
	if evil != 1 || benign != 1 {
		t.Fatalf("matches: evil=%d benign=%d (%v)", evil, benign, matches)
	}
}

// TestInOrderFlowAllocatesNoPendingMap: a flow whose data arrives in
// order allocates no out-of-order map — three allocations a flow, where
// an eager map made four; the map appears with the first segment that
// arrives early, and a restart on the same 4-tuple drops it.
func TestInOrderFlowAllocatesNoPendingMap(t *testing.T) {
	m := buildMFA(t, "needle")
	a := NewAssembler(Config{}, func() Runner { return m.NewRunner() }, nil)
	payload := []byte("some in-order text with no match in it")
	var n uint32
	segs := func(k pcap.FlowKey) {
		a.HandleSegment(pcap.Segment{Key: k, Seq: 0, Flags: pcap.FlagSYN})
		for i := 0; i < 4; i++ {
			a.HandleSegment(pcap.Segment{Key: k, Seq: 1 + uint32(i*len(payload)), Flags: pcap.FlagACK, Payload: payload})
		}
	}
	if got := testing.AllocsPerRun(200, func() {
		n++
		k := pcap.FlowKey{SrcIP: n, DstIP: 2, SrcPort: 3, DstPort: 4}
		segs(k)
		a.HandleSegment(pcap.Segment{Key: k, Seq: 1 + uint32(4*len(payload)), Flags: pcap.FlagFIN})
	}); got != 3 {
		t.Fatalf("a new in-order flow allocates %v times, want 3", got)
	}

	k := pcap.FlowKey{SrcIP: 1 << 30, DstIP: 2, SrcPort: 3, DstPort: 4}
	segs(k)
	if a.flows[k].pending != nil {
		t.Fatal("in-order data allocated the out-of-order map")
	}
	a.HandleSegment(pcap.Segment{Key: k, Seq: 1 << 20, Flags: pcap.FlagACK, Payload: payload})
	if len(a.flows[k].pending) != 1 {
		t.Fatal("an early segment was not buffered")
	}
	a.HandleSegment(pcap.Segment{Key: k, Seq: 0, Flags: pcap.FlagSYN}) // 4-tuple reuse
	if ctx := a.flows[k]; ctx.pending != nil || ctx.pendingBytes != 0 {
		t.Fatalf("a restart kept the previous connection's map: %v", ctx.pending)
	}
}
