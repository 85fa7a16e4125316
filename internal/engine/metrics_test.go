package engine

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"matchfilter/internal/faultinject"
	"matchfilter/internal/flow"
	"matchfilter/internal/pcap"
	"matchfilter/internal/telemetry"
)

// TestTierGaugeTracksLadder drives the ladder the way fault_test.go
// does — a test-set memory pressure under the drop policy — and asserts
// at every rung that the telemetry gauge, the tier-enter counters, and
// engine.Stats agree. The gauge is the live serving signal; Stats is the
// source of truth; they must never diverge.
func TestTierGaugeTracksLadder(t *testing.T) {
	reg := telemetry.NewRegistry()
	var mem dial
	e := New(Config{Shards: 1, DropWhenFull: true, MemPressure: mem.read, Metrics: reg},
		func() flow.Runner { return faultinject.Discard }, nil)
	k := pcap.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}

	tierGauge := func() Tier {
		return Tier(int32(reg.Snapshot().Value("mfa_engine_tier")))
	}
	enters := func(tier Tier) float64 {
		m, ok := reg.Snapshot().Get("mfa_engine_tier_enters_total", telemetry.L("tier", tier.String()))
		if !ok {
			t.Fatalf("no tier_enters series for %v", tier)
		}
		return m.Value
	}

	if got := tierGauge(); got != TierNormal {
		t.Fatalf("initial tier gauge = %v, want normal", got)
	}

	// Past the hard watermark, dispatch drops the flood.
	mem.set(1)
	const total = 40
	for _, seg := range segsOn(k, total) {
		if err := e.HandleSegment(seg); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Tier != TierHard {
		t.Fatalf("Stats.Tier = %v at pressure 1, want hard", st.Tier)
	}
	if got := tierGauge(); got != TierHard {
		t.Errorf("tier gauge = %v while Stats.Tier = %v", got, st.Tier)
	}
	for tier := TierNormal; tier <= TierHard; tier++ {
		if got, want := enters(tier), float64(st.TierEnters[tier]); got != want {
			t.Errorf("tier_enters_total{tier=%q} = %v, Stats.TierEnters = %v", tier, got, want)
		}
	}
	if hd := reg.Snapshot().Value("mfa_engine_hard_drops_total"); hd != float64(st.HardDrops) || hd != total {
		t.Errorf("hard_drops_total = %v, Stats.HardDrops = %d (want both %d)", hd, st.HardDrops, total)
	}

	// Pressure recedes: the next dispatch steps the ladder back down and
	// the gauge follows.
	mem.set(0)
	if err := e.HandleSegment(pcap.Segment{Key: k, Seq: total + 1, Flags: pcap.FlagACK, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Tier != TierNormal {
		t.Fatalf("Stats.Tier = %v after pressure receded, want normal", st.Tier)
	}
	if got := tierGauge(); got != TierNormal {
		t.Errorf("tier gauge = %v after pressure receded, want normal", got)
	}
	for tier := TierNormal; tier <= TierHard; tier++ {
		if got, want := enters(tier), float64(st.TierEnters[tier]); got != want {
			t.Errorf("back at normal: tier_enters_total{tier=%q} = %v, Stats.TierEnters = %v", tier, got, want)
		}
	}
	// Time spent at the hard tier must be accounted in the seconds
	// counter too (Stats proved TierTime > 0 in fault_test.go).
	hardSecs, ok := reg.Snapshot().Get("mfa_engine_tier_seconds_total", telemetry.L("tier", "hard"))
	if !ok || hardSecs.Value <= 0 {
		t.Errorf("tier_seconds_total{tier=hard} = %+v, want > 0", hardSecs)
	}
}

// mirrors checks a row table against the registry: every row's series in
// snap, under labels, has the row's kind and the value the row reads from
// the Stats value itself — from lo and hi, taken either side of snap, for
// the rows that move with the clock.
func mirrors[T any](t *testing.T, snap telemetry.Snapshot, rows []telemetry.Row[T], lo, hi *T, labels ...telemetry.Label) {
	t.Helper()
	for _, row := range rows {
		m, ok := snap.Get(row.Name, labels...)
		if !ok || m.Kind != row.Kind || m.Value < row.Get(lo) || m.Value > row.Get(hi) {
			t.Errorf("%s%v = %+v (registered %t), want %s in [%v, %v]", row.Name, labels, m.Value, ok, row.Kind, row.Get(lo), row.Get(hi))
		}
	}
}

// unserved names the exported fields of T that no row reads: made nonzero
// alone in a zero T, they move no row's value. This is where reflection
// lives — in the test; the tables themselves are explicit.
func unserved[T any](tables ...[]telemetry.Row[T]) []string {
	var names []string
	var zero T
	rt := reflect.TypeOf(zero)
	for i := 0; i < rt.NumField(); i++ {
		var probe T
		if !rt.Field(i).IsExported() || !poke(reflect.ValueOf(&probe).Elem().Field(i)) {
			continue
		}
		served := false
		for _, rows := range tables {
			for _, row := range rows {
				served = served || row.Get(&probe) != row.Get(&zero)
			}
		}
		if !served {
			names = append(names, rt.Field(i).Name)
		}
	}
	return names
}

// poke makes a numeric value nonzero — every element of an array, one
// element of a slice or map — and reports whether v was any of those.
func poke(v reflect.Value) bool {
	switch {
	case v.CanInt():
		v.SetInt(1)
	case v.CanUint():
		v.SetUint(1)
	case v.CanFloat():
		v.SetFloat(1)
	case v.Kind() == reflect.Array:
		ok := false
		for i := 0; i < v.Len(); i++ {
			ok = poke(v.Index(i)) || ok
		}
		return ok
	case v.Kind() == reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		return poke(v.Index(0))
	case v.Kind() == reflect.Map:
		elem := reflect.New(v.Type().Elem()).Elem()
		if !poke(elem) {
			return false
		}
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(reflect.Zero(v.Type().Key()), elem)
	default:
		return false
	}
	return true
}

// checkUnserved fails on a field that has neither a row nor a reason here
// for having none, and on a reason gone stale.
func checkUnserved(t *testing.T, what string, got []string, reasons map[string]string) {
	t.Helper()
	for _, name := range got {
		if reasons[name] == "" {
			t.Errorf("%s.%s is served by no row: add one to the table, or the reason here", what, name)
		}
		delete(reasons, name)
	}
	for name := range reasons {
		t.Errorf("%s.%s is excused but served (or gone)", what, name)
	}
}

// TestStatsFieldsAreServed: a counter added to Stats or flow.Stats without
// a series breaks the build. A flow.Stats field is served by its per-shard
// row, or through Stats.fold by an engine-wide one.
func TestStatsFieldsAreServed(t *testing.T) {
	var tiers []telemetry.Row[Stats]
	for tier := TierNormal; tier <= TierHard; tier++ {
		tiers = append(tiers, tierRows(tier)...)
	}
	checkUnserved(t, "engine.Stats", unserved(engineRows, tiers), map[string]string{
		"ShardMatches":    "served per shard (shardRows): mfa_shard_matches_total",
		"ShardPackets":    "served per shard (shardRows): mfa_shard_packets_total",
		"GenFlows":        "the owned per-generation gauges, mfa_generation_live_flows and mfa_tenant_generation_live_flows (generation.go)",
		"AcceptVisits":    "served per shard (shardRows); the total is the family's sum",
		"LockstepBytes":   "served per shard (shardRows)",
		"SequentialBytes": "served per shard (shardRows)",
	})
	var perShard, folded []telemetry.Row[flow.Stats]
	for _, row := range shardRows {
		perShard = append(perShard, telemetry.Row[flow.Stats]{Get: func(a *flow.Stats) float64 {
			return row.Get(&shardStats{Stats: *a})
		}})
	}
	for _, row := range engineRows {
		folded = append(folded, telemetry.Row[flow.Stats]{Get: func(a *flow.Stats) float64 {
			var st Stats
			st.fold(a)
			return row.Get(&st)
		}})
	}
	checkUnserved(t, "shardStats", unserved(shardRows), nil)
	checkUnserved(t, "flow.Stats", unserved(perShard, folded), map[string]string{
		"SkippedFrames": "counted by Assembler.HandleFrame, which shards never call; the engine counts its own (Stats.SkippedFrames)",
		"Generation":    "the shard's view of what mfa_generation reports from the engine (Stats.Generation)",
		"FlowsByGen":    "folded into Stats.GenFlows: the per-generation gauges",
	})
}

// TestMetricsMirrorStats scans real traffic through an instrumented
// engine and checks every row table, the exact reassembly gauges, the
// per-shard histograms, and the event ring against the final (exact)
// Stats snapshot — and that a scrape reads Stats once.
func TestMetricsMirrorStats(t *testing.T) {
	reg := telemetry.NewRegistry()
	ring := telemetry.NewEventRing(16)
	m := buildMFA(t, "attack.*payload", "needle")
	capture := interleavedCapture(t, 6, 2<<10, []string{"attack", "payload", "needle"})

	e := New(Config{Shards: 4, QueueDepth: 256, Metrics: reg, Events: ring, StallDeadline: time.Minute},
		func() flow.Runner { return m.NewRunner() }, nil)
	feedCapture(t, e, capture)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	before := e.Stats()
	snap := reg.Snapshot()
	st := e.Stats()
	mirrors(t, snap, engineRows, &before, &st)
	for tier := TierNormal; tier <= TierHard; tier++ {
		mirrors(t, snap, tierRows(tier), &before, &st, telemetry.L("tier", tier.String()))
	}
	for i, s := range e.shards {
		a := s.stats()
		mirrors(t, snap, shardRows, &a, &a, telemetry.L("shard", strconv.Itoa(i)))
	}
	if st.Packets == 0 || st.FlowsTotal == 0 || snap.Value("mfa_engine_queue_capacity") != 4*256 {
		t.Errorf("packets %d, flows %d, queue capacity %v", st.Packets, st.FlowsTotal, snap.Value("mfa_engine_queue_capacity"))
	}

	// One scrape is one Stats call, whatever the number of series: the
	// engine's own registration, replayed on a second registry with the
	// read counted (the shard goroutines are gone, so re-handing them
	// histograms races with nothing).
	reads, reg2 := 0, telemetry.NewRegistry()
	e.registerMetrics(reg2, func() Stats { reads++; return e.Stats() })
	if n := len(reg2.Snapshot()); reads != 1 || n < len(engineRows) {
		t.Errorf("a scrape of %d series read Stats %d times, want once", n, reads)
	}
	if st.Matches == 0 {
		t.Fatal("trace produced no matches; test is vacuous")
	}

	// Per-shard series must sum to the aggregate and match ShardPackets.
	// The histograms observe once per payload-bearing window — both of
	// them, so their counts agree — and a window holds at least one
	// segment, so the count is bounded by the shard's packets and, summed,
	// by the capture's payload-segment total. The machine counters are
	// exact after Close: every payload byte was scanned by one of the two
	// loops, and every window's lanes were observed.
	var histTotal uint64
	var visits, lockstep, sequential float64
	for i := range st.ShardPackets {
		label := telemetry.L("shard", strconv.Itoa(i))
		ms, ok := snap.Get("mfa_shard_packets_total", label)
		if !ok || ms.Value != float64(st.ShardPackets[i]) {
			t.Errorf("shard_packets_total{shard=%d} = %+v, want %d", i, ms, st.ShardPackets[i])
		}
		h, ok := snap.Get("mfa_shard_scan_seconds", label)
		if !ok || h.Hist == nil {
			t.Fatalf("no scan histogram for shard %d", i)
		}
		wf, ok := snap.Get("mfa_shard_window_flows", label)
		if !ok || wf.Hist == nil {
			t.Fatalf("no window-flows histogram for shard %d", i)
		}
		if h.Hist.Count != wf.Hist.Count || h.Hist.Count > uint64(st.ShardPackets[i]) || (h.Hist.Count == 0) != (st.ShardPackets[i] == 0) {
			t.Errorf("shard %d: %d scan observations, %d window-flows observations, %d packets; want one of each per window",
				i, h.Hist.Count, wf.Hist.Count, st.ShardPackets[i])
		}
		if wf.Hist.Sum < float64(wf.Hist.Count) {
			t.Errorf("shard %d: %v lanes over %d payload-bearing windows", i, wf.Hist.Sum, wf.Hist.Count)
		}
		histTotal += h.Hist.Count
		for name, into := range map[string]*float64{
			"mfa_scan_accept_visits_total":    &visits,
			"mfa_scan_lockstep_bytes_total":   &lockstep,
			"mfa_scan_sequential_bytes_total": &sequential,
		} {
			m, ok := snap.Get(name, label)
			if !ok {
				t.Fatalf("no %s series for shard %d", name, i)
			}
			*into += m.Value
		}
	}
	if max := countPayloadSegments(t, capture); histTotal == 0 || histTotal > max {
		t.Errorf("scan histogram observations = %d, want 1..%d (one per payload-bearing window)", histTotal, max)
	}
	if visits != float64(st.AcceptVisits) || lockstep != float64(st.LockstepBytes) || sequential != float64(st.SequentialBytes) {
		t.Errorf("machine counters %v/%v/%v, Stats %d/%d/%d", visits, lockstep, sequential, st.AcceptVisits, st.LockstepBytes, st.SequentialBytes)
	}
	if st.AcceptVisits < st.Matches || st.LockstepBytes+st.SequentialBytes != st.PayloadBytes {
		t.Errorf("%d accept visits for %d matches; %d lockstep + %d sequential bytes of %d payload",
			st.AcceptVisits, st.Matches, st.LockstepBytes, st.SequentialBytes, st.PayloadBytes)
	}

	// Reassembly gauges: after Close every flow was torn down or is
	// still live; live flows stay in the gauge.
	if got := snap.Value("mfa_reasm_live_flows"); got != float64(st.FlowsLive) {
		t.Errorf("reasm_live_flows = %v, Stats.FlowsLive = %d", got, st.FlowsLive)
	}

	// Every confirmed match landed in the ring (ring capacity 16 may
	// truncate the tail but Total is exact).
	if ring.Total() != st.Matches {
		t.Errorf("event ring Total = %d, Stats.Matches = %d", ring.Total(), st.Matches)
	}
	tail := ring.Tail(0)
	if len(tail) == 0 {
		t.Fatal("event ring empty")
	}
	for _, ev := range tail {
		if ev.Flow == "" || ev.Pattern == 0 {
			t.Errorf("malformed event: %+v", ev)
		}
	}

	// The exposition path renders without error.
	if err := snap.WritePrometheus(discardWriter{}); err != nil {
		t.Errorf("WritePrometheus: %v", err)
	}
}

// heldWindow makes a one-shard engine scan segs as a single flush window.
// It first sends one segment of a flow of its own whose match handler
// parks the shard (onMatch must call hold for every match), queues segs
// behind it, and releases the shard — which drains them all before it
// flushes (len(segs) must not exceed batchBurst or the queue depth).
type heldWindow struct {
	key     pcap.FlowKey
	entered chan struct{}
	release chan struct{}
}

func newHeldWindow() *heldWindow {
	return &heldWindow{
		key:     pcap.FlowKey{SrcIP: 0x0a0000fe, DstIP: 0xc0a80101, SrcPort: 9, DstPort: 80},
		entered: make(chan struct{}), release: make(chan struct{}),
	}
}

func (h *heldWindow) hold(m Match) {
	if m.Flow == h.key {
		close(h.entered)
		<-h.release
	}
}

// run sends the parking segment (payload must make the engine's rules
// match exactly once), then segs, then releases the shard.
func (h *heldWindow) run(t *testing.T, e *Engine, payload string, segs []pcap.Segment) {
	t.Helper()
	if err := e.HandleSegment(pcap.Segment{Key: h.key, Seq: 1, Flags: pcap.FlagACK, Payload: []byte(payload)}); err != nil {
		t.Fatal(err)
	}
	<-h.entered
	for _, seg := range segs {
		if err := e.HandleSegment(seg); err != nil {
			t.Fatal(err)
		}
	}
	close(h.release)
}

// TestOneObservationPerWindow pins the unit of the shard's bookkeeping: 41
// payload segments arriving as two windows (1 + 40 over 8 flows) are two
// observations of the scan-latency histogram and two of the window-flows
// histogram, carrying 1 and 8 lanes — not one per segment, and not one
// for reassembly plus one for the flush.
func TestOneObservationPerWindow(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := buildMFA(t, "needle")
	h := newHeldWindow()
	e := New(Config{Shards: 1, QueueDepth: 64, Metrics: reg},
		func() flow.Runner { return m.NewRunner() }, h.hold)
	var segs []pcap.Segment
	for i := 0; i < 40; i++ {
		k := pcap.FlowKey{SrcIP: 0x0a000001 + uint32(i%8), DstIP: 0xc0a80101, SrcPort: 20000, DstPort: 80}
		segs = append(segs, pcap.Segment{Key: k, Seq: uint32(1 + i/8*9), Flags: pcap.FlagACK, Payload: []byte("a needle.")})
	}
	h.run(t, e, "needle", segs)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st, snap := e.Stats(), reg.Snapshot()
	if st.Packets != 41 || st.Matches != 41 {
		t.Fatalf("scanned %d packets with %d matches, want 41 and 41", st.Packets, st.Matches)
	}
	label := telemetry.L("shard", "0")
	scan, _ := snap.Get("mfa_shard_scan_seconds", label)
	flows, _ := snap.Get("mfa_shard_window_flows", label)
	if scan.Hist == nil || flows.Hist == nil || scan.Hist.Count != 2 || flows.Hist.Count != 2 || flows.Hist.Sum != 1+8 {
		t.Fatalf("scan histogram %+v, window-flows histogram %+v; want 2 observations each, 9 lanes", scan.Hist, flows.Hist)
	}
	if st.LockstepBytes != 40*9 || st.SequentialBytes != 6 {
		t.Errorf("lockstep %d bytes, sequential %d; want the 8-lane window's 360 and the lone lane's 6", st.LockstepBytes, st.SequentialBytes)
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestMetricsScrapeDuringScan scrapes the registry from two goroutines
// concurrently with a live scan — the reader-never-perturbs-writer
// contract under -race.
func TestMetricsScrapeDuringScan(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := buildMFA(t, "attack.*payload")
	capture := interleavedCapture(t, 4, 4<<10, []string{"attack", "payload"})

	e := New(Config{Shards: 2, QueueDepth: 64, Metrics: reg, Events: telemetry.NewEventRing(8)},
		func() flow.Runner { return m.NewRunner() }, nil)
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 2; i++ { // two: concurrent scrapes each take their own Stats
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				snap := reg.Snapshot()
				_ = snap.WritePrometheus(discardWriter{})
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	feedCapture(t, e, capture)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	scrapers.Wait()
	st := e.Stats()
	if got := reg.Snapshot().Value("mfa_engine_packets_total"); got != float64(st.Packets) {
		t.Errorf("post-close packets_total = %v, want %d", got, st.Packets)
	}
}

// countPayloadSegments decodes a capture and counts the TCP segments
// carrying payload — the segments the scan histograms time.
func countPayloadSegments(t *testing.T, capture []byte) uint64 {
	t.Helper()
	pr, err := pcap.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	var n uint64
	for {
		pkt, err := pr.Next()
		if errors.Is(err, io.EOF) {
			return n
		}
		if err != nil {
			t.Fatal(err)
		}
		seg, err := pcap.DecodeTCP(pkt.Data)
		if err != nil {
			continue
		}
		if len(seg.Payload) > 0 {
			n++
		}
	}
}

// feedCapture pumps a raw pcap byte capture through the engine.
func feedCapture(t *testing.T, e *Engine, capture []byte) {
	t.Helper()
	pr, err := pcap.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	for {
		pkt, err := pr.Next()
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := e.HandleFrame(pkt.Data); err != nil {
			t.Fatal(err)
		}
	}
}
