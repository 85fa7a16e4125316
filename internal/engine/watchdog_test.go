// Stall-watchdog tests: a scan step wedged in matcher code is detected
// within the configured deadline, the offending flow is quarantined
// through the poison path when the step returns, and a wedged shard
// sheds its traffic with exact accounting — all without stalling
// sibling shards or leaking goroutines. The stall timing runs on a
// manual clock, stated in watchdog polls (a quarter deadline each).
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"matchfilter/internal/core"
	"matchfilter/internal/faultinject"
	"matchfilter/internal/flow"
	"matchfilter/internal/leakcheck"
	"matchfilter/internal/pcap"
)

// keyOnShard finds an untagged flow key that shardIndex maps to the wanted
// shard.
func keyOnShard(t *testing.T, want, shards int) pcap.FlowKey {
	t.Helper()
	return keyFor(t, 0, want, shards)
}

// waitStats polls the engine until cond holds or the deadline passes.
// It yields rather than sleeps between polls: what it waits for is shard
// progress, never a timer.
func waitStats(t *testing.T, e *Engine, what string, cond func(Stats) bool) Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var st Stats
	for time.Now().Before(deadline) {
		st = e.Stats()
		if cond(st) {
			return st
		}
		runtime.Gosched()
	}
	t.Fatalf("timed out waiting for %s; stats %+v", what, st)
	return st
}

// The stall deadline of the clock-driven tests, and the watchdog's poll
// period at it.
const (
	stallDeadline = 10 * time.Millisecond
	poll          = stallDeadline / 4
)

// feedHook runs hook before every Feed of the runner it wraps.
type feedHook struct {
	flow.Runner
	hook func()
}

func (f feedHook) Feed(data []byte, onMatch func(int32, int64)) {
	f.hook()
	f.Runner.Feed(data, onMatch)
}

// stallOnSignalled is faultinject.StallOn that also closes entered when a
// runner is first fed: the shard is inside its window, its heartbeat
// stamped, once entered is closed.
func stallOnSignalled(token string, gate <-chan struct{}, entered chan struct{}) func() flow.Runner {
	var once sync.Once
	return func() flow.Runner {
		return feedHook{faultinject.StallOn([]byte(token), gate, faultinject.Discard), func() { once.Do(func() { close(entered) }) }}
	}
}

// TestStallWatchdogQuarantinesFlow is the acceptance scenario: a flow
// that wedges its shard mid-scan is detected on the poll that finds it a
// deadline old and quarantined when the scan returns, while a sibling
// shard keeps scanning throughout, and the accounting identity holds.
func TestStallWatchdogQuarantinesFlow(t *testing.T) {
	leakcheck.Check(t)
	clk := useManualClock(t)
	const token = "\x00WEDGE\x00"
	gate, entered := make(chan struct{}), make(chan struct{})
	e := New(Config{
		Shards: 2, QueueDepth: 64,
		StallDeadline: stallDeadline,
		SoftWatermark: 1.1, HardWatermark: 1.2,
	}, stallOnSignalled(token, gate, entered), nil)
	defer e.Close()

	stallKey := keyOnShard(t, 0, 2)
	okKey := keyOnShard(t, 1, 2)
	var sent int64

	// Wedge shard 0 on the poisoned flow's first payload.
	if err := e.HandleSegment(pcap.Segment{Key: stallKey, Seq: 1, Flags: pcap.FlagACK, Payload: []byte(token)}); err != nil {
		t.Fatal(err)
	}
	sent++
	<-entered

	// The watchdog flags the stuck step on its fourth poll, a deadline
	// in, and not before — while the step is still stuck.
	clk.Ticks(t, poll, 3)
	if st := e.Stats(); st.StallFires != 0 {
		t.Fatalf("StallFires = %d three polls into a four-poll deadline", st.StallFires)
	}
	clk.Ticks(t, poll, 1)
	if st := e.Stats(); st.StallFires != 1 {
		t.Fatalf("StallFires = %d on the deadline's poll, want 1", st.StallFires)
	}

	// The sibling shard keeps scanning while shard 0 is stuck. (The
	// published Stats snapshot lags by up to statsEvery segments, so
	// read the sibling's exact processed counter directly.)
	for i := 0; i < 32; i++ {
		if err := e.HandleSegment(pcap.Segment{Key: okKey, Seq: uint32(1 + i), Flags: pcap.FlagACK, Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	sibling := e.shards[1]
	waitStats(t, e, "sibling progress", func(Stats) bool { return sibling.processed.Load() >= 32 })
	if st := e.Stats(); st.StallsRecovered != 0 || st.PoisonedFlows != 0 {
		t.Fatalf("recovery accounted before the step returned: %+v", st)
	}

	// Release the stuck scan: the shard must quarantine the flow through
	// the poison path and count the recovery.
	close(gate)
	waitStats(t, e, "stall recovery", func(st Stats) bool { return st.StallsRecovered == 1 })
	st := e.Stats()
	if st.PoisonedFlows != 1 {
		t.Fatalf("PoisonedFlows = %d after recovery, want 1", st.PoisonedFlows)
	}
	if st.ShardPanics != 0 {
		t.Fatalf("a stall is not a panic: ShardPanics = %d", st.ShardPanics)
	}
	if st.UnhealthyShards != 0 || st.WedgedShards != 0 {
		t.Fatalf("un-wedged stall must not bench the shard: %+v", st)
	}

	// The quarantine is sticky: later segments of the stalled flow are
	// drop-counted without re-entering the matcher.
	for i := 0; i < 5; i++ {
		if err := e.HandleSegment(pcap.Segment{Key: stallKey, Seq: uint32(100 + i), Flags: pcap.FlagACK, Payload: []byte("y")}); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.PoisonedDrops != 5 {
		t.Errorf("PoisonedDrops = %d, want 5", st.PoisonedDrops)
	}
	if got := st.Packets + st.QueueDrops + st.HardDrops + st.PoisonedDrops + st.UnhealthyDrops + st.WedgeDrops; got != sent {
		t.Errorf("accounting: %d accounted != %d sent (%+v)", got, sent, st)
	}
	if st.QueuedBytes != 0 {
		t.Errorf("QueuedBytes = %d after drain, want 0", st.QueuedBytes)
	}
}

// TestStallRecoveryDegradedWindow: a recovered stall reads as recent on
// the engine's clock for one minute — still at 59 s, no longer at 60 s —
// which is the window /healthz reports it in.
func TestStallRecoveryDegradedWindow(t *testing.T) {
	leakcheck.Check(t)
	clk := useManualClock(t)
	const token = "\x00WEDGE\x00"
	gate, entered := make(chan struct{}), make(chan struct{})
	e := New(Config{Shards: 1, QueueDepth: 64, StallDeadline: stallDeadline},
		stallOnSignalled(token, gate, entered), nil)
	defer e.Close()
	if _, recent := e.RecentStallRecovery(); recent {
		t.Fatal("a recent stall recovery before any stall")
	}
	if err := e.HandleSegment(pcap.Segment{Key: keyOnShard(t, 0, 1), Seq: 1, Flags: pcap.FlagACK, Payload: []byte(token)}); err != nil {
		t.Fatal(err)
	}
	<-entered
	clk.Ticks(t, poll, 4)
	if st := e.Stats(); st.StallFires != 1 {
		t.Fatalf("StallFires = %d a deadline in, want 1", st.StallFires)
	}
	close(gate)
	waitStats(t, e, "stall recovery", func(st Stats) bool { return st.StallsRecovered == 1 })

	clk.Advance(59 * time.Second)
	if ago, recent := e.RecentStallRecovery(); !recent || ago != 59*time.Second {
		t.Fatalf("59 s after the recovery: ago %v, recent %v; want 59s, true", ago, recent)
	}
	clk.Advance(time.Second)
	if ago, recent := e.RecentStallRecovery(); recent || ago != time.Minute {
		t.Fatalf("60 s after the recovery: ago %v, recent %v; want 1m0s, false", ago, recent)
	}
}

// TestWedgeEscalationShedsAndRecovers: a stall still stuck at four
// deadlines benches the shard — dispatch sheds its traffic with
// accounting instead of blocking — and the shard re-enters service when
// the stuck step finally returns.
func TestWedgeEscalationShedsAndRecovers(t *testing.T) {
	leakcheck.Check(t)
	clk := useManualClock(t)
	const token = "\x00WEDGE\x00"
	gate, entered := make(chan struct{}), make(chan struct{})
	e := New(Config{
		Shards: 1, QueueDepth: 64,
		StallDeadline: stallDeadline,
		SoftWatermark: 1.1, HardWatermark: 1.2,
	}, stallOnSignalled(token, gate, entered), nil)
	defer e.Close()

	wedgeKey := pcap.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	var sent int64
	if err := e.HandleSegment(pcap.Segment{Key: wedgeKey, Seq: 1, Flags: pcap.FlagACK, Payload: []byte(token)}); err != nil {
		t.Fatal(err)
	}
	sent++
	<-entered

	// Escalation, on the poll that finds the step four deadlines old: the
	// shard is benched and counts as unhealthy.
	clk.Ticks(t, poll, 15)
	if st := e.Stats(); st.WedgedShards != 0 || st.StallFires != 1 {
		t.Fatalf("a poll short of four deadlines: WedgedShards %d, StallFires %d; want 0, 1", st.WedgedShards, st.StallFires)
	}
	clk.Ticks(t, poll, 1)
	if st := e.Stats(); st.WedgedShards != 1 || st.UnhealthyShards != 1 {
		t.Fatalf("at four deadlines: WedgedShards %d, UnhealthyShards %d; want 1, 1", st.WedgedShards, st.UnhealthyShards)
	}

	// Dispatch now sheds instead of blocking behind the stuck goroutine
	// (this would deadlock under backpressure without the wedge gate).
	const shed = 10
	for i := 0; i < shed; i++ {
		if err := e.HandleSegment(pcap.Segment{Key: wedgeKey, Seq: uint32(10 + i), Flags: pcap.FlagACK, Payload: []byte("z")}); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	if st := e.Stats(); st.WedgeDrops != shed {
		t.Fatalf("WedgeDrops = %d, want %d", st.WedgeDrops, shed)
	}

	// The step returns: flow quarantined, shard back in service.
	close(gate)
	waitStats(t, e, "recovery", func(st Stats) bool {
		return st.StallsRecovered == 1 && st.WedgedShards == 0 && st.UnhealthyShards == 0
	})

	// A fresh flow scans normally on the recovered shard.
	okKey := pcap.FlowKey{SrcIP: 9, DstIP: 8, SrcPort: 7, DstPort: 6}
	if err := e.HandleSegment(pcap.Segment{Key: okKey, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	sent++
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Packets != 2 { // the stalled segment itself + the fresh flow's
		t.Errorf("Packets = %d, want 2", st.Packets)
	}
	if got := st.Packets + st.QueueDrops + st.HardDrops + st.PoisonedDrops + st.UnhealthyDrops + st.WedgeDrops; got != sent {
		t.Errorf("accounting: %d accounted != %d sent (%+v)", got, sent, st)
	}
}

// TestWatchdogNoFalsePositives: ordinary traffic under a generous
// deadline must never trip the watchdog or touch the poison path.
func TestWatchdogNoFalsePositives(t *testing.T) {
	leakcheck.Check(t)
	e := New(Config{
		Shards: 2, QueueDepth: 64,
		StallDeadline: time.Second,
	}, func() flow.Runner { return faultinject.Discard }, nil)
	for f := 0; f < 8; f++ {
		k := pcap.FlowKey{SrcIP: uint32(f + 1), DstIP: 2, SrcPort: 3, DstPort: 4}
		for i := 0; i < 50; i++ {
			if err := e.HandleSegment(pcap.Segment{Key: k, Seq: uint32(1 + i), Flags: pcap.FlagACK, Payload: []byte("x")}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.StallFires != 0 || st.StallsRecovered != 0 || st.PoisonedFlows != 0 || st.WedgeDrops != 0 {
		t.Fatalf("false positive on clean traffic: %+v", st)
	}
	if st.Packets != 400 {
		t.Fatalf("Packets = %d, want 400", st.Packets)
	}
}

// TestStallBlamesTheSlowHandler: flows stepped in lockstep share a window
// and its heartbeat, so the flow to quarantine is the one whose match
// handler was running when the watchdog fired — not the seventeenth flow
// whose segment happened to trigger a full batch's flush, and not nobody
// when the handler stalls in the window's final flush.
func TestStallBlamesTheSlowHandler(t *testing.T) {
	m := buildMFA(t, "xmrig")
	key := func(i int) pcap.FlowKey {
		return pcap.FlowKey{SrcIP: 0x0a000001 + uint32(i), DstIP: 0xc0a80101, SrcPort: 20000, DstPort: 80}
	}
	for _, tc := range []struct {
		name  string
		flows int
	}{
		{"self-flush", core.MaxBatchFlows + 1},
		{"final flush", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			clk := useManualClock(t)
			h := newHeldWindow()
			slow := key(3)
			got := map[pcap.FlowKey]int{}
			var slept atomic.Bool
			slowIn, slowOut := make(chan struct{}), make(chan struct{})
			e := New(Config{
				Shards: 1, QueueDepth: 64,
				StallDeadline: stallDeadline,
			}, func() flow.Runner { return m.NewRunner() },
				func(mt Match) {
					h.hold(mt)
					got[mt.Flow]++
					if mt.Flow == slow {
						// Slow work: the handler runs until the test has
						// driven a deadline of watchdog polls past it.
						close(slowIn)
						<-slowOut
						slept.Store(true)
					}
				})
			defer e.Close()
			var segs []pcap.Segment
			for i := 0; i < tc.flows; i++ {
				segs = append(segs, pcap.Segment{Key: key(i), Seq: 1, Flags: pcap.FlagACK, Payload: []byte("..xmrig..")})
			}
			h.run(t, e, "xmrig", segs)
			<-slowIn
			clk.Ticks(t, poll, 4) // the last poll flags the handler
			close(slowOut)
			// Once the handler has returned, the flow is quarantined before
			// the shard steps another segment: this one is dropped.
			waitStats(t, e, "the slow handler", func(Stats) bool { return slept.Load() })
			if err := e.HandleSegment(pcap.Segment{Key: slow, Seq: 10, Flags: pcap.FlagACK, Payload: []byte("xmrig")}); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			if _, ok := e.shards[0].quarantined[slow]; !ok || st.StallsRecovered < 1 {
				t.Errorf("slow flow not quarantined (StallsRecovered %d): %v", st.StallsRecovered, e.shards[0].quarantined)
			}
			// The clock stands still while the parking flow waits, so it
			// is as innocent as every other flow.
			for k := range e.shards[0].quarantined {
				if k != slow {
					t.Errorf("innocent flow %v quarantined", k)
				}
			}
			if st.PoisonedDrops != 1 || st.ShardPanics != 0 || st.WedgedShards != 0 {
				t.Errorf("PoisonedDrops %d, ShardPanics %d, WedgedShards %d; want 1, 0, 0",
					st.PoisonedDrops, st.ShardPanics, st.WedgedShards)
			}
			for i := 0; i < tc.flows; i++ {
				if got[key(i)] != 1 {
					t.Errorf("flow %d delivered %d matches, want 1", i, got[key(i)])
				}
			}
		})
	}
}
