// Shard worker loop and fault supervision.
//
// Each shard goroutine is a supervisor around its flow.Assembler. The
// failure model follows from the paper's flow independence: per-flow
// matching state is a tiny private (q, m) context, so a panic raised
// while scanning one flow's bytes implicates only that flow — the
// assembler's shared structures (flow map, LRU list) are never
// mid-mutation at the points user-supplied matcher code runs. Recovery
// is therefore two-tier:
//
//  1. Quarantine: the offending flow's context is excised (its runner is
//     not recycled — the state is suspect) and its key is blacklisted, so
//     later segments of the same flow are drop-counted instead of
//     re-triggering the fault. All other flows on the shard keep their
//     exact match state.
//  2. Rebuild: if excision itself panics, the assembler's invariants are
//     broken beyond one flow; the shard discards it, counts the lost
//     flows, and rebuilds a fresh assembler, preserving cumulative
//     counters across the swap.
//
// A shard that keeps panicking is burning CPU on a hostile input or a
// real matcher bug; after crashBudget recovered panics it is marked
// unhealthy and its segments are drop-counted (never crashing the
// engine), keeping the other shards' service intact.
package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"matchfilter/internal/burst"
	"matchfilter/internal/flow"
	"matchfilter/internal/pcap"
	"matchfilter/internal/telemetry"
)

// shard is one goroutine's private scanning lane.
type shard struct {
	idx int
	// in carries dispatched segments together with the leases on their
	// payload buffers (nil for ordinarily-allocated payloads). The shard
	// releases a window's leases once its segments have been consumed —
	// scanned or drop-counted — at which point the assembler has copied
	// any bytes it still needs.
	in  *burst.Queue
	asm *flow.Assembler
	// rebuild constructs a fresh assembler wired to this shard's match
	// counter — the recovery path of last resort.
	rebuild func() *flow.Assembler
	// quarantined holds poisoned flow keys; only the shard goroutine
	// touches it.
	quarantined map[pcap.FlowKey]struct{}

	// Pending rule-set commands (generation.go): at most one per tenant
	// index, merged by post and applied on the shard goroutine before the
	// next segment; the poster pokes the queue so a swap is not stuck
	// behind a quiet one. pending keeps the hot path to one atomic load.
	cmdMu   sync.Mutex
	cmds    map[uint32]swapCmd
	pending atomic.Bool

	// matches is updated on every confirmed match; snap mirrors the
	// assembler's counters every statsEvery segments and at exit, so
	// outside observers never touch the assembler itself.
	matches atomic.Int64
	snap    atomic.Pointer[flow.Stats]

	// scanHist and flowsHist, when non-nil, observe each payload-bearing
	// window once: its latency (reassembly + matching) and how many lanes
	// its flushes carried. Set before the shard goroutine starts
	// (engine.New registers metrics first), touched only by the goroutine.
	scanHist, flowsHist *telemetry.Histogram
	// evClock makes window read the clock once into evNano, which the
	// match callback uses to stamp ring events — a window's matches cost
	// one clock read, not one each. Both fields stay on the shard goroutine
	// (set before start / the match callback runs inside the window).
	evClock bool
	evNano  int64

	// taken counts segments swapped out of the queue, a window at a time;
	// processed those consumed (scanned or drop-counted), one at a time. A
	// window stalled on its first segment still holds the rest, so the
	// shard's backlog is queued(), not in.Len(). exited flips when the
	// goroutine returns.
	taken     atomic.Int64
	processed atomic.Int64
	exited    atomic.Bool

	// Supervision counters.
	panics         atomic.Int64
	poisoned       atomic.Int64
	poisonedDrops  atomic.Int64
	restarts       atomic.Int64
	lostFlows      atomic.Int64
	unhealthy      atomic.Bool
	unhealthyDrops atomic.Int64

	// Stall-watchdog heartbeat (watchdog.go), one per window. hb arms it
	// (set before the goroutine starts). hbSeq/hbStart follow the
	// guard.Target protocol — the writer stores start=0, then seq=n+1,
	// then start=now, so the watchdog can never blame a fresh beat for an
	// old one's age. stalledSeq is the beat the watchdog flagged; the shard
	// compares it with hseq, the beat in progress (0 when the watchdog is
	// off), around the code that can stall — a match handler call (deliver),
	// an inline scan (process) — and collects the flows to blame in stalled
	// until the supervised call returns. wedged flips when the scan outlives
	// four deadlines, making dispatch shed this shard's traffic into
	// wedgeDrops.
	// stallRecovered counts flagged scans that did return.
	hb             bool
	hbSeq          atomic.Int64
	hbStart        atomic.Int64
	hseq           int64
	stalled        []pcap.FlowKey
	stalledSeq     atomic.Int64
	wedged         atomic.Bool
	stallRecovered atomic.Int64
	wedgeDrops     atomic.Int64
}

// crashBudget is how many recovered panics a shard tolerates before it
// is marked unhealthy: its remaining and future segments are
// drop-counted (Stats.UnhealthyDrops) instead of scanned, and the engine
// keeps serving on the other shards.
const crashBudget = 8

// sweepEvery caps how often (in segments) a shard runs its idle sweep at
// the normal tier, degradedSweepEvery while degraded. A shorter idle age
// sweeps every age segments instead, so an idle flow is gone within two
// ages.
const (
	sweepEvery         = 4096
	degradedSweepEvery = sweepEvery / 8
)

// statsEvery is how often (in segments) a shard refreshes its published
// stats snapshot. Snapshots are therefore at most this stale while the
// engine runs; Close publishes a final exact snapshot.
const statsEvery = 64

// queued is the shard's backlog in segments: what waits in its queue plus
// what the window in progress has taken and not yet consumed. It feeds
// the depth gauges, Stats and drain progress.
func (s *shard) queued() int {
	done := s.processed.Load() // before taken: the difference never reads negative
	return s.in.Len() + int(s.taken.Load()-done)
}

func (s *shard) publish() {
	st := s.asm.Stats()
	s.snap.Store(&st)
}

// batchBurst bounds how many already-queued segments a shard consumes per
// lockstep window before it flushes: the most its queue hands over in one
// burst. The bound keeps match latency and held-buffer count proportional
// to the queue's actual backlog, never unbounded.
const batchBurst = burst.Max

// loopState is the run loop's per-shard mutable state, shared by window
// and step.
type loopState struct {
	normalBuf    int
	degradedIdle int64 // Config.degradedIdle, worked out once
	appliedTier  Tier
	n            int64
	// Whether any segment of the window in progress carried payload.
	payload bool
}

func (s *shard) run(e *Engine) {
	defer func() {
		s.exited.Store(true)
		s.publish()
		e.wg.Done()
	}()
	ls := &loopState{normalBuf: s.asm.MaxBuffered(), degradedIdle: e.cfg.degradedIdle(), appliedTier: TierNormal}
	var items []burst.Item
	for {
		var open bool
		if items, open = s.in.Take(items); !open {
			return
		}
		if len(items) == 0 {
			// Poked on an otherwise idle shard: apply the pending swap now,
			// not when the next segment happens to arrive, so a reload's
			// gauges and reset take effect promptly engine-wide. The batch
			// is empty here: every window flushes before the loop blocks.
			s.applyPending()
			continue
		}
		s.window(e, items, ls)
		// A degraded engine must be able to step back down with no new
		// burst arriving: when this shard's queue runs dry — its window's
		// leases released — re-read the pressure.
		if Tier(e.tier.Load()) != TierNormal && s.queued() == 0 {
			e.evalPressure()
		}
	}
}

// window is the shard's one dequeue path: it consumes the burst the queue
// handed over — everything that was queued, up to batchBurst — each
// payload-bearing segment deferring its scan into the batcher, then
// flushes once, stepping all those flows' automata in lockstep, and
// releases the burst's leases. A quiet queue is the one-segment window:
// scan on arrival. The window is also the unit of bookkeeping: one clock
// read (stamping its matches' ring events), one heartbeat, one observation
// of each histogram.
func (s *shard) window(e *Engine, items []burst.Item, ls *loopState) {
	var t0 time.Time
	if s.hb || s.scanHist != nil || s.evClock {
		t0 = e.clock.Now()
		s.evNano = t0.UnixNano()
	}
	s.hseq, ls.payload = s.beat(s.evNano), false
	s.taken.Add(int64(len(items)))
	e.queuedBytes.Add(-unleasedBytes(items)) // what dispatch charged
	for i := range items {
		s.step(e, items[i].Seg, ls)
	}
	s.flushScan(e)
	if ls.payload && s.scanHist != nil {
		// Only windows that fed the matcher: pure SYN/ACK/FIN bookkeeping
		// would just pile sub-microsecond noise into the lowest bucket.
		s.scanHist.ObserveDuration(e.clock.Now().Sub(t0))
		s.flowsHist.Observe(float64(s.asm.TakeLanes()))
	}
	if s.hseq != 0 {
		s.hbStart.Store(0)
		if s.stalledSeq.Load() == s.hseq {
			// Outlived the deadline in the shard's own loops, not in a match
			// handler or inline scan: no offender, just count the recovery.
			s.stallReturned(e)
		}
	}
	// The batcher referenced the payload bytes until the flush, so the
	// leased buffers go back to their arena only now — also those of
	// segments scanned inline or dropped: tracking ownership per segment
	// would cost more than the short extra hold.
	burst.Release(items)
}

// beat publishes a fresh stall-watchdog heartbeat — start=0, seq=n+1,
// start=now, the order the watchdog's race-free read depends on — and
// returns its sequence number, 0 when the watchdog is off.
func (s *shard) beat(now int64) int64 {
	if !s.hb {
		return 0
	}
	s.hbStart.Store(0)
	seq := s.hbSeq.Add(1)
	s.hbStart.Store(now)
	return seq
}

// step consumes one segment of the window: accounting, supervision gates,
// degradation reactions, reassembly (which defers the scan into the
// batcher) and the periodic sweeps.
func (s *shard) step(e *Engine, seg pcap.Segment, ls *loopState) {
	// Apply a pending swap before scanning, so every segment dispatched
	// after the install returned is scanned post-swap (a flow it creates
	// starts on the new generation). Deferred work never crosses a
	// generation boundary — the swap paths flush the batch
	// (flow.SetGeneration) — so flush it here first, under the supervisor:
	// a match handler's panic then costs its flow, not the swap or the
	// shard.
	if s.pending.Load() {
		s.flushScan(e)
		s.applyPending()
	}
	ls.n++
	if ls.n%statsEvery == 0 {
		s.publish()
	}
	s.processed.Add(1)
	if s.wedged.Load() {
		// This goroutine is demonstrably live, so a wedge mark here is
		// residue of the watchdog's escalation landing just as the stuck
		// step returned (stallReturned clears it in the normal order).
		// Lift it before the unhealthy gate below drops scannable work.
		s.wedged.Store(false)
		if s.panics.Load() < crashBudget {
			s.unhealthy.Store(false)
		}
	}
	if s.unhealthy.Load() {
		s.unhealthyDrops.Add(1)
		return
	}
	if _, bad := s.quarantined[seg.Key]; bad {
		s.poisonedDrops.Add(1)
		return
	}
	if tier := Tier(e.tier.Load()); tier != ls.appliedTier {
		if tier >= TierSoft && ls.appliedTier == TierNormal {
			// Entering degradation: shed reassembly memory now and
			// sweep idle flows aggressively.
			s.asm.SetMaxBuffered(max(ls.normalBuf/8, 4))
			s.sweep(e, ls.degradedIdle)
		} else if tier == TierNormal {
			s.asm.SetMaxBuffered(ls.normalBuf)
		}
		ls.appliedTier = tier
	}
	if len(seg.Payload) > 0 {
		ls.payload = true
	}
	s.process(e, seg)
	idleAfter, every := e.cfg.IdleAfter, int64(sweepEvery)
	if ls.appliedTier >= TierSoft {
		idleAfter, every = ls.degradedIdle, degradedSweepEvery
	}
	if idleAfter > 0 && ls.n%min(idleAfter, every) == 0 {
		s.sweep(e, idleAfter)
	}
}

// process reassembles one segment under the shard's supervisor, and
// answers for the one stall no match handler sees: the watchdog flagging
// the window while a runner the batcher refuses scanned this segment
// inline — that flow's own Feed wedged the shard.
func (s *shard) process(e *Engine, seg pcap.Segment) {
	defer s.supervise(e, &seg.Key)
	inline := s.asm.InlineBytes()
	s.asm.HandleSegment(seg)
	if s.hseq != 0 && s.stalledSeq.Load() == s.hseq && s.asm.InlineBytes() != inline {
		s.blameStall(e, seg.Key)
	}
}

// flushScan scans every deferred payload of the window under the same
// supervisor.
func (s *shard) flushScan(e *Engine) {
	defer s.supervise(e, nil)
	s.asm.FlushBatch()
}

// sweep evicts idle flows. Evicting a flow with deferred payload flushes
// the batch (flow.removeFlow), so the window's deferred scans are flushed
// first, under the supervisor.
func (s *shard) sweep(e *Engine, idleAfter int64) {
	s.flushScan(e)
	s.asm.EvictIdle(idleAfter)
}

// supervise is deferred around the two calls that run matcher code. It
// recovers a panic and quarantines the flows to blame: every flow the
// batcher reports dead when the panic surfaced from a flush — the window's
// own, or one HandleSegment triggered (a full batch self-flushing, a
// FIN/restart flushing before a runner lifecycle event) — since the
// batcher finishes the healthy lanes first, so every other batched flow's
// written-back state stays good; otherwise inline, the flow whose segment
// was being scanned. Panic or not, it then quarantines the flows blamed
// for stalls while the call ran: a flow cannot be excised mid-scan.
func (s *shard) supervise(e *Engine, inline *pcap.FlowKey) {
	if recover() != nil {
		s.panics.Add(1)
		dead := s.asm.BatchDead()
		if len(dead) == 0 && inline != nil {
			dead = append(dead, *inline)
		}
		for _, key := range dead {
			s.quarantine(key)
		}
		s.publish()
		if s.panics.Load() >= crashBudget {
			s.unhealthy.Store(true)
		}
	}
	for _, key := range s.stalled { // the poison path a panic takes
		s.quarantine(key)
		s.stallReturned(e)
	}
	s.stalled = s.stalled[:0]
}

// deliver calls the engine's match handler for m. With the watchdog armed,
// the flow whose handler call the watchdog's flag lands in is the one that
// stalled the window; a flag already up before the call is not this
// flow's doing (window reports it, blaming nobody).
func (s *shard) deliver(e *Engine, onMatch func(Match), m Match) {
	late := s.hseq == 0 || s.stalledSeq.Load() == s.hseq
	onMatch(m)
	if !late && s.stalledSeq.Load() == s.hseq {
		s.blameStall(e, m.Flow)
	}
}

// blameStall records key for quarantine when the supervised call in
// progress returns, and gives the rest of the window a fresh beat.
func (s *shard) blameStall(e *Engine, key pcap.FlowKey) {
	s.stalled = append(s.stalled, key)
	s.hseq = s.beat(e.clock.Now().UnixNano())
}

// quarantine blacklists a flow and excises it from the assembler. A scan
// can both stall and panic; the poison accounting must not double.
func (s *shard) quarantine(key pcap.FlowKey) {
	if _, dup := s.quarantined[key]; dup {
		return
	}
	s.quarantined[key] = struct{}{}
	s.poisoned.Add(1)
	s.excise(key)
}

// stallReturned counts a flagged scan that did return. If the stall had
// escalated to a wedge, the shard re-enters service — the goroutine is
// demonstrably live — unless its crash budget is already spent.
func (s *shard) stallReturned(e *Engine) {
	s.stallRecovered.Add(1)
	e.lastStallRecovery.Store(e.clock.Now().UnixNano())
	if s.wedged.Swap(false) && s.panics.Load() < crashBudget {
		s.unhealthy.Store(false)
	}
	s.publish()
}

// excise removes a poisoned flow from the assembler. If the assembler is
// corrupt beyond that one flow — the excision itself panics — the shard
// rebuilds a fresh assembler that carries the old one's counters on, and
// counts the innocent flows that lost their state.
func (s *shard) excise(key pcap.FlowKey) {
	defer func() {
		if recover() == nil {
			return
		}
		old := s.asm.Stats()
		s.lostFlows.Add(int64(old.Flows))
		// The discarded assembler's occupancy must leave any shared
		// gauges; ReleaseGauges subtracts tracked contributions without
		// walking the (possibly corrupt) tables.
		s.asm.ReleaseGauges()
		s.asm = s.rebuild()
		s.asm.Carry(old)
		s.restarts.Add(1)
	}()
	s.asm.DropFlow(key)
}
