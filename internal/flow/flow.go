// Package flow reassembles TCP streams from packet captures and drives a
// matching engine over each flow's in-order payload. This is the §III-B
// "multiplexed flows" path of the paper: the scanner keeps one small
// context per flow — for the MFA, the (q, m) pair — and packets of many
// interleaved connections advance their own flow's context independently.
//
// An Assembler is deliberately single-threaded: it owns a private flow
// table with no locks anywhere on its hot path. Concurrency is layered on
// top by internal/engine, which runs one Assembler per shard and routes
// every segment of a flow to the same shard.
package flow

import (
	"container/list"
	"errors"
	"fmt"
	"io"

	"matchfilter/internal/pcap"
)

// Runner is the per-flow matching context every engine in this repository
// provides (dfa, core, hfa, xfa all satisfy it).
type Runner interface {
	// Feed advances the flow over in-order payload bytes.
	Feed(data []byte, onMatch func(id int32, pos int64))
	// Reset rewinds the context for reuse on a new flow.
	Reset()
}

// Match is one confirmed match attributed to a flow.
type Match struct {
	Flow pcap.FlowKey
	ID   int32
	Pos  int64
}

// Batcher defers per-flow scan work so many flows can be stepped in
// lockstep (core.FlowBatcher is the implementation; the interface keeps
// this package engine-agnostic). The contract the assembler depends on:
//
//   - Add either takes ownership of data until the next Flush and
//     returns true, or returns false, in which case the caller scans
//     inline. Chunks Added for one runner scan in arrival order. An Add
//     that finds the batch full flushes it first, and may therefore
//     panic as Flush does — with data queued nonetheless. Add may also
//     scan data before it returns; a panic with nothing in TakeDead is
//     the added flow's own.
//   - Flush scans everything pending and empties the batch even if a
//     callback panics — and isolates such a panic to the offending
//     flow's lane: sibling flows in the window still complete, then the
//     first panic re-raises. TakeDead then returns (once) the tag of
//     every flow whose lane died, so a shard's recover path can tear
//     down exactly those flows and carry on.
//   - Contains reports pending work for a runner; the assembler flushes
//     before any lifecycle event that would Reset, recycle or discard a
//     runner Contains reports true for.
//   - Counts reports cumulative work: lanes flushed, the accept states
//     they visited, and the bytes scanned in lockstep and sequentially.
//
// Deferred data must stay valid until the flush: the assembler passes
// either payload slices whose backing buffers the caller keeps alive
// across the flush (internal/engine holds its arena leases until after
// FlushBatch) or its own heap-copied out-of-order buffers.
type Batcher interface {
	Add(runner, tag any, data []byte, onMatch func(id int32, pos int64)) bool
	Flush()
	TakeDead() []any
	Contains(runner any) bool
	Counts() (lanes, acceptVisits, lockstepBytes, sequentialBytes int64)
}

// Config bounds the reassembler.
type Config struct {
	// MaxFlows caps tracked flows; 0 means unlimited. When the table is
	// full, a new flow evicts the least-recently-seen one (counted in
	// Stats.EvictedCap) rather than being silently rejected.
	MaxFlows int
	// Gauges, when non-nil, receives live occupancy updates (flows,
	// buffered out-of-order segments and bytes) as the assembler works.
	// The gauges are atomics, so they may be read from any goroutine and
	// shared between assemblers; see gauges.go.
	Gauges *Gauges
	// NewBatcher, when non-nil, supplies a Batcher per assembler and
	// switches in-order payload delivery from scan-on-arrival to
	// deferred batched lockstep scanning. Callers that hand the
	// assembler transient payload buffers must then keep them alive
	// until FlushBatch returns.
	NewBatcher func() Batcher
}

// Assembler demultiplexes TCP segments into flows, restores byte order,
// and feeds each flow's stream to a Runner obtained from the factory.
// Torn-down flows return their runner to a pool, so long-running
// assemblers allocate one runner per *concurrent* flow, not per
// connection. An Assembler is not safe for concurrent use.
type Assembler struct {
	cfg   Config
	flows map[pcap.FlowKey]*flowCtx
	lru   *list.List // *flowCtx; front = most recently seen
	// def is the default tenant (tag 0): its free list recycles Reset
	// runners of its *current* generation across flows. The assembler is
	// single-threaded, so a plain bounded slice beats sync.Pool and makes
	// generation hygiene trivial: a generation swap empties the list, so
	// a stale runner can never serve a new-generation flow.
	def *tenantState
	// tenants holds nonzero-tagged tenants' serving state (tenant.go);
	// nil until SetGeneration installs one, so the single-tenant path
	// never pays for multi-tenancy.
	tenants map[uint32]*tenantState
	gens    map[uint64]*genState // generations with live flows (plus currents)
	onMatch func(Match)
	// batch, when non-nil, receives in-order payload for deferred
	// lockstep scanning instead of the immediate per-segment Feed. Every
	// runner-lifecycle path (teardown, restart, quarantine, generation
	// and tenant swaps) flushes first when the affected runner has
	// pending work, so a deferred scan can never run against a reset,
	// recycled or reassigned runner.
	batch Batcher
	now   int64 // logical clock: segments handled so far
	// st is where the assembler counts: Stats returns it with the derived
	// fields filled in. SequentialBytes holds the bytes scanned on arrival
	// (not through the batcher) until Stats adds the batcher's own, which
	// include the lanes it handed to Feed.
	st         Stats
	lanesTaken int64 // the batcher's lane count at the last TakeLanes
	// maxBuffered caps out-of-order segments held per flow; overflow
	// drops the oldest. It starts at defaultMaxBuffered (SetMaxBuffered).
	maxBuffered int
	// Live gauge accounting (gauges.go); no-ops when Config.Gauges is nil.
	gLive    gaugeAcct
	gPending gaugeAcct
	gBytes   gaugeAcct
}

// defaultMaxBuffered is an assembler's per-flow out-of-order segment
// cap until SetMaxBuffered moves it.
const defaultMaxBuffered = 64

// maxFreeRunners bounds the recycled-runner free list. sync.Pool shed
// entries on GC; a slice does not, so a burst of concurrent flows must
// not pin runner memory forever.
const maxFreeRunners = 4096

type flowCtx struct {
	key pcap.FlowKey
	// tag is key boxed once, at flow creation: what the batcher is handed
	// with every chunk and names a dead lane by (BatchDead).
	tag    any
	runner Runner
	ten    *tenantState // tenant the flow is served under (def for tag 0)
	gen    *genState    // generation the runner was built for
	// cb is the flow's match callback, built once at flow creation so
	// neither the scan-on-arrival path nor the batcher allocates a
	// closure per segment.
	cb       func(id int32, pos int64)
	nextSeq  uint32
	started  bool
	lastSeen int64 // assembler clock at the flow's latest segment
	elem     *list.Element
	// pending holds out-of-order segments keyed by sequence number; nil
	// until the first one, so an in-order flow allocates no map.
	pending map[uint32][]byte
	order   []uint32 // insertion order, for bounded eviction
	// pendingBytes is the payload total held in pending, maintained so
	// gauge accounting never has to walk the map.
	pendingBytes int64
}

// NewAssembler creates an assembler. newRunner supplies per-flow contexts
// (recycled through an internal pool across flows) as the default
// tenant's implicit generation 0; nil means the default tenant has no
// rule set until SetGeneration(0, ...) installs one, and untagged
// segments drop as unknown-tenant meanwhile. onMatch (may be nil)
// receives every confirmed match.
func NewAssembler(cfg Config, newRunner func() Runner, onMatch func(Match)) *Assembler {
	a := &Assembler{
		cfg:         cfg,
		maxBuffered: defaultMaxBuffered,
		flows:       make(map[pcap.FlowKey]*flowCtx),
		lru:         list.New(),
		gens:        make(map[uint64]*genState),
		def:         &tenantState{},
		onMatch:     onMatch,
	}
	if newRunner != nil {
		a.SetGeneration(0, Generation{New: newRunner}, nil, false)
	}
	if cfg.NewBatcher != nil {
		a.batch = cfg.NewBatcher()
	}
	if g := cfg.Gauges; g != nil {
		a.gLive.g = g.LiveFlows
		a.gPending.g = g.PendingSegments
		a.gBytes.g = g.BufferedBytes
	}
	return a
}

// Stats reports reassembly counters.
type Stats struct {
	Packets       int64
	PayloadBytes  int64
	Flows         int
	OutOfOrder    int64
	DroppedSegs   int64
	SkippedFrames int64
	// FlowsTotal counts every flow ever created (live + finished).
	FlowsTotal int64
	// EvictedCap counts flows displaced by the MaxFlows cap — the flows
	// that before this counter existed were silently dropped.
	EvictedCap int64
	// EvictedIdle counts flows reclaimed by EvictIdle sweeps.
	EvictedIdle int64
	// RunnersReused counts new flows served from the runner pool instead
	// of a fresh newRunner allocation.
	RunnersReused int64
	// FlowRestarts counts 4-tuple reuse: a SYN arriving on a live flow
	// restarts it as a fresh connection (runner reset, out-of-order
	// buffer cleared) instead of bleeding the old connection's state.
	FlowRestarts int64
	// StaleRunners counts old-generation runners discarded instead of
	// recycled after a SetGeneration swap.
	StaleRunners int64
	// TenantDrops counts segments refused by tenant policy: an unknown
	// tenant tag, or a tenant over its flow/buffered-bytes quota (the
	// per-tenant split lives in each tenant's TenantAcct counters).
	TenantDrops int64
	// AcceptVisits, LockstepBytes and SequentialBytes are the batcher's
	// Counts — accept states visited, and payload bytes by scan loop: its
	// sequential bytes are the accept-dense flows' and those of the lanes no
	// lockstep quad takes — with the bytes scanned inline (no batcher, or a
	// runner the batcher refused) under sequential too.
	AcceptVisits    int64
	LockstepBytes   int64
	SequentialBytes int64
	// Generation is the generation id new flows start on; FlowsByGen
	// maps generation id to its live flows. FlowsByGen is nil until
	// SetGeneration has been called (the sequential scan path never
	// pays for it).
	Generation uint64
	FlowsByGen map[uint64]int64
}

// Stats returns the counters accumulated so far.
func (a *Assembler) Stats() Stats {
	st := a.st
	st.Flows = len(a.flows)
	if a.def.cur != nil {
		st.Generation = a.def.cur.gen.ID
	}
	if a.batch != nil {
		_, visits, lockstep, sequential := a.batch.Counts()
		st.AcceptVisits += visits
		st.LockstepBytes += lockstep
		st.SequentialBytes += sequential
	}
	if st.Generation != 0 || len(a.gens) > 1 {
		st.FlowsByGen = make(map[uint64]int64, len(a.gens))
		for id, g := range a.gens {
			st.FlowsByGen[id] = g.flows
		}
	}
	return st
}

// Carry continues a discarded assembler's cumulative counters in this
// one, so what a shard publishes stays monotonic across a rebuild; old's
// occupancy (live flows, generations) died with it.
func (a *Assembler) Carry(old Stats) {
	old.Flows, old.Generation, old.FlowsByGen = 0, 0, nil
	a.st = old
}

// HandleFrame decodes one Ethernet frame and advances its flow. Non-TCP
// frames are counted and skipped; decode errors on TCP frames are
// returned.
func (a *Assembler) HandleFrame(frame []byte) error {
	seg, err := pcap.DecodeTCP(frame)
	if err != nil {
		if errors.Is(err, pcap.ErrNotTCP) {
			a.st.SkippedFrames++
			return nil
		}
		return err
	}
	a.HandleSegment(seg)
	return nil
}

// HandleSegment advances one decoded TCP segment's flow. It is exported
// so callers that decode frames themselves — internal/engine's shards —
// can drive reassembly directly.
func (a *Assembler) HandleSegment(seg pcap.Segment) {
	a.st.Packets++
	a.now++
	ctx, ok := a.flows[seg.Key]
	if !ok {
		ts := a.tenantOf(seg.Key.Tenant)
		if ts == nil || !a.admitFlow(ts) {
			// Unknown tenant (e.g. a segment that raced a tenant DELETE
			// through a shard queue) or tenant over its flow quota.
			a.st.TenantDrops++
			return
		}
		if a.cfg.MaxFlows > 0 && len(a.flows) >= a.cfg.MaxFlows {
			a.evictOldest()
		}
		ctx = &flowCtx{
			key:    seg.Key,
			tag:    seg.Key,
			ten:    ts,
			runner: a.getRunner(ts),
			gen:    ts.cur,
			cb:     a.matchCB(seg.Key),
		}
		ctx.elem = a.lru.PushFront(ctx)
		a.flows[seg.Key] = ctx
		a.st.FlowsTotal++
		ts.cur.flows++
		ts.cur.live.add(1)
		a.gLive.add(1)
	} else {
		a.lru.MoveToFront(ctx.elem)
	}
	ctx.lastSeen = a.now

	if seg.Flags&pcap.FlagSYN != 0 {
		if ok {
			// 4-tuple reuse: the previous connection's FIN/RST was missed
			// and the key is back in service. Without a full restart the
			// old connection's DFA state, filter memory and out-of-order
			// buffer would bleed into the new one (false test-bit
			// confirmations on bytes the new connection never sent).
			a.restartFlow(ctx)
		}
		ctx.nextSeq = seg.Seq + 1
		ctx.started = true
		return
	}
	if !ctx.started {
		// Mid-stream pickup (no SYN observed): adopt the first data
		// segment's sequence as the stream origin.
		ctx.nextSeq = seg.Seq
		ctx.started = true
	}
	if len(seg.Payload) > 0 {
		a.deliver(seg.Key, ctx, seg.Seq, seg.Payload)
	}
	if seg.Flags&(pcap.FlagFIN|pcap.FlagRST) != 0 {
		// Flow teardown: the context is dropped and its runner recycled
		// through the pool for the next flow.
		a.removeFlow(ctx)
	}
}

// getRunner takes a recycled runner from the tenant's free list or
// allocates a fresh one from the tenant's current generation.
// Free-listed runners were Reset when put and always belong to that
// tenant's current generation (a generation swap empties the list), so
// they are start-of-flow.
func (a *Assembler) getRunner(ts *tenantState) Runner {
	if n := len(ts.free); n > 0 {
		r := ts.free[n-1]
		ts.free[n-1] = nil
		ts.free = ts.free[:n-1]
		a.st.RunnersReused++
		return r
	}
	return ts.cur.gen.New()
}

// removeFlow forgets a flow and recycles its runner — unless the runner
// belongs to a superseded generation, in which case it is discarded
// (counted in Stats.StaleRunners) so it can never serve a new flow.
func (a *Assembler) removeFlow(ctx *flowCtx) {
	a.flushIfBatched(ctx.runner)
	if ctx.gen != ctx.ten.cur {
		a.st.StaleRunners++
	} else if len(ctx.ten.free) < maxFreeRunners {
		ctx.runner.Reset()
		ctx.ten.free = append(ctx.ten.free, ctx.runner)
	}
	a.unlink(ctx)
}

// unlink is the one flow-teardown body: the flow leaves the table and the
// LRU list, its gauge contributions are withdrawn, and its generation
// loses a flow (and is forgotten with its last one, once superseded).
// What becomes of the runner — recycled, or dropped as stale or suspect —
// is the caller's decision, taken before the call.
func (a *Assembler) unlink(ctx *flowCtx) {
	delete(a.flows, ctx.key)
	a.lru.Remove(ctx.elem)
	a.gLive.add(-1)
	ctx.ten.gLive.add(-1)
	a.gPending.add(-int64(len(ctx.pending)))
	a.gBytes.add(-ctx.pendingBytes)
	ctx.ten.gBytes.add(-ctx.pendingBytes)
	ctx.pendingBytes = 0
	ctx.gen.flows--
	ctx.gen.live.add(-1)
	a.pruneGen(ctx.gen)
	ctx.runner = nil
}

// restartFlow rewinds a live flow for a brand-new connection on the same
// 4-tuple: matching state restarts from the initial state (on the
// current generation — a stale runner is replaced, not reset) and the
// previous connection's buffered out-of-order segments are discarded
// with their gauge contribution withdrawn.
func (a *Assembler) restartFlow(ctx *flowCtx) {
	a.flushIfBatched(ctx.runner)
	a.st.FlowRestarts++
	if len(ctx.pending) > 0 {
		a.gPending.add(-int64(len(ctx.pending)))
		a.gBytes.add(-ctx.pendingBytes)
		ctx.ten.gBytes.add(-ctx.pendingBytes)
		ctx.pending = nil
		ctx.order = ctx.order[:0]
		ctx.pendingBytes = 0
	}
	if ctx.gen == ctx.ten.cur {
		ctx.runner.Reset()
		return
	}
	a.st.StaleRunners++
	a.moveFlowGen(ctx, ctx.ten.cur)
	ctx.runner = a.getRunner(ctx.ten)
}

// DropFlow forgets a flow without recycling its runner. This is the
// quarantine path: after a runner panic the context may be mid-mutation,
// so the runner must not re-enter the pool where a future flow would
// inherit its corrupt state. Returns false if the flow is unknown.
//
// DropFlow is safe to call after a panic escaped HandleSegment: the
// assembler mutates its flow map and LRU list only before it calls into
// the runner, so those structures are consistent at every point a
// user-supplied Feed can panic.
func (a *Assembler) DropFlow(key pcap.FlowKey) bool {
	ctx, ok := a.flows[key]
	if !ok {
		return false
	}
	// A post-panic batch is already empty (Flush empties even when a
	// callback panics), so this only fires on administrative drops of a
	// healthy flow with deferred payload.
	a.flushIfBatched(ctx.runner)
	a.unlink(ctx) // the runner is NOT pooled: its state is suspect
	return true
}

// SetMaxBuffered adjusts the per-flow out-of-order buffer cap at runtime
// and eagerly trims every flow's pending set down to the new cap (oldest
// first, counted in Stats.DroppedSegs). The degradation ladder uses this
// to shed reassembly memory under pressure; passing the original cap
// restores normal buffering (already-trimmed segments stay dropped).
func (a *Assembler) SetMaxBuffered(n int) {
	if n <= 0 {
		n = defaultMaxBuffered
	}
	shrink := n < a.maxBuffered
	a.maxBuffered = n
	if !shrink {
		return
	}
	for _, ctx := range a.flows {
		for len(ctx.order) > n {
			oldest := ctx.order[0]
			ctx.order = ctx.order[1:]
			a.removePending(ctx, oldest)
			a.st.DroppedSegs++
		}
	}
}

// removePending deletes one buffered segment and settles its gauge and
// byte accounting.
func (a *Assembler) removePending(ctx *flowCtx, seq uint32) {
	n := int64(len(ctx.pending[seq]))
	delete(ctx.pending, seq)
	ctx.pendingBytes -= n
	a.gPending.add(-1)
	a.gBytes.add(-n)
	ctx.ten.gBytes.add(-n)
}

// MaxBuffered reports the current per-flow out-of-order buffer cap.
func (a *Assembler) MaxBuffered() int { return a.maxBuffered }

// evictOldest reclaims the least-recently-seen flow to make room under
// MaxFlows.
func (a *Assembler) evictOldest() {
	back := a.lru.Back()
	if back == nil {
		return
	}
	a.removeFlow(back.Value.(*flowCtx))
	a.st.EvictedCap++
}

// EvictIdle reclaims every flow whose last segment is more than maxAge
// segments in the past (on the assembler's logical clock, which ticks
// once per HandleSegment). It returns the number of flows evicted.
// Periodic sweeps keep the table bounded when connections vanish without
// FIN/RST — the common case for scanned or half-open traffic.
func (a *Assembler) EvictIdle(maxAge int64) int {
	n := 0
	for {
		back := a.lru.Back()
		if back == nil {
			break
		}
		ctx := back.Value.(*flowCtx)
		if a.now-ctx.lastSeen <= maxAge {
			break
		}
		a.removeFlow(ctx)
		a.st.EvictedIdle++
		n++
	}
	return n
}

// deliver handles one data segment: in-order data feeds the engine
// immediately, future data is buffered, stale/duplicate data is trimmed
// or dropped.
func (a *Assembler) deliver(key pcap.FlowKey, ctx *flowCtx, seq uint32, payload []byte) {
	switch {
	case seq == ctx.nextSeq:
		a.feed(key, ctx, payload)
	case seqAfter(seq, ctx.nextSeq):
		// Future segment: buffer until the gap fills.
		a.st.OutOfOrder++
		if acct := ctx.ten.acct; acct != nil {
			if max := acct.MaxBufferedBytes.Load(); max > 0 && acct.BufferedBytes.Value()+int64(len(payload)) > max {
				// Tenant over its buffered-bytes quota: shed this
				// segment rather than grow the tenant's reassembly
				// footprint. Other tenants buffer unaffected.
				acct.ByteQuotaDrops.Inc()
				a.st.TenantDrops++
				return
			}
		}
		if len(ctx.pending) >= a.maxBuffered {
			oldest := ctx.order[0]
			ctx.order = ctx.order[1:]
			a.removePending(ctx, oldest)
			a.st.DroppedSegs++
		}
		if ctx.pending == nil {
			ctx.pending = make(map[uint32][]byte)
		}
		if _, dup := ctx.pending[seq]; !dup {
			buf := make([]byte, len(payload))
			copy(buf, payload)
			ctx.pending[seq] = buf
			ctx.order = append(ctx.order, seq)
			ctx.pendingBytes += int64(len(buf))
			a.gPending.add(1)
			a.gBytes.add(int64(len(buf)))
			ctx.ten.gBytes.add(int64(len(buf)))
		}
		return
	default:
		// Stale or overlapping: trim the already-delivered prefix.
		skip := ctx.nextSeq - seq
		if uint32(len(payload)) <= skip {
			a.st.DroppedSegs++
			return
		}
		a.feed(key, ctx, payload[skip:])
	}
	// Drain any buffered segments that are now in order.
	for len(ctx.pending) > 0 {
		p, ok := ctx.pending[ctx.nextSeq]
		if !ok {
			return
		}
		seq := ctx.nextSeq
		a.removePending(ctx, seq)
		removeSeq(&ctx.order, seq)
		a.feed(key, ctx, p)
	}
}

func (a *Assembler) feed(key pcap.FlowKey, ctx *flowCtx, data []byte) {
	ctx.nextSeq += uint32(len(data))
	a.st.PayloadBytes += int64(len(data))
	if a.batch != nil && a.batch.Add(ctx.runner, ctx.tag, data, ctx.cb) {
		return // deferred: scanned in lockstep at the next flush
	}
	a.st.SequentialBytes += int64(len(data))
	ctx.runner.Feed(data, ctx.cb)
}

// matchCB builds a flow's per-match callback once, at flow creation.
func (a *Assembler) matchCB(key pcap.FlowKey) func(id int32, pos int64) {
	if a.onMatch == nil {
		return func(int32, int64) {}
	}
	return func(id int32, pos int64) {
		a.onMatch(Match{Flow: key, ID: id, Pos: pos})
	}
}

// FlushBatch scans all deferred payload now. It is a no-op without a
// configured Batcher. Callers that lease payload buffers to the
// assembler may reclaim them once this returns.
func (a *Assembler) FlushBatch() {
	if a.batch != nil {
		a.batch.Flush()
	}
}

// BatchDead returns (once) the keys of the flows whose lanes died in
// batch flushes — the flows a shard's recover path must quarantine after
// a panic surfaced from FlushBatch or from a flush HandleSegment ran.
func (a *Assembler) BatchDead() []pcap.FlowKey {
	if a.batch == nil {
		return nil
	}
	var keys []pcap.FlowKey
	for _, tag := range a.batch.TakeDead() {
		if k, ok := tag.(pcap.FlowKey); ok {
			keys = append(keys, k)
		}
	}
	return keys
}

// InlineBytes reports the payload bytes scanned on arrival by runners the
// batcher refused (all of them without a batcher), on top of whatever
// Carry brought in: it moves exactly when a segment is scanned inline.
func (a *Assembler) InlineBytes() int64 { return a.st.SequentialBytes }

// TakeLanes returns how many lanes the batcher has flushed since the last
// call.
func (a *Assembler) TakeLanes() int64 {
	if a.batch == nil {
		return 0
	}
	lanes, _, _, _ := a.batch.Counts()
	n := lanes - a.lanesTaken
	a.lanesTaken = lanes
	return n
}

// flushIfBatched flushes deferred work before a lifecycle event on
// ctx.runner (teardown, restart, quarantine), so the batcher never
// scans a reset or recycled runner.
func (a *Assembler) flushIfBatched(r Runner) {
	if a.batch != nil && a.batch.Contains(r) {
		a.batch.Flush()
	}
}

// seqAfter reports whether a is after b in 32-bit sequence space.
func seqAfter(a, b uint32) bool { return int32(a-b) > 0 }

func removeSeq(order *[]uint32, seq uint32) {
	for i, s := range *order {
		if s == seq {
			*order = append((*order)[:i], (*order)[i+1:]...)
			return
		}
	}
}

// ScanPcap reads a full capture from r and runs every TCP payload byte
// through engines built by newRunner, returning the reassembly stats.
// This is the measurement path of the Figure 4 experiment. For the
// concurrent counterpart see internal/engine.ScanPcap.
func ScanPcap(r io.Reader, cfg Config, newRunner func() Runner, onMatch func(Match)) (Stats, error) {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return Stats{}, err
	}
	a := NewAssembler(cfg, newRunner, onMatch)
	for {
		pkt, err := pr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return a.Stats(), fmt.Errorf("flow: %w", err)
		}
		if err := a.HandleFrame(pkt.Data); err != nil {
			return a.Stats(), fmt.Errorf("flow: %w", err)
		}
	}
	a.FlushBatch()
	return a.Stats(), nil
}
