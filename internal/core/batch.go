package core

import "matchfilter/internal/dfa"

// Batched lockstep multi-flow scanning. The single-flow Feed loop is a
// serial dependency chain — each transition-table load must retire
// before the next can issue — so on table-resident working sets the
// core sits latency-bound, not bandwidth-bound. A FlowBatcher collects
// the deferred scan work of up to MaxBatchFlows *independent* flows and
// steps them in lockstep, so several independent table lookups are in
// flight at once and the loads' latencies overlap (the Hyperflex
// observation, realized without SIMD). Two loops share each round: four
// lanes of one table walk together through dfa.WalkLanes — record, then
// drain, as Feed's block loop does for one flow — and the lanes no such
// quad takes are strip-mined through a byte step of their own. In both,
// only each lane's own table load is on its carried chain.
//
// Match-equivalence invariant: lockstep reorders work ACROSS flows,
// never within one. Each lane consumes its own chunks strictly in
// order, runs its own filter memory/registers, and reports through its
// own callback, so every flow's (ruleID, pos) stream is byte-identical
// to what the sequential scanner produces — property-tested in
// batch_test.go and layout_equiv_test.go across both layouts.
//
// A batch may mix runners from different MFAs (multi-tenant shards,
// cross-generation drains) and of either layout: every automaton is the
// one table shape of internal/dfa, so lanes carry their own table views;
// each round gathers the lanes of one table into quads, and the leftover
// loop steps lanes of any table side by side. Two kinds of flow take
// Feed's block loop instead, because lockstep has nothing to give them: a
// lane left alone (no second chain to overlap with), and a flow whose last
// scan went to the filter rather than to waiting on table loads, which Add
// scans on arrival (acceptDenseDiv).

// MaxBatchFlows caps the lockstep width: four quads of the lane kernel
// when one table serves the shard. 16 lanes saturate the load-miss
// parallelism of current cores (10–16 outstanding L1 misses) while keeping
// per-lane cursors within the L1 working set; wider batches add
// bookkeeping without more overlap.
const MaxBatchFlows = 16

// acceptDenseDiv is the routing constant: a flow whose last scan (a lane's
// flush window, or one chunk) visited an accept state more than once per
// acceptDenseDiv bytes is filter-bound — its time goes to accept programs
// and callbacks, which lockstep cannot overlap and only interrupts, and
// which Feed's block loop takes off the walk's load chains altogether — and
// its next chunk is scanned by Feed. Read off BenchmarkRoutingSweep on C8
// and S24 ∪ CTR24 (DESIGN.md §18) when Feed walked one chain: lockstep
// won up to a visit per 33 bytes and lost by a quarter at one per 10. With
// quads through dfa.WalkLanes lockstep won up to about a visit per 100
// bytes; since Feed walks four chains a block, lockstep wins only on
// visit-free text (Feed is ahead from a visit per 300 bytes). The
// constant stays: the verdict is per scan, often one short segment, and
// near either crossover a single visit in a 96-byte segment would send
// the flow's next chunk to Feed. Real flows sit far to either side
// (< 10⁻⁴, 0.002 or ≈ 0.1 per byte).
const acceptDenseDiv = 32

// batchLane is one flow's deferred scan work plus its lockstep cursor.
type batchLane struct {
	r    *Runner
	tag  any
	cb   MatchFunc
	data []byte   // chunk currently being scanned
	more [][]byte // further chunks queued by Add, in arrival order
	next int      // index in more of the chunk after data

	// Views resolved at flush time from r's MFA, cached in the lane so
	// the round loop never chases r→mfa→field pointers.
	trans        []uint32
	classOf      []uint8
	div          dfa.StrideDiv // row base → state number
	scaledAccept uint32        // acceptStart × row stride

	st  uint32 // cursor: the row base of the current state
	pos int64  // stream position lockstep has stepped the lane to
	i   int    // bytes of data consumed

	// The runner's position and accept visits when the flush began: what
	// the lane's window is measured against when it retires.
	pos0, visits0 int64

	// dead marks a lane whose match callback (or filter program)
	// panicked: the lane stops stepping, its remaining chunks are
	// dropped and its runner state is not written back (the flow is
	// about to be quarantined). Sibling lanes finish their window.
	dead bool
}

// FlowBatcher implements batched lockstep scanning over core Runners.
// It satisfies the flow.Batcher interface without importing it. Not
// safe for concurrent use: like the Runners it drives, a batcher
// belongs to one shard goroutine.
type FlowBatcher struct {
	k     int
	lanes []batchLane

	// The lockstep window in progress. Its cursors live here, not in
	// lockstep's frame, so that window's one recover can see which lane
	// was being stepped, kill it, and re-enter the loop where it stopped:
	// active are the lanes still stepping, round marks a round begun (l,
	// quads, st, win and rest filled in), x the lane whose user code runs.
	// The first phase is at quad q's strip at offset s, its record in rec
	// and being drained when draining is set; the second at the strip j0 and
	// the lane rest[r], stepping each lane x from offset from[x].
	active   []*batchLane
	act      [MaxBatchFlows]*batchLane
	st       [MaxBatchFlows]uint32
	win      [MaxBatchFlows][]byte
	round    bool
	l        int
	x        int
	quads    int
	q, s     int
	draining bool
	rec      dfa.Lanes
	rest     []int
	restOf   [MaxBatchFlows]int
	from     [MaxBatchFlows]int
	j0, r    int

	// Tags of the lanes that died since TakeDead, and the first panic's
	// value: re-raised by finish once every healthy lane has completed its
	// window, so a hostile callback cannot cost siblings their scans.
	dead []any
	pv   any

	// Cumulative work counters (Counts).
	nLanes, nVisits, nLockstep, nSequential int64

	// The block record of every Feed the batcher makes, kept so that a
	// short one does not clear it (Runner.feed). Last, so that lockstep's
	// cursors above keep their offsets.
	blk dfa.Quarters
}

// NewFlowBatcher returns a batcher stepping up to k flows in lockstep;
// k is clamped to [1, MaxBatchFlows].
func NewFlowBatcher(k int) *FlowBatcher {
	if k < 1 {
		k = 1
	}
	if k > MaxBatchFlows {
		k = MaxBatchFlows
	}
	return &FlowBatcher{k: k, lanes: make([]batchLane, 0, k)}
}

// Add defers data for runner, reporting matches through onMatch at the
// next Flush. It returns false — meaning the caller must scan inline —
// when runner is not a *core.Runner (e.g. a test decorator). A second
// Add for a runner already in the batch queues the chunk behind the
// first, preserving the flow's byte order; between flushes a runner
// must keep belonging to the same flow (flush before recycling). When
// the batch is full, Add flushes it and starts the next one; data is
// queued even when that flush re-raises a panic. An accept-dense flow is
// not deferred at all: Add scans data before it returns, and a panic of
// that flow's own code propagates with nothing for TakeDead to name.
func (b *FlowBatcher) Add(runner, tag any, data []byte, onMatch func(int32, int64)) bool {
	r, ok := runner.(*Runner)
	if !ok {
		return false
	}
	if r.dense { // so not in the batch: the verdict is a finished scan's
		visits := r.visits
		r.feed(data, onMatch, &b.blk)
		b.account(r, r.visits-visits, 0, int64(len(data)))
		return true
	}
	for i := range b.lanes {
		if b.lanes[i].r == r {
			b.lanes[i].more = append(b.lanes[i].more, data)
			return true
		}
	}
	full := len(b.lanes) >= b.k
	if full {
		b.scan()
	}
	// Extend in place (lanes has capacity k and is never full here) rather
	// than append a literal: a lane is mostly flush-time state, and the
	// slot's more keeps its backing array from window to window.
	n := len(b.lanes)
	b.lanes = b.lanes[:n+1]
	la := &b.lanes[n]
	la.r, la.tag, la.cb, la.data = r, tag, onMatch, data
	la.more, la.next, la.i, la.dead = la.more[:0], 0, 0, false
	if full {
		b.finish()
	}
	return true
}

// Len returns the number of flows with pending deferred work.
func (b *FlowBatcher) Len() int { return len(b.lanes) }

// TakeDead returns the tags of the flows whose lanes died — every one,
// not just the flow whose panic Flush re-raised — and forgets them. The
// shard's recover quarantines each, mirroring the single-flow path.
func (b *FlowBatcher) TakeDead() []any {
	dead := b.dead
	b.dead = nil
	return dead
}

// Counts returns the batcher's cumulative work: lanes flushed, the accept
// states its flows visited, and the bytes the lockstep loop and the
// single-flow loop scanned (dead lanes' not included).
func (b *FlowBatcher) Counts() (lanes, acceptVisits, lockstepBytes, sequentialBytes int64) {
	return b.nLanes, b.nVisits, b.nLockstep, b.nSequential
}

// Contains reports whether runner has pending deferred work. Flow
// lifecycle events (teardown, restart, recycle) must Flush when this is
// true, or the batch would later scan into a reset or reassigned runner.
func (b *FlowBatcher) Contains(runner any) bool {
	r, ok := runner.(*Runner)
	if !ok {
		return false
	}
	for i := range b.lanes {
		if b.lanes[i].r == r {
			return true
		}
	}
	return false
}

// Flush scans all deferred work and empties the batch. Fault isolation
// matches the single-flow path: a panic raised by one flow's match
// callback (or filter program) kills only that flow's lane — every
// sibling lane still completes its window, matches delivered and state
// written back — and the first such panic is then re-raised from Flush
// with TakeDead naming every flow that died, so the shard's recover path
// can quarantine exactly those flows. The batch is empty afterwards
// either way and the batcher stays reusable.
func (b *FlowBatcher) Flush() {
	b.scan()
	b.finish()
}

// scan is Flush without the re-raise.
func (b *FlowBatcher) scan() {
	work := b.lanes
	b.lanes = b.lanes[:0]
	b.nLanes += int64(len(work))
	b.active = b.act[:len(work)]
	for i := range work {
		la := &work[i]
		b.act[i] = la
		m := la.r.mfa
		la.trans = m.trans
		la.classOf = m.classOf
		la.div = m.div
		la.scaledAccept = m.acceptStart * uint32(m.stride)
		la.st = la.r.dfa.State() * uint32(m.stride)
		la.pos0, la.visits0 = la.r.dfa.Pos(), la.r.visits
		la.pos = la.pos0
	}
	for len(b.active) > 1 && !b.window() {
	}
	if len(b.active) == 1 {
		// A lane alone, from the start or as the last one standing, has
		// no second chain to overlap with: the plain Feed loop is faster.
		la := b.active[0]
		la.r.dfa.SetState(la.div.Quo(la.st), la.pos)
		b.feedLane(la)
	}
}

// finish re-raises the panic scan stashed, if any.
func (b *FlowBatcher) finish() {
	if pv := b.pv; pv != nil {
		b.pv = nil
		panic(pv)
	}
}

// kill records the death of a lane whose user code panicked with pv.
func (b *FlowBatcher) kill(la *batchLane, pv any) {
	la.dead = true
	b.dead = append(b.dead, la.tag)
	if b.pv == nil {
		b.pv = pv
	}
}

// feedLane scans a lane — all of it, or what lockstep left of it —
// through the ordinary single-flow loop, under a guard of its own: one
// per lane, not one per accept visit.
func (b *FlowBatcher) feedLane(la *batchLane) {
	defer func() {
		if pv := recover(); pv != nil {
			b.kill(la, pv)
		}
	}()
	la.r.feed(la.data[la.i:], la.cb, &b.blk)
	for _, d := range la.more[la.next:] {
		la.r.feed(d, la.cb, &b.blk)
	}
	b.retire(la)
}

// retire accounts a lane whose runner holds its end-of-window state.
func (b *FlowBatcher) retire(la *batchLane) {
	b.account(la.r, la.r.visits-la.visits0, la.pos-la.pos0, la.r.dfa.Pos()-la.pos)
}

// account books a finished scan of r — its accept visits and the bytes
// each loop stepped — and records whether it was accept-dense, which
// decides how Add treats the flow's next chunk.
func (b *FlowBatcher) account(r *Runner, visits, lockstep, sequential int64) {
	b.nVisits += visits
	b.nLockstep += lockstep
	b.nSequential += sequential
	r.dense = visits*acceptDenseDiv > lockstep+sequential
}

// minRemaining returns the shortest current-chunk remainder across
// active lanes — the number of positions the next lockstep round steps
// every lane by.
func minRemaining(active []*batchLane) int {
	l := len(active[0].data) - active[0].i
	for _, la := range active[1:] {
		if r := len(la.data) - la.i; r < l {
			l = r
		}
	}
	return l
}

// advance moves every active lane past an L-byte round, rolling
// exhausted lanes onto their next queued chunk and retiring lanes with
// nothing left (writing the plain state number and position back into
// the lane's runner). It returns the still-active lanes.
func (b *FlowBatcher) advance(active []*batchLane, l int) []*batchLane {
	n := 0
	for x, la := range active {
		if la.dead {
			continue // no write-back: the flow is being quarantined
		}
		la.st = b.st[x]
		la.i += l
		la.pos += int64(l)
		for la.i == len(la.data) && la.next < len(la.more) {
			la.data = la.more[la.next]
			la.next++
			la.i = 0
		}
		if la.i == len(la.data) {
			la.r.dfa.SetState(la.div.Quo(la.st), la.pos)
			b.retire(la)
		} else {
			active[n] = la
			n++
		}
	}
	return active[:n]
}

// window runs lockstep from wherever the window's cursors stand and
// reports whether it ran to the end. This is the window's one recover —
// an accept visit costs no defer: after a panic in a lane's user code the
// lane is killed and the caller re-enters, lockstep resuming at the next
// lane of the same strip, so siblings neither repeat nor skip a byte.
func (b *FlowBatcher) window() (done bool) {
	defer func() {
		if pv := recover(); pv != nil {
			b.kill(b.active[b.x], pv)
			b.win[b.x] = nil
			if b.q < b.quads {
				b.x++ // the next lane of the quad's drain
			} else {
				b.r++ // the next lane of the leftover strip
			}
		}
	}()
	b.lockstep()
	return true
}

// batchBlock is the strip length of the leftover lanes' interleave: each
// lane advances batchBlock bytes before the loop moves on to the next lane.
// Per-lane bookkeeping (table views, cursor, window slice header) amortizes
// over the strip while the out-of-order window still spans several lanes'
// strips, keeping multiple independent table-load chains in flight. Longer
// strips lose that overlap (DESIGN.md §18).
const batchBlock = 8

// lockstep steps the active lanes, a round at a time, until at most one is
// left: every active lane advances by the shortest remaining chunk. A round
// runs in two phases over lanes that partition has ordered: first each
// quad — four lanes of one table — walks the round through dfa.WalkLanes a
// strip at a time, then the lanes no quad took step in the strip-mined
// interleave. The accept path is a plain call of Runner.fire; the cursors
// (round, q, s, x; j0, r) are stored before the user code it may run, which
// is all window's recover needs.
func (b *FlowBatcher) lockstep() {
	for len(b.active) > 1 {
		active := b.active
		if !b.round {
			b.quads = partition(active)
			b.l = minRemaining(active)
			b.rest = b.restOf[:0]
			for x, la := range active {
				b.st[x] = la.st
				b.win[x] = la.data[la.i : la.i+b.l]
				if x >= 4*b.quads {
					b.rest, b.from[x] = append(b.rest, x), 0
				}
			}
			b.round, b.q, b.s, b.draining, b.j0, b.r = true, 0, 0, false, 0, 0
		}
		b.walkQuads()
		b.walkRest()
		b.round = false
		b.active = b.advance(active, b.l)
	}
}

// partition orders the active lanes for a round: lanes of one table
// together, each table's lanes in quads from the front, and the lanes no
// quad takes — fewer than four of a table — at the back. It returns the
// number of quads.
func partition(active []*batchLane) (quads int) {
	var rest [MaxBatchFlows]*batchLane
	n, nr := 0, 0
	for i := 0; i < len(active); {
		m, j := active[i].r.mfa, i+1
		for k := j; k < len(active); k++ {
			if active[k].r.mfa == m {
				active[j], active[k] = active[k], active[j]
				j++
			}
		}
		q := i + (j-i)&^3
		n += copy(active[n:], active[i:q])
		nr += copy(rest[nr:], active[q:j])
		i = j
	}
	copy(active[n:], rest[:nr])
	return n / 4
}

// walkQuads is a round's first phase. Each quad walks the round a strip of
// dfa.LaneLen bytes at a time, and a strip in which some lane visited an
// accept state is drained from the record, lane by lane in position order.
// A lane that dies in a drain breaks its quad: the drain goes on at the
// next lane, and the quad's live lanes step the rest of the round in the
// second phase.
func (b *FlowBatcher) walkQuads() {
	l := b.l
	for ; b.q < b.quads; b.q, b.s = b.q+1, 0 {
		q := 4 * b.q
		la := b.active[q] // the quad's table views are its first lane's
		st, w := (*[4]uint32)(b.st[q:q+4]), (*[4][]byte)(b.win[q:q+4])
		for ; b.s < l; b.s += dfa.LaneLen {
			n := min(l-b.s, dfa.LaneLen)
			if !b.draining {
				fold := dfa.WalkLanes(la.trans, la.classOf, la.scaledAccept, st, w, b.s, &b.rec)
				for k := range st {
					st[k] = b.rec.Rows[k][dfa.LaneLen-1]
				}
				if fold>>63 == 1 {
					continue // no lane accepted
				}
				b.draining, b.x = true, q
			}
			for ; b.x < q+4; b.x++ {
				if b.win[b.x] != nil {
					drain(b.active[b.x], b.rec.Rows[b.x-q][dfa.LaneLen-n:], b.s)
				}
			}
			b.draining = false
			if b.win[q] == nil || b.win[q+1] == nil || b.win[q+2] == nil || b.win[q+3] == nil {
				for x := q; x < q+4 && b.s+n < l; x++ {
					if b.win[x] != nil {
						b.rest, b.from[x] = append(b.rest, x), b.s+n
					}
				}
				break
			}
		}
	}
}

// drain runs the accept visits recorded in rows, lane la's walk of the
// strip at offset s of the round.
func drain(la *batchLane, rows []uint32, s int) {
	pos := la.pos + int64(s)
	for i, row := range rows {
		if row >= la.scaledAccept {
			la.r.fire(la.div.Quo(row-la.scaledAccept), pos+int64(i), la.cb)
		}
	}
}

// walkRest is a round's second phase: the lanes no quad walks, each from
// its own offset in the round (0, or where its broken quad stopped),
// strip-mined so that their mutually independent table loads interleave.
// Each lane's table views are read once per strip, so lanes of one MFA and
// of several cost the same loop.
func (b *FlowBatcher) walkRest() {
	l, active, rest := b.l, b.active, b.rest
	for j0 := b.j0; j0 < l; j0 += batchBlock {
		b.j0 = j0
		je := min(j0+batchBlock, l)
		for r := b.r; r < len(rest); r++ {
			x := rest[r]
			w := b.win[x]
			if w == nil || j0 < b.from[x] { // died earlier in the round, or not yet here
				continue
			}
			b.r, b.x = r, x
			la := active[x]
			trans, classOf, scaledAccept := la.trans, la.classOf, la.scaledAccept
			s := b.st[x]
			for bi, c := range w[j0:je] {
				s = trans[s+uint32(classOf[c])]
				if s >= scaledAccept {
					la.r.fire(la.div.Quo(s-scaledAccept), la.pos+int64(j0+bi), la.cb)
				}
			}
			b.st[x] = s
		}
		b.r = 0
	}
}
