package core

import "matchfilter/internal/dfa"

// Batched lockstep multi-flow scanning. The single-flow Feed loop is a
// serial dependency chain — each transition-table load must retire
// before the next can issue — so on table-resident working sets the
// core sits latency-bound, not bandwidth-bound. A FlowBatcher collects
// the deferred scan work of up to MaxBatchFlows *independent* flows and
// steps them in lockstep, so several independent table lookups are in
// flight at once and the loads' latencies overlap (the Hyperflex
// observation, realized without SIMD). Four lanes of one table walk
// together through dfa.WalkLanes — record, then drain through the drain
// Feed's block loop uses, quiet skip included — with only each lane's own
// table load on its carried chain. A lane no such quad takes leaves
// lockstep for Feed, which walks four chains of one flow instead.
//
// Match-equivalence invariant: lockstep reorders work ACROSS flows,
// never within one. Each lane consumes its own chunks strictly in
// order, runs its own filter memory/registers, and reports through its
// own callback, so every flow's (ruleID, pos) stream is byte-identical
// to what the sequential scanner produces — property-tested in
// batch_test.go and layout_equiv_test.go.
//
// A batch may mix runners from different MFAs (multi-tenant shards,
// cross-generation drains) and of any class count: every automaton is the
// one table shape of internal/dfa, so lanes carry their own table views and
// each round gathers the lanes of one table into quads. Two kinds of flow
// take Feed's block loop instead, because lockstep has nothing to give
// them: the lanes no quad takes (fewer than four of a table, a lone lane
// included, or the survivors of a quad a death broke), handed over where
// lockstep stands, and a flow whose last scan went to the filter rather
// than to waiting on table loads, which Add scans on arrival
// (acceptDenseDiv).

// MaxBatchFlows caps the lockstep width: four quads of the lane kernel
// when one table serves the shard. 16 lanes saturate the load-miss
// parallelism of current cores (10–16 outstanding L1 misses) while keeping
// per-lane cursors within the L1 working set; wider batches add
// bookkeeping without more overlap.
const MaxBatchFlows = 16

// acceptDenseDiv is the routing constant: a flow whose last scan (a lane's
// flush window, or one chunk) visited an accept state more than once per
// acceptDenseDiv bytes is filter-bound — its time goes to accept programs
// and callbacks, which lockstep cannot overlap and only interrupts — and
// its next chunk is scanned by Feed. BenchmarkRoutingSweep (DESIGN.md §18)
// has lockstep ahead only on visit-free text since Feed walks four chains;
// the constant stays because the verdict is per scan, often one short
// segment, where a single visit in 96 bytes would send a flow to Feed. Real
// flows sit far to either side (< 10⁻⁴, 0.002 or ≈ 0.1 visits per byte).
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
	// was being drained, kill it, and re-enter the loop where it stopped:
	// active are the lanes still stepping, round marks a round begun (l,
	// quads, st and win filled in; a lane's win is nil once it died or left
	// in the round), and the round is at quad q's strip at offset s, its
	// record in rec and lane x's visits being drained when draining is set.
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

	// Tags of the lanes that died since TakeDead, and the first panic's
	// value: re-raised by finish once every healthy lane has completed its
	// window, so a hostile callback cannot cost siblings their scans.
	dead []any
	pv   any

	// Cumulative work counters (Counts).
	nLanes, nVisits, nLockstep, nSequential int64

	// The one record of every walk the batcher makes — a quad's strip, and
	// every Feed, kept so that a short one does not clear it (Runner.feed).
	// A Feed runs only between strips, when no drain needs the record. Last,
	// so that lockstep's cursors above keep their offsets.
	rec dfa.Quarters
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
		r.feed(data, onMatch, &b.rec)
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
	la.more, la.next, la.i = la.more[:0], 0, 0
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
// single-flow loop scanned (dead lanes' not included). The single-flow
// loop's bytes are those Add scanned on arrival and those of the lanes no
// quad took.
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
	for !b.window() {
	}
}

// finish re-raises the panic scan stashed, if any.
func (b *FlowBatcher) finish() {
	if pv := b.pv; pv != nil {
		b.pv = nil
		panic(pv)
	}
}

// kill records the death of a lane whose user code panicked with pv: its
// remaining chunks are dropped and its runner is not written back (the flow
// is about to be quarantined), while sibling lanes finish their window.
func (b *FlowBatcher) kill(la *batchLane, pv any) {
	b.dead = append(b.dead, la.tag)
	if b.pv == nil {
		b.pv = pv
	}
}

// feedLane scans a lane — all of it, or what lockstep left of it —
// through the ordinary single-flow loop, under a guard of its own: one
// per lane, not one per accept visit. A lane that dies here is left where
// it was handed over, or where its last whole chunk took it.
func (b *FlowBatcher) feedLane(la *batchLane) {
	defer func() {
		if pv := recover(); pv != nil {
			b.kill(la, pv)
		}
	}()
	la.r.feed(la.data[la.i:], la.cb, &b.rec)
	for _, d := range la.more[la.next:] {
		la.r.feed(d, la.cb, &b.rec)
	}
	b.account(la.r, la.r.visits-la.visits0, la.pos-la.pos0, la.r.dfa.Pos()-la.pos)
}

// leave hands lane la over to Feed o bytes into the round, at row base st:
// the state and position are written back into its runner, and the rest of
// its window is fed there.
func (b *FlowBatcher) leave(la *batchLane, st uint32, o int) {
	la.i += o
	la.pos += int64(o)
	la.r.dfa.SetState(la.div.Quo(st), la.pos)
	b.feedLane(la)
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

// advance moves every lane still in the round past its l bytes, rolling
// exhausted lanes onto their next queued chunk and retiring lanes with
// nothing left (writing the plain state number and position back into the
// lane's runner). It returns the still-active lanes.
func (b *FlowBatcher) advance(active []*batchLane, l int) []*batchLane {
	n := 0
	for x, la := range active {
		if b.win[x] == nil {
			continue // dead, and not written back, or handed over to Feed
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
			b.account(la.r, la.r.visits-la.visits0, la.pos-la.pos0, 0)
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
// lane is killed and the caller re-enters, the drain resuming at the next
// lane of the same strip, so siblings neither repeat nor skip a byte.
func (b *FlowBatcher) window() (done bool) {
	defer func() {
		if pv := recover(); pv != nil {
			b.kill(b.active[b.x], pv)
			b.win[b.x] = nil
			b.x++
		}
	}()
	b.lockstep()
	return true
}

// laneLen is the most a quad's strip advances each lane by: a quarter of
// the record, one accept word.
const laneLen = dfa.BlockLen / 4

// lockstep steps the active lanes, a round at a time, until none is left.
// A round begins by partitioning the lanes: the ones no quad takes leave
// for Feed where they stand, and each quad — four lanes of one table —
// walks the round through dfa.WalkLanes a strip at a time; every lane
// still in lockstep advances by the shortest remaining chunk. The cursors
// (round, q, s, x) are stored before the user code a drain may run, which
// is all window's recover needs.
func (b *FlowBatcher) lockstep() {
	for {
		if !b.round {
			b.quads = partition(b.active)
			for _, la := range b.active[4*b.quads:] {
				b.leave(la, la.st, 0)
			}
			if b.active = b.active[:4*b.quads]; b.quads == 0 {
				return
			}
			b.l = len(b.active[0].data) - b.active[0].i // the shortest remaining chunk
			for _, la := range b.active[1:] {
				b.l = min(b.l, len(la.data)-la.i)
			}
			for x, la := range b.active {
				b.st[x] = la.st
				b.win[x] = la.data[la.i : la.i+b.l]
			}
			b.round, b.q, b.s, b.draining = true, 0, 0, false
		}
		b.walkQuads()
		b.round = false
		b.active = b.advance(b.active, b.l)
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

// walkQuads walks the round's quads. Each walks the round a strip of
// laneLen bytes at a time, and a strip in which some lane visited an accept
// state gets its accept words from the carry pass and is drained, lane by
// lane in position order, through Feed's drain. A lane that dies in a drain
// breaks its quad: the drain goes on at the next lane, and then the quad's
// live lanes leave for Feed at the strip's end.
func (b *FlowBatcher) walkQuads() {
	l := b.l
	for ; b.q < b.quads; b.q, b.s = b.q+1, 0 {
		q := 4 * b.q
		la := b.active[q] // the quad's table views are its first lane's
		st, w := (*[4]uint32)(b.st[q:q+4]), (*[4][]byte)(b.win[q:q+4])
		for ; b.s < l; b.s += laneLen {
			n := min(l-b.s, laneLen)
			if !b.draining {
				fold := dfa.WalkLanes(la.trans, la.classOf, la.scaledAccept, st, w, b.s, &b.rec)
				for k := range st {
					st[k] = b.rec.Rows[k*laneLen+laneLen-1]
				}
				if fold>>63 == 1 {
					continue // no lane accepted
				}
				b.rec.Carry(n, la.scaledAccept)
				b.draining, b.x = true, q
			}
			for ; b.x < q+4; b.x++ {
				k := b.x - q
				if accepts := b.rec.Accepts[k]; accepts != 0 && b.win[b.x] != nil {
					lk := b.active[b.x]
					rows := (*[laneLen]uint32)(b.rec.Rows[k*laneLen:])
					lk.r.drain(accepts, rows, lk.pos+int64(b.s+n-laneLen), lk.cb, false, true)
				}
			}
			b.draining = false
			if b.win[q] == nil || b.win[q+1] == nil || b.win[q+2] == nil || b.win[q+3] == nil {
				for x := q; x < q+4; x++ {
					if b.win[x] != nil {
						b.win[x] = nil
						b.leave(b.active[x], b.st[x], b.s+n)
					}
				}
				break
			}
		}
	}
}
