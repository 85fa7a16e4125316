package core

// Batched lockstep multi-flow scanning. The single-flow Feed loop is a
// serial dependency chain — each transition-table load must retire
// before the next can issue — so on table-resident working sets the
// core sits latency-bound, not bandwidth-bound. A FlowBatcher collects
// the deferred scan work of up to MaxBatchFlows *independent* flows and
// steps them in lockstep: the inner loop advances every lane by one
// input position per round, so K independent table lookups are in
// flight per iteration and the loads' latencies overlap (the Hyperflex
// observation, realized without SIMD). Per-lane bookkeeping loads are
// off the carried chain; only each lane's own table load is on it.
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
// one table shape of internal/dfa, so lanes carry their own table views
// and one loop steps them all. Whenever a single lane is left the batcher
// falls through to the plain Feed loop, so fewer-than-K ready flows never
// pay lockstep overhead.

// MaxBatchFlows caps the lockstep width. 16 lanes saturate the
// load-miss parallelism of current cores (10–16 outstanding L1 misses)
// while keeping per-lane cursors within the L1 working set; wider
// batches add bookkeeping without more overlap.
const MaxBatchFlows = 16

// batchLane is one flow's deferred scan work plus its lockstep cursor.
type batchLane struct {
	r    *Runner
	tag  any
	cb   MatchFunc
	data []byte   // chunk currently being scanned
	more [][]byte // further chunks queued by Add, in arrival order

	// Views resolved at flush time from r's MFA, cached in the lane so
	// the round loop never chases r→mfa→field pointers.
	trans        []uint32
	classOf      []uint8
	k            uint32 // row stride
	scaledAccept uint32 // acceptStart × k

	st  uint32 // cursor: the row base of the current state
	pos int64
	i   int // bytes of data consumed

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
	cur   any // tag of the flow whose accept path is executing, for panic attribution

	// Stashed first panic of the current flush (reap): re-raised by
	// finish once every healthy lane has completed its window, so one
	// hostile callback cannot cost sibling flows their deferred scans.
	panicked bool
	pv       any
	deadTag  any
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
// the batch is full, Add flushes it and starts the next one.
func (b *FlowBatcher) Add(runner, tag any, data []byte, onMatch func(int32, int64)) bool {
	r, ok := runner.(*Runner)
	if !ok {
		return false
	}
	for i := range b.lanes {
		if b.lanes[i].r == r {
			b.lanes[i].more = append(b.lanes[i].more, data)
			return true
		}
	}
	if len(b.lanes) >= b.k {
		b.Flush()
	}
	b.lanes = append(b.lanes, batchLane{r: r, tag: tag, cb: onMatch, data: data})
	return true
}

// Len returns the number of flows with pending deferred work.
func (b *FlowBatcher) Len() int { return len(b.lanes) }

// Scanning returns the tag of the flow whose match path raised the
// panic unwinding out of Flush; shards use it to quarantine the
// offending flow, mirroring the single-flow path. The tag survives the
// unwind (it is cleared on normal completion and at the start of the
// next Flush), so the shard's own deferred recover can still read it.
func (b *FlowBatcher) Scanning() any { return b.cur }

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
// written back — and the panic is then re-raised from Flush with
// Scanning reporting the offending flow's tag, so the shard's recover
// path can quarantine exactly that flow. The batch is empty afterwards
// either way and the batcher stays reusable.
func (b *FlowBatcher) Flush() {
	work := b.lanes
	b.lanes = b.lanes[:0]
	b.cur = nil
	switch len(work) {
	case 0:
		return
	case 1:
		b.feedLane(&work[0])
	default:
		var lanes [MaxBatchFlows]*batchLane
		for i := range work {
			lanes[i] = &work[i]
		}
		b.lockstep(lanes[:len(work)])
	}
	b.finish()
}

// finish ends a flush: on a clean window it clears the Scanning tag; if
// reap stashed a panic it restores the dead flow's tag for Scanning and
// re-raises, after every healthy lane has already finished.
func (b *FlowBatcher) finish() {
	b.cur = nil
	if !b.panicked {
		return
	}
	pv := b.pv
	b.cur = b.deadTag
	b.panicked, b.pv, b.deadTag = false, nil, nil
	panic(pv)
}

// reap must be deferred around every call that runs user code (match
// callbacks via accept paths, filter programs): it converts a panic
// into lane death, stashing the first panic's value and tag for finish
// to re-raise once the window completes.
func (b *FlowBatcher) reap(la *batchLane) {
	r := recover()
	if r == nil {
		return
	}
	la.dead = true
	if !b.panicked {
		b.panicked, b.pv, b.deadTag = true, r, la.tag
	}
}

// feedLane scans one lane through the ordinary single-flow loop.
func (b *FlowBatcher) feedLane(la *batchLane) {
	defer b.reap(la)
	b.cur = la.tag
	la.r.Feed(la.data, la.cb)
	for _, d := range la.more {
		la.r.Feed(d, la.cb)
	}
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
func advance(active []*batchLane, l int) []*batchLane {
	n := 0
	for _, la := range active {
		if la.dead {
			continue // no write-back: the flow is being quarantined
		}
		la.i += l
		la.pos += int64(l)
		for la.i == len(la.data) && len(la.more) > 0 {
			la.data, la.more = la.more[0], la.more[1:]
			la.i = 0
		}
		if la.i == len(la.data) {
			la.r.dfa.SetState(la.st/la.k, la.pos)
		} else {
			active[n] = la
			n++
		}
	}
	return active[:n]
}

// retireInto hands a lone surviving lane back to the single-flow loop:
// once only one lane is active, lockstep has no overlap to exploit and
// the plain Feed loop is strictly faster.
func (b *FlowBatcher) retireInto(la *batchLane) {
	defer b.reap(la)
	la.r.dfa.SetState(la.st/la.k, la.pos)
	b.cur = la.tag
	la.r.Feed(la.data[la.i:], la.cb)
	for _, d := range la.more {
		la.r.Feed(d, la.cb)
	}
}

// acceptScaled fires the accept program of an accepting row base st
// under the lane's panic guard.
func (b *FlowBatcher) acceptScaled(la *batchLane, st uint32, pos int64) {
	defer b.reap(la)
	b.cur = la.tag
	la.r.fire((st-la.scaledAccept)/la.k, pos, la.cb)
}

// batchBlock is the strip length of the lockstep loop: each lane advances
// batchBlock bytes before the loop moves on to the next lane. Per-lane
// bookkeeping (table views, cursor, window slice header) amortizes over
// the strip while the out-of-order window still spans several lanes'
// strips, keeping multiple independent table-load chains in flight.
const batchBlock = 8

// lockstep steps ≥2 lanes in lockstep, a round at a time: every active
// lane advances by the shortest remaining chunk, strip-mined so that the
// lanes' mutually independent table loads interleave. The round's cursors
// and windows live in stack arrays; each lane's table views are read once
// per strip, so lanes of one MFA and of several cost the same loop.
func (b *FlowBatcher) lockstep(active []*batchLane) {
	for _, la := range active {
		m := la.r.mfa
		la.trans = m.trans
		la.classOf = m.classOf
		la.k = uint32(m.stride)
		la.scaledAccept = m.acceptStart * la.k
		la.st = la.r.dfa.State() * la.k
		la.pos = la.r.dfa.Pos()
	}
	for len(active) > 1 {
		l := minRemaining(active)
		var st [MaxBatchFlows]uint32
		var win [MaxBatchFlows][]byte
		for x, la := range active {
			st[x] = la.st
			win[x] = la.data[la.i : la.i+l]
		}
		for j0 := 0; j0 < l; j0 += batchBlock {
			je := min(j0+batchBlock, l)
			for x, la := range active {
				w := win[x]
				if w == nil { // lane died mid-round
					continue
				}
				trans, classOf, scaledAccept := la.trans, la.classOf, la.scaledAccept
				s := st[x]
				for bi, c := range w[j0:je] {
					s = trans[s+uint32(classOf[c])]
					if s >= scaledAccept {
						b.acceptScaled(la, s, la.pos+int64(j0+bi))
						if la.dead {
							win[x] = nil
							break
						}
					}
				}
				st[x] = s
			}
		}
		for x, la := range active {
			la.st = st[x]
		}
		active = advance(active, l)
	}
	if len(active) == 1 {
		b.retireInto(active[0])
	}
}
