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
// batch_test.go and layout_equiv_test.go across all three layouts.
//
// A batch may mix runners from different MFAs (multi-tenant shards,
// cross-generation drains): lanes carry their own table views and are
// partitioned by layout, lockstepping flat, classed, and classed2
// lanes separately. Whenever a partition holds a single lane the
// batcher falls through to the plain Feed loop, so fewer-than-K ready
// flows never pay lockstep overhead.

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
	trans   []uint32
	trans2  []uint32
	classOf []uint8
	k       uint32 // 1-byte row stride (1 for flat: states are unscaled)
	k2      uint32 // pair-row stride (classed2 only)
	div     uint32 // st → plain state divisor at write-back

	st           uint32 // layout-internal cursor: state, row base, or pair-row base
	pos          int64
	i            int // bytes of data consumed
	scaledAccept uint32
	scaled2      uint32 // classed2: acceptStart × k2

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
	if len(work) == 0 {
		return
	}
	if len(work) == 1 {
		b.feedLane(&work[0])
		b.finish()
		return
	}
	var flat, classed, pairs [MaxBatchFlows]*batchLane
	nf, nc, np := 0, 0, 0
	for i := range work {
		la := &work[i]
		switch m := la.r.mfa; {
		case m.trans2 != nil:
			pairs[np] = la
			np++
		case m.classOf != nil:
			classed[nc] = la
			nc++
		default:
			flat[nf] = la
			nf++
		}
	}
	if np == 1 {
		b.feedLane(pairs[0])
	} else if np > 1 {
		b.lockstepPairs(pairs[:np])
	}
	if nc == 1 {
		b.feedLane(classed[0])
	} else if nc > 1 {
		b.lockstepClassed(classed[:nc])
	}
	if nf == 1 {
		b.feedLane(flat[0])
	} else if nf > 1 {
		b.lockstepFlat(flat[:nf])
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
			la.r.dfa.SetState(la.st/la.div, la.pos)
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
	la.r.dfa.SetState(la.st/la.div, la.pos)
	b.cur = la.tag
	la.r.Feed(la.data[la.i:], la.cb)
	for _, d := range la.more {
		la.r.Feed(d, la.cb)
	}
}

// acceptScaled fires the accept program of an accepting row base st of
// the 1-byte table (pre-scaled by la.k; for flat lanes k is 1 and st a
// plain state) under the lane's panic guard. The odd tail step of a
// classed2 round lands on the same table and comes through here too.
func (b *FlowBatcher) acceptScaled(la *batchLane, st uint32, pos int64) {
	defer b.reap(la)
	b.cur = la.tag
	la.r.fire((st-la.scaledAccept)/la.k, pos, la.cb)
}

// sameMFA reports whether every lane runs the same automaton — the
// dominant single-tenant case, where the lockstep loop can hoist the
// table views into locals instead of re-reading them from the lane
// structs at every step.
func sameMFA(lanes []*batchLane) bool {
	m := lanes[0].r.mfa
	for _, la := range lanes[1:] {
		if la.r.mfa != m {
			return false
		}
	}
	return true
}

// batchBlock is the strip length of the homogeneous lockstep loops: each
// lane advances batchBlock bytes before the loop moves on to the next
// lane. Per-lane bookkeeping (cursor loads, window slice headers)
// amortizes over the strip while the out-of-order window still spans
// several lanes' strips, keeping multiple independent table-load chains
// in flight. Must stay even (the pair loop steps two bytes at a time).
const batchBlock = 8

// lockstepClassed steps ≥2 classed-layout lanes in lockstep. The inner
// loop is lane-inner/position-outer: each iteration issues one table
// load per lane, and the lanes' loads are mutually independent.
func (b *FlowBatcher) lockstepClassed(lanes []*batchLane) {
	for _, la := range lanes {
		m := la.r.mfa
		la.trans = m.trans
		la.classOf = m.classOf
		la.k = uint32(m.stride)
		la.div = la.k
		la.scaledAccept = m.acceptStart * la.k
		la.st = la.r.dfa.State() * la.k
		la.pos = la.r.dfa.Pos()
	}
	if sameMFA(lanes) {
		b.lockstepClassedShared(lanes, lanes[0].r.mfa)
		return
	}
	active := lanes
	for len(active) > 0 {
		if len(active) == 1 {
			b.retireInto(active[0])
			return
		}
		l := minRemaining(active)
		for j := 0; j < l; j++ {
			for _, la := range active {
				if la.dead {
					continue
				}
				st := la.trans[la.st+uint32(la.classOf[la.data[la.i+j]])]
				la.st = st
				if st >= la.scaledAccept {
					b.acceptScaled(la, st, la.pos+int64(j))
				}
			}
		}
		active = advance(active, l)
	}
}

// lockstepClassedShared is lockstepClassed for lanes sharing one MFA:
// table views live in locals, lane states in a small array, and the
// round is strip-mined in batchBlock-byte blocks per lane.
func (b *FlowBatcher) lockstepClassedShared(active []*batchLane, m *MFA) {
	trans, classOf := m.trans, m.classOf
	scaledAccept := m.acceptStart * uint32(m.stride)
	for len(active) > 1 {
		l := minRemaining(active)
		n := len(active)
		var st [MaxBatchFlows]uint32
		var win [MaxBatchFlows][]byte
		for x := 0; x < n; x++ {
			la := active[x]
			st[x] = la.st
			win[x] = la.data[la.i : la.i+l]
		}
		for j0 := 0; j0 < l; j0 += batchBlock {
			je := j0 + batchBlock
			if je > l {
				je = l
			}
			for x := 0; x < n; x++ {
				w := win[x]
				if w == nil { // lane died mid-window
					continue
				}
				s := st[x]
				for bi, c := range w[j0:je] {
					s = trans[s+uint32(classOf[c])]
					if s >= scaledAccept {
						la := active[x]
						b.acceptScaled(la, s, la.pos+int64(j0+bi))
						if la.dead {
							win[x] = nil
							break
						}
					}
				}
				if win[x] != nil {
					st[x] = s
				}
			}
		}
		for x := 0; x < n; x++ {
			if la := active[x]; !la.dead {
				la.st = st[x]
			}
		}
		active = advance(active, l)
	}
	if len(active) == 1 {
		b.retireInto(active[0])
	}
}

// lockstepFlat is lockstepClassed over the flat layout: plain state
// numbers, one load per byte, no class map.
func (b *FlowBatcher) lockstepFlat(lanes []*batchLane) {
	for _, la := range lanes {
		m := la.r.mfa
		la.trans = m.trans
		la.k = 1
		la.div = 1
		la.scaledAccept = m.acceptStart
		la.st = la.r.dfa.State()
		la.pos = la.r.dfa.Pos()
	}
	if sameMFA(lanes) {
		b.lockstepFlatShared(lanes, lanes[0].r.mfa)
		return
	}
	active := lanes
	for len(active) > 0 {
		if len(active) == 1 {
			b.retireInto(active[0])
			return
		}
		l := minRemaining(active)
		for j := 0; j < l; j++ {
			for _, la := range active {
				if la.dead {
					continue
				}
				st := la.trans[int(la.st)<<8|int(la.data[la.i+j])]
				la.st = st
				if st >= la.scaledAccept {
					b.acceptScaled(la, st, la.pos+int64(j))
				}
			}
		}
		active = advance(active, l)
	}
}

// lockstepFlatShared is lockstepFlat for lanes sharing one MFA.
func (b *FlowBatcher) lockstepFlatShared(active []*batchLane, m *MFA) {
	trans := m.trans
	acceptStart := m.acceptStart
	for len(active) > 1 {
		l := minRemaining(active)
		n := len(active)
		var st [MaxBatchFlows]uint32
		var win [MaxBatchFlows][]byte
		for x := 0; x < n; x++ {
			la := active[x]
			st[x] = la.st
			win[x] = la.data[la.i : la.i+l]
		}
		for j0 := 0; j0 < l; j0 += batchBlock {
			je := j0 + batchBlock
			if je > l {
				je = l
			}
			for x := 0; x < n; x++ {
				w := win[x]
				if w == nil {
					continue
				}
				s := st[x]
				for bi, c := range w[j0:je] {
					s = trans[int(s)<<8|int(c)]
					if s >= acceptStart {
						la := active[x]
						b.acceptScaled(la, s, la.pos+int64(j0+bi))
						if la.dead {
							win[x] = nil
							break
						}
					}
				}
				if win[x] != nil {
					st[x] = s
				}
			}
		}
		for x := 0; x < n; x++ {
			if la := active[x]; !la.dead {
				la.st = st[x]
			}
		}
		active = advance(active, l)
	}
	if len(active) == 1 {
		b.retireInto(active[0])
	}
}

// lockstepPairs steps ≥2 classed2 lanes two bytes per round position
// over their pair tables; a round of odd length finishes with one
// 1-byte step per lane on the retained classed table. Pair boundaries
// may therefore shift between rounds — harmless, because acceptance is
// checked at every byte position regardless of how positions pair up.
func (b *FlowBatcher) lockstepPairs(lanes []*batchLane) {
	for _, la := range lanes {
		m := la.r.mfa
		la.trans = m.trans
		la.trans2 = m.trans2
		la.classOf = m.classOf
		la.k = uint32(m.stride)
		la.k2 = uint32(m.stride2)
		la.div = la.k2
		la.scaledAccept = m.acceptStart * la.k
		la.scaled2 = m.acceptStart * la.k2
		la.st = la.r.dfa.State() * la.k2
		la.pos = la.r.dfa.Pos()
	}
	if sameMFA(lanes) {
		b.lockstepPairsShared(lanes, lanes[0].r.mfa)
		return
	}
	active := lanes
	for len(active) > 0 {
		if len(active) == 1 {
			b.retireInto(active[0])
			return
		}
		l := minRemaining(active)
		p := l &^ 1
		for j := 0; j < p; j += 2 {
			for _, la := range active {
				if la.dead {
					continue
				}
				i := la.i + j
				nxt := la.trans2[la.st+uint32(la.classOf[la.data[i]])*la.k+uint32(la.classOf[la.data[i+1]])]
				if nxt >= la.scaled2 {
					nxt = b.pairSlowLane(la, j)
				}
				la.st = nxt
			}
		}
		if p < l { // odd round: a 1-byte classed step keeps the lanes aligned
			for _, la := range active {
				if la.dead {
					continue
				}
				base := la.trans[(la.st/la.k2)*la.k+uint32(la.classOf[la.data[la.i+p]])]
				if base >= la.scaledAccept {
					b.acceptScaled(la, base, la.pos+int64(p))
				}
				la.st = (base / la.k) * la.k2
			}
		}
		active = advance(active, l)
	}
}

// lockstepPairsShared is lockstepPairs for lanes sharing one MFA. Only
// the even-length body of each round is strip-mined; the odd tail step
// (at most one byte per round) stays on the lane fields.
func (b *FlowBatcher) lockstepPairsShared(active []*batchLane, m *MFA) {
	trans2, classOf := m.trans2, m.classOf
	k := uint32(m.stride)
	k2 := uint32(m.stride2)
	scaled2 := m.acceptStart * k2
	for len(active) > 1 {
		l := minRemaining(active)
		p := l &^ 1
		n := len(active)
		var st [MaxBatchFlows]uint32
		var win [MaxBatchFlows][]byte
		for x := 0; x < n; x++ {
			la := active[x]
			st[x] = la.st
			win[x] = la.data[la.i : la.i+l]
		}
		for j0 := 0; j0 < p; j0 += batchBlock {
			je := j0 + batchBlock
			if je > p {
				je = p
			}
			for x := 0; x < n; x++ {
				w := win[x]
				if w == nil {
					continue
				}
				s := st[x]
				for j := j0; j < je; j += 2 {
					nxt := trans2[s+uint32(classOf[w[j]])*k+uint32(classOf[w[j+1]])]
					if nxt >= scaled2 {
						la := active[x]
						la.st = s // pairSlow replays from the pre-step state
						nxt = b.pairSlowLane(la, j)
						if la.dead {
							win[x] = nil
							break
						}
					}
					s = nxt
				}
				if win[x] != nil {
					st[x] = s
				}
			}
		}
		for x := 0; x < n; x++ {
			if la := active[x]; !la.dead {
				la.st = st[x]
			}
		}
		if p < l { // odd round: a 1-byte classed step keeps the lanes aligned
			for _, la := range active {
				if la.dead {
					continue
				}
				base := la.trans[(la.st/la.k2)*la.k+uint32(la.classOf[la.data[la.i+p]])]
				if base >= la.scaledAccept {
					b.acceptScaled(la, base, la.pos+int64(p))
				}
				la.st = (base / la.k) * la.k2
			}
		}
		active = advance(active, l)
	}
	if len(active) == 1 {
		b.retireInto(active[0])
	}
}

// pairSlowLane replays one accepting pair through the lane runner's
// filter-aware slow path, under the lane's panic guard.
func (b *FlowBatcher) pairSlowLane(la *batchLane, j int) uint32 {
	defer b.reap(la)
	b.cur = la.tag
	i := la.i + j
	return la.r.pairSlow(la.st/la.k2, la.data[i], la.data[i+1], la.pos+int64(j), la.cb)
}
