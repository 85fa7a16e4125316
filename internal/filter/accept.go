package filter

import (
	"math"
	"slices"
	"unsafe"
)

// Accept programs (DESIGN.md §21). An accepting DFA state q fires its
// whole decision set Dq(q) = d1 < … < dk at one position, so the filter
// work of a visit is the composition f(·,d1) ∘ … ∘ f(·,dk). That
// composition is compiled once, ahead of time, into a straight-line op
// list with every operand resolved — bit → word and mask, clear group →
// its masks, counter → its block in the flow's Counters — and run by the
// one interpreter below. ApplyAll(id) is the one-id case: every installed
// action is compiled as a singleton program.

// opKind selects what one op does. The first five are guards: when the
// condition fails the interpreter skips the ops the guard covers — the
// rest of the guarded action, or a live guard's span of resets. A counter
// op's kind carries the counter's shape (composer.ctr), so the interpreter
// never looks a descriptor up.
type opKind uint8

const (
	opTestBit    opKind = iota // some bit of mask must be set in word at
	opTestGap                  // register at recorded at least a bytes ago
	opTestCtr                  // counter block holds a witness aged in [a, b]
	opTestOpen                 // open counter's witness is at least a bytes old
	opCtrLive                  // some counter of mask may hold a witness
	opSetBits                  // m[at] |= mask
	opClearBits                // m[at] &^= mask
	opRecordPos                // register at keeps its first position
	opCtrRecord                // counter block gains a witness at pos
	opCtrReset                 // counter block, if live, loses its witnesses before pos
	opOpenRecord               // open counter keeps its first witness
	opOpenReset                // open counter loses a witness before pos
	opReport                   // confirm rule a
)

type op struct {
	kind opKind
	skip uint16 // guards: following ops that the guard covers
	at   int32  // memory word, 0-based register, or counter block offset
	n    int32  // counter ops: words in the block
	a, b int32
	live int32 // counter ops and live guards: the live word (see Counters); mask is the bits there
	mask uint64
}

// AcceptProgram is the compiled composition of one decision set's
// actions. It is immutable and shared by every flow.
type AcceptProgram []op

// Run applies the program's actions in decision-set order to one flow's
// state at pos, passing every confirmed rule id to emit. Nil regs or cs
// fail the gap or counter conditions and drop their updates.
func (ap AcceptProgram) Run(m Memory, regs Registers, cs Counters, pos int64, emit func(ruleID int32, pos int64)) {
	for pc := 0; pc < len(ap); pc++ {
		o := &ap[pc]
		switch o.kind {
		case opTestBit:
			if m[o.at]&o.mask == 0 {
				pc += int(o.skip)
			}
		case opTestGap:
			if regs == nil || regs[o.at] == 0 || pos+1-regs[o.at] < int64(o.a) {
				pc += int(o.skip)
			}
		case opTestCtr:
			if cs == nil || !ctrBlock(cs[o.at:o.at+o.n]).test(o.a, o.b, pos) {
				pc += int(o.skip)
			}
		case opTestOpen:
			if cs == nil || cs[o.at] == 0 || pos+1-int64(cs[o.at]) < int64(o.a) {
				pc += int(o.skip)
			}
		case opCtrLive:
			if cs == nil || *cs.liveWord(o.live)&o.mask == 0 {
				pc += int(o.skip)
			}
		case opSetBits:
			m[o.at] |= o.mask
		case opClearBits:
			m[o.at] &^= o.mask
		case opRecordPos:
			if regs != nil && regs[o.at] == 0 {
				regs[o.at] = pos + 1
			}
		case opCtrRecord:
			if cs != nil {
				ctrBlock(cs[o.at : o.at+o.n]).record(pos)
				*cs.liveWord(o.live) |= o.mask
			}
		case opCtrReset:
			if cs != nil {
				if l := cs.liveWord(o.live); *l&o.mask != 0 && ctrBlock(cs[o.at:o.at+o.n]).reset(pos) {
					*l &^= o.mask
				}
			}
		case opOpenRecord:
			if cs != nil && cs[o.at] == 0 {
				cs[o.at] = uint64(pos + 1)
				*cs.liveWord(o.live) |= o.mask
			}
		case opOpenReset:
			if cs != nil && cs[o.at] != 0 && int64(cs[o.at]) <= pos {
				cs[o.at] = 0
				*cs.liveWord(o.live) &^= o.mask
			}
		case opReport:
			emit(o.a, pos)
		}
	}
}

// composer appends compiled actions to one op arena.
type composer struct {
	p   *Program
	ops []op
	// run is where the mergeable tail of the arena starts: ops[run:] are
	// effects that execute together or not at all, with no guard between
	// them, so none of them reads memory.
	run int
	// last holds, per memory word, 1 + the arena index of the newest
	// set/clear op on it; an index below run is stale. open holds the same
	// per live word for its live guard, and guards counts those opened.
	last   []int32
	open   [MaxCounters / 64]int32
	guards int
}

func (p *Program) newComposer() composer {
	return composer{p: p, last: make([]int32, (p.memBits+63)/64)}
}

// begin starts a new program at the end of the arena.
func (c *composer) begin() int {
	c.run = len(c.ops)
	return c.run
}

// action appends a's ops. Effects keep the order ApplyAll always gave
// them: position record, counter record, counter reset, set, clear,
// clear group, report.
func (c *composer) action(a Action) {
	start := len(c.ops)
	if a.Test != NoBit {
		c.ops = append(c.ops, op{kind: opTestBit, at: int32(a.Test >> 6), mask: 1 << (a.Test & 63)})
	}
	if a.GapReg != NoReg {
		c.ops = append(c.ops, op{kind: opTestGap, at: int32(a.GapReg - 1), a: a.MinGap})
	}
	if a.TestCtr != NoCtr {
		c.ops = append(c.ops, c.ctr(opTestCtr, a.TestCtr))
	}
	guards := len(c.ops) - start
	if guards > 0 {
		c.run = len(c.ops)
	}
	if a.SetPos != NoReg {
		c.ops = append(c.ops, op{kind: opRecordPos, at: int32(a.SetPos - 1)})
	}
	if a.SetCtr != NoCtr {
		c.ops = append(c.ops, c.ctr(opCtrRecord, a.SetCtr))
	}
	if a.ResetCtr != NoCtr && guards > 0 {
		c.ops = append(c.ops, c.ctr(opCtrReset, a.ResetCtr))
	} else if a.ResetCtr != NoCtr {
		c.reset(c.ctr(opCtrReset, a.ResetCtr))
	}
	if a.Set != NoBit {
		c.mask(opSetBits, int32(a.Set>>6), 1<<(a.Set&63))
	}
	if a.Clear != NoBit {
		c.mask(opClearBits, int32(a.Clear>>6), 1<<(a.Clear&63))
	}
	if a.ClearGroup != 0 {
		for _, g := range c.p.clearGroups[a.ClearGroup-1] {
			c.mask(opClearBits, int32(g.Word), g.Mask)
		}
	}
	if a.Report != NoReport {
		c.ops = append(c.ops, op{kind: opReport, a: a.Report})
	}
	if guards > 0 {
		for g := 0; g < guards; g++ {
			c.ops[start+g].skip = guardSkip(len(c.ops) - (start + g) - 1)
		}
		c.run = len(c.ops)
	}
}

// guardSkip is n as a guard's skip. Neither an action's ops nor the resets
// of one live word can number 65536, so only a composer bug overflows it.
func guardSkip(n int) uint16 {
	if n > math.MaxUint16 {
		panic("filter: accept-program guard covers more than 65535 ops")
	}
	return uint16(n)
}

// openKind maps a counter op to its form on an open counter.
var openKind = [...]opKind{opTestCtr: opTestOpen, opCtrRecord: opOpenRecord, opCtrReset: opOpenReset}

// ctr returns the op of the given kind on a counter, operands resolved and
// the kind chosen by the counter's shape.
func (c *composer) ctr(kind opKind, ctr int16) op {
	d := c.p.counters[ctr-1]
	if d.Open() {
		kind = openKind[kind]
	}
	return op{kind: kind, at: c.p.ctrOff[ctr-1], n: int32(d.words()), a: d.MinGap, b: d.MaxGap,
		live: int32(ctr-1) >> 6, mask: 1 << ((ctr - 1) & 63)}
}

// reset appends o, the Reset c of an unguarded action, under the run's live
// guard on c's live word, opening one at the run's first reset there: the
// common visit, which finds none of the guard's counters live, skips the
// whole span on one test. A reset of a counter already in the span is
// dropped — nothing records before pos at pos, so it would kill nothing the
// first did not — which bounds a span at 64 ops. Joining the span moves o
// back past the ops appended since. As in mask, none of them reads what o
// writes (a run's only guards are live guards, on other live words), and
// the one that can write c's block, an Inc c, commutes with Reset c at one
// position on a witness bitmap: reset is strict, so the witness at pos
// survives it, and never moves the base. On an open counter it does not —
// with an older witness in the word, record-then-reset leaves it empty and
// reset-then-record leaves pos — so a reset that would cross an Inc of its
// own counter opens a new span where it stands instead.
func (c *composer) reset(o op) {
	j := int(c.open[o.live]) - 1
	if j >= c.run && c.ops[j].mask&o.mask != 0 {
		return
	}
	if j < c.run || (o.kind == opOpenReset && c.recordsSince(j+1+int(c.ops[j].skip), o.at)) {
		c.open[o.live] = int32(len(c.ops) + 1)
		c.ops = append(c.ops, op{kind: opCtrLive, skip: 1, live: o.live, mask: o.mask}, o)
		c.guards++
		return
	}
	g := &c.ops[j]
	g.mask |= o.mask
	g.skip = guardSkip(int(g.skip) + 1)
	end := j + int(g.skip)
	c.ops = slices.Insert(c.ops, end, o)
	for i := end + 1; i < len(c.ops); i++ { // re-point last and open at the ops that moved
		switch m := &c.ops[i]; m.kind {
		case opSetBits, opClearBits:
			c.last[m.at] = int32(i + 1)
		case opCtrLive:
			c.open[m.live] = int32(i + 1)
		}
	}
}

// recordsSince reports whether an op from index from on records into the
// open counter at block offset at.
func (c *composer) recordsSince(from int, at int32) bool {
	for _, m := range c.ops[from:] {
		if m.kind == opOpenRecord && m.at == at {
			return true
		}
	}
	return false
}

// mask appends a set or clear of mask in one memory word, or folds it
// into the newest op on that word when that op is of the same kind and in
// the current run. Folding moves the new op back past the ops in between;
// none of them touches the word (the op folded into is the newest that
// does) and none reads memory (a run holds no guard), so their read and
// write sets are disjoint from its own and the order of effects on every
// bit, register and counter is the order of the ids.
func (c *composer) mask(kind opKind, word int32, mask uint64) {
	if j := int(c.last[word]) - 1; j >= c.run && c.ops[j].kind == kind {
		c.ops[j].mask |= mask
		return
	}
	c.ops = append(c.ops, op{kind: kind, at: word, mask: mask})
	c.last[word] = int32(len(c.ops))
}

// ComposeStats describes the programs Compose built.
type ComposeStats struct {
	Programs    int                    // distinct decision sets
	Widest      struct{ IDs, Ops int } // the widest decision set: its ids, the ops they compiled to
	WidestQuiet int                    // the ops a visit of that set runs when every guard fails
	LiveGuards  int                    // live guards emitted, over all programs
	Bytes       int                    // resident size: the ops plus one slice header per set
}

// quietOps counts the ops a run of ap executes when every guard fails.
func (ap AcceptProgram) quietOps() (n int) {
	for pc := 0; pc < len(ap); pc++ {
		n++
		if ap[pc].kind <= opCtrLive {
			pc += int(ap[pc].skip)
		}
	}
	return n
}

// Compose compiles one accept program per decision set, each distinct
// set once: out[i] runs the actions of sets[i] in order. Every id must
// be below NumIDs. The work is linear in the total number of ids.
func (p *Program) Compose(sets [][]int32) ([]AcceptProgram, ComposeStats) {
	type span struct {
		ids        []int32
		start, end int
		next       int32 // 1 + index of the previous span with the same hash
	}
	c := p.newComposer()
	var spans []span
	byHash := make(map[uint64]int32)
	of := make([]int32, len(sets))
	st := ComposeStats{}
next:
	for i, ids := range sets {
		h := uint64(14695981039346656037)
		for _, id := range ids {
			h = (h ^ uint64(uint32(id))) * 1099511628211
		}
		for j := byHash[h]; j != 0; j = spans[j-1].next {
			if slices.Equal(spans[j-1].ids, ids) {
				of[i] = j - 1
				continue next
			}
		}
		start := c.begin()
		for _, id := range ids {
			c.action(p.actions[id])
		}
		spans = append(spans, span{ids: ids, start: start, end: len(c.ops), next: byHash[h]})
		of[i] = int32(len(spans) - 1)
		byHash[h] = int32(len(spans))
		if len(ids) > st.Widest.IDs {
			st.Widest.IDs, st.Widest.Ops = len(ids), len(c.ops)-start
			st.WidestQuiet = AcceptProgram(c.ops[start:]).quietOps()
		}
	}
	out := make([]AcceptProgram, len(sets))
	for i, s := range of {
		out[i] = c.ops[spans[s].start:spans[s].end:spans[s].end]
	}
	st.Programs, st.LiveGuards = len(spans), c.guards
	st.Bytes = len(c.ops)*int(unsafe.Sizeof(op{})) + len(out)*int(unsafe.Sizeof(out[0]))
	return out, st
}
