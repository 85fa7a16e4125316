package dfa

import "math/bits"

// MatchFunc receives a match event: the rule's match id and the 0-based
// offset of the byte at which the match completed.
type MatchFunc = func(id int32, pos int64)

// Engine wraps a DFA for scanning. It is immutable and safe for
// concurrent use by any number of goroutines; per-flow state lives in
// Runner. There is one scan loop over the one table shape (classes.go).
type Engine struct {
	d   *DFA
	div StrideDiv // row base → state number, for the drain and the write-back
}

// NewEngine returns a matcher over d.
func NewEngine(d *DFA) *Engine { return &Engine{d: d, div: NewStrideDiv(d.numClasses)} }

// DFA returns the underlying automaton.
func (e *Engine) DFA() *DFA { return e.d }

// Runner is the per-flow context of a DFA scan: a single automaton state
// and the running byte offset — the (q) half of the paper's (q, m) pair.
//
// Lifecycle: obtain one per flow from Engine.NewRunner, Feed it the
// flow's bytes in order (split across calls at any boundary), and either
// Reset it for a new flow or save/restore its position with
// State/SetState when flows are multiplexed. A Runner is not safe for
// concurrent use; any number of Runners may share one Engine.
type Runner struct {
	e     *Engine
	state uint32
	pos   int64
}

// NewRunner returns a runner positioned at the start of a flow.
func (e *Engine) NewRunner() *Runner {
	return &Runner{e: e, state: e.d.start}
}

// Reset rewinds the runner to the start of a new flow.
func (r *Runner) Reset() {
	r.state = r.e.d.start
	r.pos = 0
}

// Pos returns the number of bytes consumed so far.
func (r *Runner) Pos() int64 { return r.pos }

// State returns the current DFA state, exposed so composite engines (the
// MFA) can persist and restore per-flow contexts. State numbering is a
// property of the automaton, not of its table: a state saved from an
// engine restores into any table of the same automaton, a flat image
// loaded by ReadDFA included, and vice versa.
func (r *Runner) State() uint32 { return r.state }

// SetState restores a previously saved state.
func (r *Runner) SetState(s uint32, pos int64) {
	r.state = s
	r.pos = pos
}

// Feed advances the runner over data, invoking onMatch for every element
// of the decision set of each visited accepting state, in input order.
// This is the sequential loop of the whole system, in two steps a block:
// WalkQuarters walks up to BlockLen bytes — as four independent chains
// when at least 64 bytes are left, with no branch on the states reached —
// and the drain then reports the visits its accept words name, word by
// word. A callback therefore runs up to BlockLen-1 = 255 bytes of walking
// after the byte it reports, with the same pos and the same Pos() (which
// moves only when Feed returns). The walk runs over pre-scaled row bases
// (st = trans[st+classOf[b]], no multiply per byte); conversion to and
// from state numbers happens per visit and once per call, so
// State/SetState speak plain state numbers. If onMatch panics the runner
// keeps the state and position the call found.
func (r *Runner) Feed(data []byte, onMatch MatchFunc) {
	d, div := r.e.d, r.e.div
	k := uint32(d.numClasses)
	st, scaledAccept := r.state*k, d.acceptStart*k
	pos := r.pos
	var rec Quarters
	for len(data) > 0 {
		st = WalkQuarters(d.trans, d.classOf, st, scaledAccept, data, &rec)
		for j, accepts := range rec.Accepts {
			for accepts != 0 {
				low := accepts
				accepts &= accepts - 1
				i := (j*64 + bits.TrailingZeros64(low)) & (BlockLen - 1) // the mask only tells the compiler i is in range
				at := pos + int64(rec.Offset(i))
				for _, id := range d.accepts[div.Quo(rec.Rows[i]-scaledAccept)] {
					onMatch(id, at)
				}
			}
		}
		n := rec.Len()
		data, pos = data[n:], pos+int64(n)
	}
	r.state, r.pos = div.Quo(st), pos
}

// FeedCount advances the runner over data without reporting individual
// events, returning only the number of match events: Feed's loop with a
// sum of decision-set sizes for a drain. It is the measurement loop used
// by throughput benchmarks, where the cost of a callback per event would
// distort engine comparisons.
func (r *Runner) FeedCount(data []byte) int64 {
	d, div := r.e.d, r.e.div
	k := uint32(d.numClasses)
	st, scaledAccept := r.state*k, d.acceptStart*k
	r.pos += int64(len(data))
	var count int64
	var rec Quarters
	for len(data) > 0 {
		st = WalkQuarters(d.trans, d.classOf, st, scaledAccept, data, &rec)
		for j, accepts := range rec.Accepts {
			for accepts != 0 {
				// low dies at the bit scan, so it can take low's register:
				// BSF leaves its destination as it was on a zero source, so
				// the hardware reads it, and a destination last written by
				// the previous visit's loads would chain every visit to the
				// one before (×0.7 on S24 ∪ CTR24's fragment automaton).
				low := accepts
				accepts &= accepts - 1
				i := (j*64 + bits.TrailingZeros64(low)) & (BlockLen - 1)
				count += int64(len(d.accepts[div.Quo(rec.Rows[i]-scaledAccept)]))
			}
		}
		data = data[rec.Len():]
	}
	r.state = div.Quo(st)
	return count
}

// MatchEvent records one reported match.
type MatchEvent struct {
	ID  int32
	Pos int64
}

// Run scans data from the start of a fresh flow and returns all matches
// in order; a convenience for tests and one-shot scans.
func (e *Engine) Run(data []byte) []MatchEvent {
	var out []MatchEvent
	r := e.NewRunner()
	r.Feed(data, func(id int32, pos int64) {
		out = append(out, MatchEvent{ID: id, Pos: pos})
	})
	return out
}
