package dfa

// MatchFunc receives a match event: the rule's match id and the 0-based
// offset of the byte at which the match completed.
type MatchFunc = func(id int32, pos int64)

// Engine wraps a DFA for scanning. It is immutable and safe for
// concurrent use by any number of goroutines; per-flow state lives in
// Runner. There is one scan loop: both layouts are the same table shape
// (see classes.go) and differ only in which columns the table keeps.
type Engine struct {
	d   *DFA
	div StrideDiv // row base → state number; read at the accept sites: held in registers across the walk it spills the loop
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
// property of the automaton, not the table layout: a state saved from a
// classed engine restores into a flat one built from the same NFA, and
// vice versa.
func (r *Runner) State() uint32 { return r.state }

// SetState restores a previously saved state.
func (r *Runner) SetState(s uint32, pos int64) {
	r.state = s
	r.pos = pos
}

// Feed advances the runner over data, invoking onMatch for every element
// of the decision set of each visited accepting state. This is the hot
// loop of the whole system: one load from the 256-byte class map (always
// L1-resident), one table load and one compare per byte. The walk runs
// over pre-scaled row bases (st = trans[st+classOf[b]], no multiply per
// byte); conversion to and from state numbers happens once per call, so
// State/SetState stay layout-independent.
func (r *Runner) Feed(data []byte, onMatch MatchFunc) {
	d := r.e.d
	pos := r.pos
	trans := d.trans
	classOf := d.classOf
	k := uint32(d.numClasses)
	st := r.state * k
	scaledAccept := d.acceptStart * k
	for i := 0; i < len(data); i++ {
		st = trans[st+uint32(classOf[data[i]])]
		if st >= scaledAccept {
			for _, id := range d.accepts[r.e.div.Quo(st-scaledAccept)] {
				onMatch(id, pos)
			}
		}
		pos++
	}
	r.state = r.e.div.Quo(st)
	r.pos = pos
}

// FeedCount advances the runner over data without reporting individual
// events, returning only the number of match events. It is the
// measurement loop used by throughput benchmarks, where the cost of a
// callback per event would distort engine comparisons.
func (r *Runner) FeedCount(data []byte) int64 {
	d := r.e.d
	trans := d.trans
	classOf := d.classOf
	k := uint32(d.numClasses)
	st := r.state * k
	scaledAccept := d.acceptStart * k
	var count int64
	for i := 0; i < len(data); i++ {
		st = trans[st+uint32(classOf[data[i]])]
		if st >= scaledAccept {
			count += int64(len(d.accepts[r.e.div.Quo(st-scaledAccept)]))
		}
	}
	r.state = r.e.div.Quo(st)
	r.pos += int64(len(data))
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
