package nfa

import "slices"

// MatchFunc receives a match event: the rule's match id and the 0-based
// offset of the byte at which the match completed.
type MatchFunc func(id int, pos int64)

// Engine is an immutable, shareable NFA matcher with precomputed epsilon
// closures. Per-flow mutable state lives in Runner, so one Engine serves
// any number of concurrently scanned flows.
type Engine struct {
	n        *NFA
	closures [][]StateID // epsilon closure of each state, sorted
	startSet []StateID   // closure of the start state
}

// NewEngine precomputes epsilon closures and returns a matcher for n.
func NewEngine(n *NFA) *Engine {
	closures := n.Closures()
	return &Engine{
		n:        n,
		closures: closures,
		startSet: closures[n.Start],
	}
}

// NFA returns the underlying automaton.
func (e *Engine) NFA() *NFA { return e.n }

// Runner holds the mutable matching state for one flow: the set of active
// NFA states and the running byte offset.
type Runner struct {
	e      *Engine
	cur    []StateID
	next   []StateID
	inNext []bool
	ids    []int // per-position match id scratch, for deduplication
	pos    int64
}

// NewRunner returns a runner positioned at the start of a flow.
func (e *Engine) NewRunner() *Runner {
	r := &Runner{
		e:      e,
		cur:    make([]StateID, 0, len(e.startSet)),
		next:   make([]StateID, 0, len(e.startSet)),
		inNext: make([]bool, e.n.NumStates()),
	}
	r.Reset()
	return r
}

// Reset rewinds the runner to the start of a new flow.
func (r *Runner) Reset() {
	r.cur = append(r.cur[:0], r.e.startSet...)
	r.pos = 0
}

// Pos returns the number of bytes consumed so far.
func (r *Runner) Pos() int64 { return r.pos }

// ActiveStates returns the number of currently active NFA states; the
// paper's explanation for the bimodal NFA throughput (§V-D) is exactly
// this number.
func (r *Runner) ActiveStates() int { return len(r.cur) }

// Feed advances the runner over data, invoking onMatch (if non-nil) for
// every match event. Matches of the empty pattern are not reported.
func (r *Runner) Feed(data []byte, onMatch MatchFunc) {
	n := r.e.n
	closures := r.e.closures
	for i := 0; i < len(data); i++ {
		c := data[i]
		r.next = r.next[:0]
		r.ids = r.ids[:0]
		for _, s := range r.cur {
			for _, t := range n.States[s].Trans {
				if !t.Class.Contains(c) {
					continue
				}
				for _, q := range closures[t.To] {
					if r.inNext[q] {
						continue
					}
					r.inNext[q] = true
					r.next = append(r.next, q)
					for _, id := range n.States[q].Matches {
						if !slices.Contains(r.ids, id) { // a position's ids are few
							r.ids = append(r.ids, id)
						}
					}
				}
			}
		}
		for _, q := range r.next {
			r.inNext[q] = false
		}
		if onMatch != nil {
			for _, id := range r.ids {
				onMatch(id, r.pos)
			}
		}
		r.cur, r.next = r.next, r.cur
		r.pos++
	}
}

// Run scans data from the start of a fresh flow and returns all matches in
// order. It is a convenience wrapper for tests and one-shot scans.
func (e *Engine) Run(data []byte) []MatchEvent {
	var out []MatchEvent
	r := e.NewRunner()
	r.Feed(data, func(id int, pos int64) {
		out = append(out, MatchEvent{ID: id, Pos: pos})
	})
	return out
}

// MatchEvent records one reported match: the rule id and the offset of the
// final byte of the matching substring.
type MatchEvent struct {
	ID  int
	Pos int64
}
