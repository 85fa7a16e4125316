// Package hfa implements a History-based Finite Automaton baseline in the
// style of HFA [Kumar et al. 2007] as refined by HASIC [Liu et al. 2013]:
// a deterministic automaton whose transitions test and modify a small
// history register as they fire.
//
// Substitution notes (see DESIGN.md): HASIC itself is not public. This
// baseline factors only plain dot-star progress into history bits — the
// construct the original HFA paper targets — so almost-dot-star patterns
// keep their states, reproducing HFA's two reported properties relative
// to the MFA: a considerably larger memory image (every transition is a
// 16-byte conditional cell rather than a 4-byte target, and the automaton
// retains more states) and slower per-byte processing (each step loads a
// 4× larger cell and evaluates its condition/action inline).
package hfa

import (
	"fmt"
	"time"

	"matchfilter/internal/dfa"
	"matchfilter/internal/filter"
	"matchfilter/internal/nfa"
	"matchfilter/internal/regexparse"
	"matchfilter/internal/splitter"
)

// Rule is one input regex and the id reported when it matches.
type Rule struct {
	Pattern *regexparse.Pattern
	ID      int32
}

// Cell is one conditional transition: the next state plus the history
// operation performed on entering it. Kind discriminates the fast path
// (kindPlain: no memory interaction at all) from inline single actions
// and the rare multi-action overflow. The 16-byte layout is the memory
// image unit reported by Figure 2.
type Cell struct {
	Next   uint32
	Kind   uint8
	_      uint8
	Cond   int16 // history bit tested, filter.NoBit if unconditional
	Set    int16
	Clear  int16
	Report int32 // rule id to report, or overflow index for kindMulti
}

// Cell kinds.
const (
	kindPlain uint8 = iota
	kindAction
	kindMulti
)

// Options configures construction.
type Options struct {
	// MaxStates caps subset construction; 0 means dfa.DefaultMaxStates.
	MaxStates int
}

// HFA is the compiled automaton.
type HFA struct {
	numStates int
	start     uint32
	cells     []Cell
	overflow  [][]filter.Action
	prog      *filter.Program
	stats     BuildStats
}

// BuildStats records construction results.
type BuildStats struct {
	NumStates   int
	MemBits     int
	BuildTime   time.Duration
	SplitStats  splitter.Stats
	NFAStates   int
	OverflowLen int
}

// checkAction returns a filter.UnsupportedActionError unless a is made of
// what a history cell can express: single-bit test, set and clear, and a
// report.
func checkAction(id int32, a filter.Action) error {
	bitsOnly := filter.Action{Test: a.Test, Set: a.Set, Clear: a.Clear, Report: a.Report}
	if a != bitsOnly {
		return &filter.UnsupportedActionError{Compiler: "hfa", ID: id, Action: a}
	}
	return nil
}

// Compile builds the HFA for a rule set. History bits track dot-star
// progress only, under the paper's conditions: almost-dot-star gaps and
// overlapping dot-stars remain in the automaton, as in the original HFA
// design.
func Compile(rules []Rule, opts Options) (*HFA, error) {
	start := time.Now()

	srules := make([]splitter.Rule, len(rules))
	for i, r := range rules {
		srules[i] = splitter.Rule{Pattern: r.Pattern, RuleID: r.ID}
	}
	res, err := splitter.Split(srules, splitter.Options{Construction: splitter.PaperDotStar})
	if err != nil {
		return nil, fmt.Errorf("hfa: %w", err)
	}
	for id := 1; id < len(res.Actions); id++ {
		if err := checkAction(int32(id), res.Actions[id]); err != nil {
			return nil, err
		}
	}

	nfaRules := make([]nfa.Rule, len(res.Fragments))
	for i, f := range res.Fragments {
		nfaRules[i] = nfa.Rule{Pattern: f.Pattern, MatchID: int(f.InternalID)}
	}
	n, err := nfa.Build(nfaRules)
	if err != nil {
		return nil, fmt.Errorf("hfa: %w", err)
	}
	// The HFA repacks the flat 256-wide table into its 8-byte history
	// cells below; request that layout directly rather than expanding a
	// classed table back out.
	d, err := dfa.FromNFA(n, dfa.Options{MaxStates: opts.MaxStates, Layout: dfa.LayoutFlat})
	if err != nil {
		return nil, fmt.Errorf("hfa: %w", err)
	}

	h := repack(d, res)
	h.stats.BuildTime = time.Since(start)
	h.stats.SplitStats = res.Stats
	h.stats.NFAStates = n.NumStates()
	return h, nil
}

// repack converts the flat DFA into conditional-cell form: the filter
// action of each accepting state is folded into every transition entering
// it, so history tests and updates happen during the transition, the
// defining behaviour of the HFA processing model. Every action has passed
// checkAction: a cell has no field for anything but bits and a report.
func repack(d *dfa.DFA, res *splitter.Result) *HFA {
	prog := res.Program()
	numStates := d.NumStates()

	// Per-state entry behaviour.
	type entry struct {
		kind    uint8
		action  filter.Action
		actions []filter.Action
	}
	entries := make([]entry, numStates)
	var overflow [][]filter.Action
	for s := uint32(0); s < uint32(numStates); s++ {
		ids := d.Matches(s)
		switch len(ids) {
		case 0:
			entries[s] = entry{kind: kindPlain}
		case 1:
			entries[s] = entry{kind: kindAction, action: prog.Action(ids[0])}
		default:
			acts := make([]filter.Action, len(ids))
			for i, id := range ids {
				acts[i] = prog.Action(id)
			}
			entries[s] = entry{kind: kindMulti, actions: acts}
			overflow = append(overflow, acts)
		}
	}

	trans := d.TransitionTable()
	cells := make([]Cell, len(trans))
	overflowIdx := make(map[uint32]int32, len(overflow))
	nextOverflow := int32(0)
	for i, next := range trans {
		e := entries[next]
		cell := Cell{Next: next, Kind: e.kind, Cond: filter.NoBit, Set: filter.NoBit, Clear: filter.NoBit}
		switch e.kind {
		case kindAction:
			cell.Cond = e.action.Test
			cell.Set = e.action.Set
			cell.Clear = e.action.Clear
			cell.Report = e.action.Report
		case kindMulti:
			idx, ok := overflowIdx[next]
			if !ok {
				idx = nextOverflow
				nextOverflow++
				overflowIdx[next] = idx
			}
			cell.Report = idx
		}
		cells[i] = cell
	}
	// Rebuild overflow in index order.
	ordered := make([][]filter.Action, nextOverflow)
	for s, idx := range overflowIdx {
		ordered[idx] = entries[s].actions
	}

	return &HFA{
		numStates: numStates,
		start:     d.Start(),
		cells:     cells,
		overflow:  ordered,
		prog:      prog,
		stats: BuildStats{
			NumStates:   numStates,
			MemBits:     res.MemBits,
			OverflowLen: len(ordered),
		},
	}
}

// Stats returns construction statistics.
func (h *HFA) Stats() BuildStats { return h.stats }

// NumStates returns the number of automaton states.
func (h *HFA) NumStates() int { return h.numStates }

// MemoryImageBytes returns the static image: the conditional-cell table
// (16 bytes per state per byte value) plus overflow action lists.
func (h *HFA) MemoryImageBytes() int {
	total := len(h.cells) * 16
	total += len(h.overflow) * 8
	for _, acts := range h.overflow {
		total += len(acts) * 12
	}
	return total
}

// MatchFunc receives a confirmed match.
type MatchFunc = func(ruleID int32, pos int64)

// Runner is one flow's context: automaton state plus history register.
type Runner struct {
	h   *HFA
	st  uint32
	mem filter.Memory
	pos int64
}

// NewRunner returns a runner at the start of a fresh flow.
func (h *HFA) NewRunner() *Runner {
	return &Runner{h: h, st: h.start, mem: h.prog.NewMemory()}
}

// Reset rewinds the runner for a new flow.
func (r *Runner) Reset() {
	r.st = r.h.start
	r.mem.Reset()
	r.pos = 0
}

// Pos returns the number of bytes consumed.
func (r *Runner) Pos() int64 { return r.pos }

// Feed advances the flow, evaluating each transition's condition and
// history operation inline.
func (r *Runner) Feed(data []byte, onMatch MatchFunc) {
	h := r.h
	cells := h.cells
	mem := r.mem
	st := r.st
	pos := r.pos
	for i := 0; i < len(data); i++ {
		cell := cells[int(st)<<8|int(data[i])]
		st = cell.Next
		if cell.Kind != kindPlain {
			if cell.Kind == kindAction {
				if cell.Cond == filter.NoBit || mem.Bit(cell.Cond) {
					if cell.Set != filter.NoBit {
						mem[cell.Set>>6] |= 1 << (cell.Set & 63)
					}
					if cell.Clear != filter.NoBit {
						mem[cell.Clear>>6] &^= 1 << (cell.Clear & 63)
					}
					if cell.Report != filter.NoReport && onMatch != nil {
						onMatch(cell.Report, pos)
					}
				}
			} else {
				for _, a := range h.overflow[cell.Report] {
					if a.Test != filter.NoBit && !mem.Bit(a.Test) {
						continue
					}
					if a.Set != filter.NoBit {
						mem[a.Set>>6] |= 1 << (a.Set & 63)
					}
					if a.Clear != filter.NoBit {
						mem[a.Clear>>6] &^= 1 << (a.Clear & 63)
					}
					if a.Report != filter.NoReport && onMatch != nil {
						onMatch(a.Report, pos)
					}
				}
			}
		}
		pos++
	}
	r.st = st
	r.pos = pos
}

// FeedCount advances the flow and returns the number of confirmed
// matches, the benchmark loop.
func (r *Runner) FeedCount(data []byte) int64 {
	var count int64
	r.Feed(data, func(int32, int64) { count++ })
	return count
}

// MatchEvent records one confirmed match.
type MatchEvent struct {
	RuleID int32
	Pos    int64
}

// Run scans data as one fresh flow.
func (h *HFA) Run(data []byte) []MatchEvent {
	var out []MatchEvent
	r := h.NewRunner()
	r.Feed(data, func(id int32, pos int64) {
		out = append(out, MatchEvent{RuleID: id, Pos: pos})
	})
	return out
}
