// Package nfa implements Thompson construction of non-deterministic finite
// automata over the byte alphabet, and a sparse-set simulation engine. The
// NFA is both the paper's small-but-slow baseline and the substrate from
// which the DFA, HFA and MFA engines are built by subset construction.
package nfa

import (
	"fmt"
	"slices"

	"matchfilter/internal/regexparse"
)

// StateID indexes a state within an NFA.
type StateID = int32

// NoMatch is the sentinel used where a match id is absent.
const NoMatch = -1

// Transition is a consuming edge: on any byte in Class, move to state To.
type Transition struct {
	Class regexparse.Class
	To    StateID
}

// State is one NFA state: its consuming transitions, its epsilon
// transitions, and the match ids reported when the state is active.
type State struct {
	Trans   []Transition
	Eps     []StateID
	Matches []int
}

// NFA is a non-deterministic automaton with a single start state. Accepting
// states carry non-empty Matches.
type NFA struct {
	States []State
	Start  StateID
}

// Rule pairs a parsed pattern with the match id its acceptance reports.
type Rule struct {
	Pattern *regexparse.Pattern
	MatchID int
}

// MaxExpandedRepeat bounds the total number of fragment copies a single
// {n,m} node may expand to during construction.
const MaxExpandedRepeat = 1024

// MaxBuildStates bounds the total number of NFA states one Build call may
// create, guarding against pathological nested-repeat expansion.
const MaxBuildStates = 1 << 20

type builder struct {
	states []State
	// err latches the first construction failure (state-budget overflow)
	// so newState can keep a simple signature; Build checks it once per
	// compiled rule.
	err error
}

func (b *builder) newState() StateID {
	if len(b.states) >= MaxBuildStates {
		if b.err == nil {
			b.err = fmt.Errorf("automaton exceeds %d states during construction", MaxBuildStates)
		}
		return 0
	}
	b.states = append(b.states, State{})
	return StateID(len(b.states) - 1)
}

func (b *builder) addEps(from, to StateID) {
	b.states[from].Eps = append(b.states[from].Eps, to)
}

func (b *builder) addTrans(from StateID, cl regexparse.Class, to StateID) {
	b.states[from].Trans = append(b.states[from].Trans, Transition{Class: cl, To: to})
}

// frag is a Thompson fragment with one entry and one exit state.
type frag struct {
	start, end StateID
}

// Build constructs the union NFA of all rules. Unanchored patterns are
// given a leading .* so they match anywhere in the flow, mirroring how the
// paper treats the implicit search semantics of security rules.
func Build(rules []Rule) (*NFA, error) {
	roots := make([]*regexparse.Node, len(rules))
	size := 1
	for i, r := range rules {
		roots[i] = r.Pattern.Root
		if !r.Pattern.Anchored {
			roots[i] = regexparse.NewConcat(regexparse.DotStar(), roots[i].Clone())
		}
		size += compiledSize(roots[i])
	}
	b := &builder{states: make([]State, 0, min(size, MaxBuildStates))}
	start := b.newState()
	for i, r := range rules {
		f, err := b.compile(roots[i])
		if err == nil {
			err = b.err
		}
		if err != nil {
			return nil, fmt.Errorf("nfa: rule %d (%s): %w", r.MatchID, r.Pattern.Source, err)
		}
		b.addEps(start, f.start)
		b.states[f.end].Matches = append(b.states[f.end].Matches, r.MatchID)
	}
	return &NFA{States: b.states, Start: start}, nil
}

// BuildSingle constructs an NFA for a bare AST node with its accepting
// state reporting match id 0. No implicit .* is prepended: the automaton
// accepts exactly the language of the node. It is used by the splitter's
// overlap analysis.
func BuildSingle(node *regexparse.Node) (*NFA, error) {
	b := &builder{states: make([]State, 0, compiledSize(node))}
	f, err := b.compile(node)
	if err == nil {
		err = b.err
	}
	if err != nil {
		return nil, fmt.Errorf("nfa: %w", err)
	}
	b.states[f.end].Matches = append(b.states[f.end].Matches, 0)
	return &NFA{States: b.states, Start: f.start}, nil
}

func (b *builder) compile(n *regexparse.Node) (frag, error) {
	if b.err != nil {
		// The state budget is already blown; stop walking what may be an
		// enormous expanded tree.
		return frag{}, b.err
	}
	switch n.Op {
	case regexparse.OpEmpty:
		s := b.newState()
		e := b.newState()
		b.addEps(s, e)
		return frag{s, e}, nil

	case regexparse.OpClass:
		s := b.newState()
		e := b.newState()
		b.addTrans(s, n.Class, e)
		return frag{s, e}, nil

	case regexparse.OpConcat:
		cur, err := b.compile(n.Subs[0])
		if err != nil {
			return frag{}, err
		}
		for _, sub := range n.Subs[1:] {
			next, err := b.compile(sub)
			if err != nil {
				return frag{}, err
			}
			b.addEps(cur.end, next.start)
			cur = frag{cur.start, next.end}
		}
		return cur, nil

	case regexparse.OpAlternate:
		s := b.newState()
		e := b.newState()
		for _, sub := range n.Subs {
			f, err := b.compile(sub)
			if err != nil {
				return frag{}, err
			}
			b.addEps(s, f.start)
			b.addEps(f.end, e)
		}
		return frag{s, e}, nil

	case regexparse.OpStar:
		f, err := b.compile(n.Sub)
		if err != nil {
			return frag{}, err
		}
		s := b.newState()
		e := b.newState()
		b.addEps(s, f.start)
		b.addEps(s, e)
		b.addEps(f.end, f.start)
		b.addEps(f.end, e)
		return frag{s, e}, nil

	case regexparse.OpPlus:
		f, err := b.compile(n.Sub)
		if err != nil {
			return frag{}, err
		}
		e := b.newState()
		b.addEps(f.end, f.start)
		b.addEps(f.end, e)
		return frag{f.start, e}, nil

	case regexparse.OpQuest:
		f, err := b.compile(n.Sub)
		if err != nil {
			return frag{}, err
		}
		s := b.newState()
		e := b.newState()
		b.addEps(s, f.start)
		b.addEps(s, e)
		b.addEps(f.end, e)
		return frag{s, e}, nil

	case regexparse.OpRepeat:
		return b.compileRepeat(n)

	default:
		return frag{}, fmt.Errorf("unknown AST op %v", n.Op)
	}
}

// compiledSize returns the number of states compile creates for n, at
// most MaxBuildStates, so the builder allocates its state slice once.
func compiledSize(n *regexparse.Node) int {
	total := 2 // OpEmpty, OpClass, and the entry and exit of the others
	switch n.Op {
	case regexparse.OpConcat:
		total = 0
		for _, sub := range n.Subs {
			total += compiledSize(sub)
		}
	case regexparse.OpAlternate:
		for _, sub := range n.Subs {
			total += compiledSize(sub)
		}
	case regexparse.OpStar, regexparse.OpQuest:
		total += compiledSize(n.Sub)
	case regexparse.OpPlus:
		total = compiledSize(n.Sub) + 1
	case regexparse.OpRepeat:
		if n.Max > MaxExpandedRepeat || n.Min > MaxExpandedRepeat || n.Max == 0 {
			break // refused, or compiled as OpEmpty
		}
		sub := compiledSize(n.Sub)
		if n.Max == regexparse.InfiniteRepeat {
			total = n.Min*sub + sub + 2
		} else {
			total = n.Min*sub + (n.Max-n.Min)*(sub+2)
		}
	}
	return min(total, MaxBuildStates)
}

// compileRepeat expands {n,m} by duplication: n mandatory copies followed
// by m-n optional copies, or a trailing star for an unbounded tail.
func (b *builder) compileRepeat(n *regexparse.Node) (frag, error) {
	// Count the exact number of fragment copies the expansion below
	// creates: a bounded {n,m} becomes m copies (n mandatory, m-n
	// optional); an unbounded {n,} becomes n mandatory copies plus one
	// trailing star. The former guard charged every repeat for the
	// trailing star and so rejected bounded repeats one copy early.
	count := n.Min + 1
	if n.Max != regexparse.InfiniteRepeat {
		count = n.Max
	}
	if count > MaxExpandedRepeat {
		return frag{}, fmt.Errorf("repeat {%d,%d} expands beyond %d copies", n.Min, n.Max, MaxExpandedRepeat)
	}
	parts := make([]*regexparse.Node, 0, count)
	for i := 0; i < n.Min; i++ {
		parts = append(parts, n.Sub)
	}
	if n.Max == regexparse.InfiniteRepeat {
		parts = append(parts, regexparse.NewStar(n.Sub))
	} else {
		for i := n.Min; i < n.Max; i++ {
			parts = append(parts, &regexparse.Node{Op: regexparse.OpQuest, Sub: n.Sub})
		}
	}
	if len(parts) == 0 {
		return b.compile(&regexparse.Node{Op: regexparse.OpEmpty})
	}
	return b.compile(regexparse.NewConcat(parts...))
}

// NumStates returns the number of states, the "NFA Qs" column of Table V.
func (n *NFA) NumStates() int { return len(n.States) }

// NumTransitions returns the total number of consuming transitions.
func (n *NFA) NumTransitions() int {
	total := 0
	for i := range n.States {
		total += len(n.States[i].Trans)
	}
	return total
}

// MemoryImageBytes estimates the contiguous memory needed to store the
// automaton for matching: per-state headers plus each consuming transition
// (a 32-byte class bitmap and a 4-byte target) and epsilon edge.
func (n *NFA) MemoryImageBytes() int {
	const (
		stateHeader = 16 // offsets into the transition and epsilon arrays
		transSize   = 36 // 256-bit class + int32 target
		epsSize     = 4
		matchSize   = 4
	)
	total := len(n.States) * stateHeader
	for i := range n.States {
		total += len(n.States[i].Trans)*transSize +
			len(n.States[i].Eps)*epsSize +
			len(n.States[i].Matches)*matchSize
	}
	return total
}

// EpsClosure appends to dst the epsilon closure of the given states
// (including themselves), sorted and deduplicated, and returns the
// extended slice. dst doubles as the traversal worklist, so a caller that
// reuses dst[:0] across calls allocates nothing. The seen scratch slice
// must have length NumStates and be all-false; it is reset before return.
func (n *NFA) EpsClosure(dst, states []StateID, seen []bool) []StateID {
	base := len(dst)
	for _, s := range states {
		if !seen[s] {
			seen[s] = true
			dst = append(dst, s)
		}
	}
	for i := base; i < len(dst); i++ {
		for _, t := range n.States[dst[i]].Eps {
			if !seen[t] {
				seen[t] = true
				dst = append(dst, t)
			}
		}
	}
	for _, s := range dst[base:] {
		seen[s] = false
	}
	slices.Sort(dst[base:])
	return dst
}

// Closures returns the epsilon closure of every state, indexed by state
// and sorted. It is the one closure precompute shared by the simulation
// engine, subset construction and the splitter's product searches. The
// closures are capped sub-slices of one backing array.
func (n *NFA) Closures() [][]StateID {
	closures := make([][]StateID, len(n.States))
	end := make([]int, len(n.States))
	seen := make([]bool, len(n.States))
	var all []StateID
	one := []StateID{0}
	for s := range closures {
		one[0] = StateID(s)
		all = n.EpsClosure(all, one, seen)
		end[s] = len(all)
	}
	lo := 0
	for s, hi := range end {
		closures[s] = all[lo:hi:hi]
		lo = hi
	}
	return closures
}
