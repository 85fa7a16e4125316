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
	// err latches the first construction failure (state budget, repeat
	// expansion) so compile can keep a simple signature; rule checks it
	// once per compiled rule.
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

// Build constructs the union NFA of all rules. Unanchored patterns match
// anywhere in the flow, the implicit search semantics the paper gives
// security rules: rather than a .* per rule, one loop state, consuming
// every byte back to itself, is entered from the start state, and each
// unanchored rule is compiled from it; anchored rules are compiled from
// the start state. A set with no unanchored rule has no loop.
func Build(rules []Rule) (*NFA, error) {
	size, loop := 1, StateID(0) // the loop, if any, is state 1
	for _, r := range rules {
		size += compiledSize(r.Pattern.Root, true)
		if !r.Pattern.Anchored {
			loop = 1
		}
	}
	b := &builder{states: make([]State, 0, min(size+int(loop), MaxBuildStates))}
	start := b.newState()
	if loop != 0 {
		b.addTrans(b.newState(), regexparse.AnyClass(), loop)
		b.addEps(start, loop)
	}
	for _, r := range rules {
		from := start
		if !r.Pattern.Anchored {
			from = loop
		}
		if _, err := b.rule(r.Pattern.Root, from, r.MatchID); err != nil {
			return nil, fmt.Errorf("nfa: rule %d (%s): %w", r.MatchID, r.Pattern.Source, err)
		}
	}
	return &NFA{States: b.states, Start: start}, nil
}

// BuildSingle constructs an NFA for a bare AST node with its accepting
// state reporting match id 0. It has no unanchored loop: the automaton
// accepts exactly the language of the node. It is used by the splitter's
// overlap analysis.
func BuildSingle(node *regexparse.Node) (*NFA, error) {
	b := &builder{states: make([]State, 0, compiledSize(node, false))}
	f, err := b.rule(node, none, 0)
	if err != nil {
		return nil, fmt.Errorf("nfa: %w", err)
	}
	return &NFA{States: b.states, Start: f.start}, nil
}

// rule compiles root from entry, its exit reporting match id id.
func (b *builder) rule(root *regexparse.Node, entry StateID, id int) (frag, error) {
	f := b.compile(root, entry)
	if b.err == nil {
		b.states[f.end].Matches = append(b.states[f.end].Matches, id)
	}
	return f, b.err
}

// none is the entry of a fragment that makes a start state of its own.
const none StateID = -1

// enter returns entry, or a new state when entry is none.
func (b *builder) enter(entry StateID) StateID {
	if entry == none {
		return b.newState()
	}
	return entry
}

// compile builds n's Thompson fragment from entry, or from a new start
// state when entry is none, to a new exit state without edges. A
// fragment is entered only from outside it, except a Plus, which loops
// back to its start: so a start is merged into entry, the exit before it
// or the state its parent branches from, and a Plus alone keeps a start
// one ε-edge from entry. A merged pair was in the same subsets of states
// before, so subset construction builds the same DFA from fewer NFA
// states. A failure latches in b.err, and compile returns at once while
// one is set.
func (b *builder) compile(n *regexparse.Node, entry StateID) frag {
	if b.err != nil {
		return frag{} // stop walking what may be an enormous expanded tree
	}
	switch n.Op {
	case regexparse.OpEmpty, regexparse.OpClass:
		s, e := b.enter(entry), b.newState()
		if n.Op == regexparse.OpEmpty {
			b.addEps(s, e)
		} else {
			b.addTrans(s, n.Class, e)
		}
		return frag{s, e}

	case regexparse.OpConcat:
		f := b.compile(n.Subs[0], entry)
		for _, sub := range n.Subs[1:] {
			f.end = b.compile(sub, f.end).end
		}
		return f

	case regexparse.OpAlternate:
		s, e := b.enter(entry), b.newState()
		for _, sub := range n.Subs {
			b.addEps(b.compile(sub, s).end, e)
		}
		return frag{s, e}

	case regexparse.OpStar:
		s := b.enter(entry)
		f := b.compile(n.Sub, none)
		e := b.newState()
		b.addEps(s, f.start)
		b.addEps(s, e)
		b.addEps(f.end, f.start)
		b.addEps(f.end, e)
		return frag{s, e}

	case regexparse.OpPlus:
		f := b.compile(n.Sub, none)
		e := b.newState()
		b.addEps(f.end, f.start)
		b.addEps(f.end, e)
		if entry != none {
			b.addEps(entry, f.start)
			f.start = entry
		}
		return frag{f.start, e}

	case regexparse.OpQuest:
		s := b.enter(entry)
		f := b.compile(n.Sub, s)
		e := b.newState()
		b.addEps(s, e)
		b.addEps(f.end, e)
		return frag{s, e}

	case regexparse.OpRepeat:
		return b.compileRepeat(n, entry)
	}
	b.err = fmt.Errorf("unknown AST op %v", n.Op)
	return frag{}
}

// compiledSize returns the number of states compile creates for n, with
// an entry state when entered, at most MaxBuildStates, so the builder
// allocates its state slice once.
func compiledSize(n *regexparse.Node, entered bool) int {
	own := 1 // the start, unless entered
	if entered {
		own = 0
	}
	total := 1 + own // OpEmpty, OpClass and the exit of the others
	switch n.Op {
	case regexparse.OpConcat:
		total = compiledSize(n.Subs[0], entered)
		for _, sub := range n.Subs[1:] {
			total += compiledSize(sub, true)
		}
	case regexparse.OpAlternate:
		for _, sub := range n.Subs {
			total += compiledSize(sub, true)
		}
	case regexparse.OpStar:
		total += compiledSize(n.Sub, false)
	case regexparse.OpQuest:
		total += compiledSize(n.Sub, true)
	case regexparse.OpPlus:
		total = compiledSize(n.Sub, false) + 1
	case regexparse.OpRepeat:
		if n.Max > MaxExpandedRepeat || n.Min > MaxExpandedRepeat || n.Max == 0 {
			break // refused, or compiled as OpEmpty
		}
		// A Concat of Min copies of Sub, then Max-Min Quests or one Star.
		in, out := compiledSize(n.Sub, true), compiledSize(n.Sub, false)
		total = n.Min*in + (n.Max-n.Min)*(1+in)
		if n.Max == regexparse.InfiniteRepeat {
			total = n.Min*in + 1 + out
		}
		if n.Min > 0 {
			own *= out - in // the first copy's start: none for a Plus
		}
		total += own
	}
	return min(total, MaxBuildStates)
}

// compileRepeat expands {n,m} by duplication: n mandatory copies followed
// by m-n optional copies, or a trailing star for an unbounded tail.
func (b *builder) compileRepeat(n *regexparse.Node, entry StateID) frag {
	// A bounded {n,m} becomes m copies, an unbounded {n,} n copies and
	// one trailing star.
	count := n.Min + 1
	if n.Max != regexparse.InfiniteRepeat {
		count = n.Max
	}
	if count > MaxExpandedRepeat {
		b.err = fmt.Errorf("repeat {%d,%d} expands beyond %d copies", n.Min, n.Max, MaxExpandedRepeat)
		return frag{}
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
		return b.compile(&regexparse.Node{Op: regexparse.OpEmpty}, entry)
	}
	return b.compile(regexparse.NewConcat(parts...), entry)
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
// and sorted: the simulation engine's precompute, and each splitter
// segment's. Subset construction does not use it; it closes only the
// start and the transition targets (dfa's closeTargets). The closures are
// capped sub-slices of one backing array.
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
