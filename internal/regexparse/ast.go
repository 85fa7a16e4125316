package regexparse

import (
	"fmt"
	"strings"
)

// Op identifies the kind of an AST node.
type Op int

// The node kinds. OpEmpty matches the empty string; OpClass matches one
// byte drawn from a Class; the rest are the usual regular operators.
const (
	OpEmpty Op = iota + 1
	OpClass
	OpConcat
	OpAlternate
	OpStar
	OpPlus
	OpQuest
	OpRepeat
)

// InfiniteRepeat is the Max value of an OpRepeat node with no upper bound,
// as in {3,}.
const InfiniteRepeat = -1

var opNames = [...]string{OpEmpty: "Empty", OpClass: "Class", OpConcat: "Concat", OpAlternate: "Alternate",
	OpStar: "Star", OpPlus: "Plus", OpQuest: "Quest", OpRepeat: "Repeat"}

func (op Op) String() string {
	if op >= OpEmpty && int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("Op(%d)", int(op))
}

// Node is a regular-expression AST node. Which fields are meaningful
// depends on Op: Class for OpClass; Subs for OpConcat and OpAlternate;
// Sub for the quantifiers; Min and Max additionally for OpRepeat. A node
// is never modified after construction, so trees share subtrees freely.
type Node struct {
	Op    Op
	Class Class
	Subs  []*Node
	Sub   *Node
	Min   int
	Max   int
}

// Pattern is one parsed rule: a root node plus pattern-level attributes.
type Pattern struct {
	// Root is the body of the pattern, excluding any leading ^ anchor.
	Root *Node
	// Anchored reports whether the pattern began with ^ and therefore
	// must match at the start of the flow.
	Anchored bool
	// CaseInsensitive records the /i flag. Folding has already been
	// applied to every class in Root; the flag is retained so the
	// splitter can propagate it onto decomposed fragments.
	CaseInsensitive bool
	// Source is the original pattern text as given to the parser.
	Source string
}

// NewClassNode returns an OpClass node matching the given class.
func NewClassNode(cl Class) *Node {
	return &Node{Op: OpClass, Class: cl}
}

// literals holds the one OpClass leaf per byte value that every parsed
// tree points at where it matches that byte alone: nodes are never
// modified, so a literal needs no node of its own.
var literals = func() (l [AlphabetSize]Node) {
	for c := range l {
		l[c] = Node{Op: OpClass, Class: SingleClass(byte(c))}
	}
	return l
}()

// NewLiteralNode returns a node matching exactly the bytes of s, as an
// OpConcat of the shared single-byte leaves (or OpEmpty when s is empty).
func NewLiteralNode(s string) *Node {
	if s == "" {
		return &Node{Op: OpEmpty}
	}
	if len(s) == 1 {
		return &literals[s[0]]
	}
	subs := make([]*Node, len(s))
	for i := 0; i < len(s); i++ {
		subs[i] = &literals[s[i]]
	}
	return &Node{Op: OpConcat, Subs: subs}
}

// NewConcat returns the concatenation of nodes, flattening nested concats
// and eliding OpEmpty operands.
func NewConcat(nodes ...*Node) *Node {
	flat := make([]*Node, 0, len(nodes))
	for _, n := range nodes {
		switch n.Op {
		case OpEmpty:
			// Identity element of concatenation.
		case OpConcat:
			flat = append(flat, n.Subs...)
		default:
			flat = append(flat, n)
		}
	}
	switch len(flat) {
	case 0:
		return &Node{Op: OpEmpty}
	case 1:
		return flat[0]
	}
	return &Node{Op: OpConcat, Subs: flat}
}

// NewAlternate returns the alternation of nodes, flattening nested
// alternations.
func NewAlternate(nodes ...*Node) *Node {
	flat := make([]*Node, 0, len(nodes))
	for _, n := range nodes {
		if n.Op == OpAlternate {
			flat = append(flat, n.Subs...)
		} else {
			flat = append(flat, n)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return &Node{Op: OpAlternate, Subs: flat}
}

// NewStar returns sub*.
func NewStar(sub *Node) *Node { return &Node{Op: OpStar, Sub: sub} }

// MatchesEmpty reports whether the language of n contains the empty string.
func (n *Node) MatchesEmpty() bool {
	switch n.Op {
	case OpEmpty, OpStar, OpQuest:
		return true
	case OpClass:
		return false
	case OpPlus:
		return n.Sub.MatchesEmpty()
	case OpRepeat:
		return n.Min == 0 || n.Sub.MatchesEmpty()
	case OpConcat:
		for _, s := range n.Subs {
			if !s.MatchesEmpty() {
				return false
			}
		}
		return true
	case OpAlternate:
		for _, s := range n.Subs {
			if s.MatchesEmpty() {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// IsDotStar reports whether n is exactly .* — a star over the full
// alphabet. This is the "dot-star" decomposition point of §IV-A.
func (n *Node) IsDotStar() bool {
	return n.Op == OpStar && n.Sub.Op == OpClass && n.Sub.Class.Count() == AlphabetSize
}

// NegatedClassStar reports whether n has the form [^X]* for a non-full,
// non-empty complement — the "almost-dot-star" decomposition point of
// §IV-B — and if so returns X, the *negated* class that must not occur in
// the gap.
func (n *Node) NegatedClassStar() (x Class, ok bool) {
	if n.Op != OpStar || n.Sub.Op != OpClass {
		return Class{}, false
	}
	inner := n.Sub.Class
	cnt := inner.Count()
	if cnt == 0 || cnt == AlphabetSize {
		return Class{}, false
	}
	return inner.Negate(), true
}

// FixedLength reports whether every word of the node's language has the
// same length, and that length. The counting-gap decomposition needs it:
// a fragment's start offset is only recoverable from its end offset when
// its match length is fixed.
func (n *Node) FixedLength() (int, bool) {
	switch n.Op {
	case OpEmpty:
		return 0, true
	case OpClass:
		return 1, true
	case OpConcat:
		total := 0
		for _, s := range n.Subs {
			l, ok := s.FixedLength()
			if !ok {
				return 0, false
			}
			total += l
		}
		return total, true
	case OpAlternate:
		first, ok := n.Subs[0].FixedLength()
		if !ok {
			return 0, false
		}
		for _, s := range n.Subs[1:] {
			l, ok := s.FixedLength()
			if !ok || l != first {
				return 0, false
			}
		}
		return first, true
	case OpRepeat:
		if n.Max != n.Min {
			return 0, false
		}
		l, ok := n.Sub.FixedLength()
		if !ok {
			return 0, false
		}
		return l * n.Min, true
	default: // Star, Plus, Quest
		// Quest/Star/Plus of a zero-length body would be fixed, but such
		// degenerate nodes do not occur in practice; report variable.
		return 0, false
	}
}

// CountGap reports whether n has the form .{n,} — an unbounded counting
// gap over the full alphabet, the §VI "counting conditions" construct —
// and returns the minimum gap length.
func (n *Node) CountGap() (minGap int, ok bool) {
	if n.Op != OpRepeat || n.Max != InfiniteRepeat || n.Min < 1 {
		return 0, false
	}
	if n.Sub.Op != OpClass || n.Sub.Class.Count() != AlphabetSize {
		return 0, false
	}
	return n.Min, true
}

// BoundedGap reports whether n has the form X{n,m} for a finite m ≥ 1 over
// a single-byte class — a bounded counting gap, the construct the counter
// registers of DESIGN.md §19 compile instead of expanding by duplication —
// and returns the bounds, the negated class that must not occur in the gap
// (empty when X is the full alphabet, i.e. the gap is `.{n,m}`), and
// whether the gap class is the full alphabet.
func (n *Node) BoundedGap() (minGap, maxGap int, negated Class, full bool, ok bool) {
	if n.Op != OpRepeat || n.Max == InfiniteRepeat || n.Max < 1 || n.Min > n.Max {
		return 0, 0, Class{}, false, false
	}
	if n.Sub.Op != OpClass {
		return 0, 0, Class{}, false, false
	}
	cnt := n.Sub.Class.Count()
	if cnt == 0 {
		return 0, 0, Class{}, false, false
	}
	if cnt == AlphabetSize {
		return n.Min, n.Max, Class{}, true, true
	}
	return n.Min, n.Max, n.Sub.Class.Negate(), false, true
}

// String renders the node back to regex source. The output reparses to an
// equivalent AST; it is not guaranteed to be byte-identical to the input.
func (n *Node) String() string {
	var sb strings.Builder
	n.render(&sb, precAlternate)
	return sb.String()
}

// Operator precedence levels for rendering.
const (
	precAlternate = iota
	precConcat
	precRepeat
)

func (n *Node) render(sb *strings.Builder, prec int) {
	switch n.Op {
	case OpEmpty:
		if prec > precAlternate {
			sb.WriteString("()")
		}
	case OpClass:
		sb.WriteString(n.Class.String())
	case OpConcat:
		if prec > precConcat {
			sb.WriteByte('(')
		}
		for _, s := range n.Subs {
			s.render(sb, precConcat+1)
		}
		if prec > precConcat {
			sb.WriteByte(')')
		}
	case OpAlternate:
		if prec > precAlternate {
			sb.WriteByte('(')
		}
		for i, s := range n.Subs {
			if i > 0 {
				sb.WriteByte('|')
			}
			s.render(sb, precConcat)
		}
		if prec > precAlternate {
			sb.WriteByte(')')
		}
	case OpStar, OpPlus, OpQuest, OpRepeat:
		switch n.Sub.Op {
		case OpStar, OpPlus, OpQuest, OpRepeat, OpEmpty:
			// A quantifier applied to a quantified (or empty) node needs
			// explicit grouping to reparse: (a*)* rather than a**.
			sb.WriteByte('(')
			n.Sub.render(sb, precAlternate)
			sb.WriteByte(')')
		default:
			n.Sub.render(sb, precRepeat)
		}
		switch n.Op {
		case OpStar:
			sb.WriteByte('*')
		case OpPlus:
			sb.WriteByte('+')
		case OpQuest:
			sb.WriteByte('?')
		case OpRepeat:
			sb.WriteByte('{')
			fmt.Fprintf(sb, "%d", n.Min)
			if n.Max == InfiniteRepeat {
				sb.WriteString(",}")
			} else if n.Max == n.Min {
				sb.WriteByte('}')
			} else {
				fmt.Fprintf(sb, ",%d}", n.Max)
			}
		}
	}
}

// String renders the pattern, including any anchor, back to source form.
func (p *Pattern) String() string {
	body := p.Root.String()
	if p.Anchored {
		body = "^" + body
	}
	return body
}
