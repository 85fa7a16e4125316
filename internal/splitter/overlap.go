package splitter

import (
	"matchfilter/internal/nfa"
	"matchfilter/internal/regexparse"
)

// segment is one side of an overlap check: a segment's NFA, its
// ε-closures, and per state whether its closure holds the accept. A rule
// builds one per segment, on first use (automata), since a segment is B
// of one separator and A of the next.
type segment struct {
	*nfa.NFA
	closures  [][]nfa.StateID
	accepting []bool
}

func newSegment(node *regexparse.Node) (*segment, error) {
	n, err := nfa.BuildSingle(node)
	if err != nil {
		return nil, err
	}
	s := &segment{NFA: n, closures: n.Closures(), accepting: make([]bool, n.NumStates())}
	for q, closure := range s.closures {
		for _, r := range closure {
			if len(n.States[r].Matches) > 0 {
				s.accepting[q] = true
				break
			}
		}
	}
	return s, nil
}

// automata holds a rule's segments and builds each one's automaton once.
type automata struct {
	nodes []*regexparse.Node
	built []*segment
}

func (at *automata) get(i int) (*segment, error) {
	if at.built[i] == nil {
		s, err := newSegment(at.nodes[i])
		if err != nil {
			return nil, err
		}
		at.built[i] = s
	}
	return at.built[i], nil
}

// every returns the states 0..n-1.
func every(n int) []nfa.StateID {
	all := make([]nfa.StateID, n)
	for i := range all {
		all[i] = nfa.StateID(i)
	}
	return all
}

// suffixPrefixOverlap reports whether some non-empty string is both a
// suffix of a word in L(a) and a prefix of a word in L(b). This is the
// paper's validity condition for dot-star decomposition: if such a string
// exists, B could begin matching before A finishes, and the decomposed
// filter would confirm matches the original regex rejects (the
// .*abc.*bcd / "abcd" example of §IV-A). It searches the product of A's
// suffix automaton (A's NFA with every state initial — every Thompson
// state lies on a start→accept path, so paths from any state to the
// accept spell exactly the suffixes) and B's prefix automaton (B's NFA
// with every state accepting — every state is co-accessible, so paths
// from the start spell exactly the prefixes).
func suffixPrefixOverlap(a, b *segment) bool {
	return meets(a, b, every(a.NumStates()), b.closures[b.Start])
}

// infixOverlap reports whether some word of L(a) occurs as a factor
// (substring) of a word of L(b). This condition is required in addition to
// the suffix/prefix one: the paper's formal statement only forbids
// suffix/prefix sharing, but its rationale — "B begins matching before A
// finishes matching" — also covers A-matches lying entirely inside B's
// span. Without this check, decomposing .*b.*abc wrongly confirms on
// input "abc" (the filter sees A="b" end at offset 1, inside B's match),
// and a trailing fragment that kept an internal gap (e.g. "xyz.*xyz"
// after a refused inner split) could satisfy its guard with content that
// precedes the guard segment. It searches the product of A's NFA (from
// its true start) and B's factor automaton (every state initial and
// accepting).
func infixOverlap(a, b *segment) bool {
	return meets(a, b, a.closures[a.Start], every(b.NumStates()))
}

// maxPairs bounds |A|·|B| for one product search, which keeps its
// visited set at 128 KB. Rule text is untrusted, and nested bounded
// repeats give a segment up to nfa.MaxBuildStates states from a few bytes.
const maxPairs = nfa.MaxBuildStates

// meets runs a BFS over the product of a and b from every pair of
// fromA × fromB and reports whether a pair whose A side holds the accept
// is reached by at least one byte — the empty string, common to every
// suffix and prefix, does not count. Visited pairs are one bit each in a
// dense |A|·|B| set. A product larger than maxPairs is reported as
// meeting without a search: that refuses the split (or, under Extended,
// records a position instead of a bit), which is always sound.
func meets(a, b *segment, fromA, fromB []nfa.StateID) bool {
	nb := b.NumStates()
	if a.NumStates()*nb > maxPairs {
		return true
	}
	visited := make([]uint64, (a.NumStates()*nb+63)/64)
	var queue [][2]nfa.StateID
	visit := func(qa, qb nfa.StateID) bool {
		i := int(qa)*nb + int(qb)
		if visited[i>>6]&(1<<(i&63)) != 0 {
			return false
		}
		visited[i>>6] |= 1 << (i & 63)
		queue = append(queue, [2]nfa.StateID{qa, qb})
		return true
	}
	for _, qa := range fromA {
		for _, qb := range fromB {
			visit(qa, qb)
		}
	}
	for i := 0; i < len(queue); i++ {
		p := queue[i]
		for _, ta := range a.States[p[0]].Trans {
			for _, tb := range b.States[p[1]].Trans {
				if ta.Class.Intersect(tb.Class).IsEmpty() {
					continue
				}
				for _, qa := range a.closures[ta.To] {
					for _, qb := range b.closures[tb.To] {
						if visit(qa, qb) && a.accepting[qa] {
							return true
						}
					}
				}
			}
		}
	}
	return false
}

// classAppearsIn reports whether any byte of x can occur anywhere in a
// word of L(b): it intersects x with every consuming transition of B's
// NFA. This implements the §IV-B condition "the characters in X cannot
// appear in B" — if one did, the gap fragment .*[X] would clear the guard
// bit while B itself is being matched, suppressing every match.
func classAppearsIn(x regexparse.Class, b *segment) bool {
	for i := range b.States {
		for _, t := range b.States[i].Trans {
			if !t.Class.Intersect(x).IsEmpty() {
				return true
			}
		}
	}
	return false
}

// classInFinalPosition reports whether a word of L(a) can end with a byte
// of x: it looks for a transition into an accept-closure state whose class
// meets x. This implements the §IV-B condition that X may appear only in
// non-final positions of A — a final X byte would require the filter to
// set and clear the same bit simultaneously, which the action model cannot
// express, so such decompositions are refused.
func classInFinalPosition(x regexparse.Class, a *segment) bool {
	for i := range a.States {
		for _, t := range a.States[i].Trans {
			if a.accepting[t.To] && !t.Class.Intersect(x).IsEmpty() {
				return true
			}
		}
	}
	return false
}
