package splitter

import (
	"matchfilter/internal/nfa"
	"matchfilter/internal/regexparse"
)

// SuffixPrefixOverlap reports whether some non-empty string is both a
// suffix of a word in L(a) and a prefix of a word in L(b). This is the
// paper's validity condition for dot-star decomposition: if such a string
// exists, B could begin matching before A finishes, and the decomposed
// filter would confirm matches the original regex rejects (the
// .*abc.*bcd / "abcd" example of §IV-A).
//
// The check runs a BFS over the product of A's suffix automaton (A's NFA
// with every state initial — every Thompson state lies on a start→accept
// path, so paths from any state to the accept spell exactly the suffixes)
// and B's prefix automaton (B's NFA with every state accepting — every
// state is co-accessible, so paths from the start spell exactly the
// prefixes). Any product state reachable by ≥1 byte whose A-side accepts
// witnesses an overlap.
func SuffixPrefixOverlap(a, b *regexparse.Node) (bool, error) {
	na, err := nfa.BuildSingle(a)
	if err != nil {
		return false, err
	}
	nb, err := nfa.BuildSingle(b)
	if err != nil {
		return false, err
	}

	closA, closB := na.Closures(), nb.Closures()
	acceptingA := acceptClosed(na, closA)
	startB := closB[nb.Start]

	type pair struct{ a, b nfa.StateID }
	visited := make(map[pair]bool)
	var frontier []pair

	push := func(p pair, depth int) bool {
		if visited[p] {
			return false
		}
		visited[p] = true
		if depth > 0 && acceptingA[p.a] {
			return true
		}
		frontier = append(frontier, p)
		return false
	}

	// Depth 0: every A state paired with B's start closure. Nothing can
	// accept yet — the empty string is always a common suffix/prefix and
	// is explicitly excluded by the paper's condition.
	for s := range na.States {
		for _, bs := range startB {
			if push(pair{nfa.StateID(s), bs}, 0) {
				return true, nil
			}
		}
	}

	for len(frontier) > 0 {
		cur := frontier
		frontier = nil
		for _, p := range cur {
			for _, ta := range na.States[p.a].Trans {
				for _, tb := range nb.States[p.b].Trans {
					if ta.Class.Intersect(tb.Class).IsEmpty() {
						continue
					}
					for _, qa := range closA[ta.To] {
						for _, qb := range closB[tb.To] {
							if push(pair{qa, qb}, 1) {
								return true, nil
							}
						}
					}
				}
			}
		}
	}
	return false, nil
}

// acceptClosed reports, per state, whether its epsilon closure contains
// an accepting state.
func acceptClosed(n *nfa.NFA, closures [][]nfa.StateID) []bool {
	accepting := make([]bool, n.NumStates())
	for s, closure := range closures {
		for _, q := range closure {
			if len(n.States[q].Matches) > 0 {
				accepting[s] = true
				break
			}
		}
	}
	return accepting
}

// InfixOverlap reports whether some word of L(a) occurs as a factor
// (substring) of a word of L(b). This condition is required in addition to
// SuffixPrefixOverlap: the paper's formal statement only forbids
// suffix/prefix sharing, but its rationale — "B begins matching before A
// finishes matching" — also covers A-matches lying entirely inside B's
// span. Without this check, decomposing .*b.*abc wrongly confirms on
// input "abc" (the filter sees A="b" end at offset 1, inside B's match),
// and a trailing fragment that kept an internal gap (e.g. "xyz.*xyz"
// after a refused inner split) could satisfy its guard with content that
// precedes the guard segment. The check runs a BFS over the product of
// A's NFA (from its true start) and B's factor automaton (every state
// initial and accepting); reaching an accepting A-state after ≥1 byte
// witnesses the containment.
func InfixOverlap(a, b *regexparse.Node) (bool, error) {
	na, err := nfa.BuildSingle(a)
	if err != nil {
		return false, err
	}
	nb, err := nfa.BuildSingle(b)
	if err != nil {
		return false, err
	}

	closA, closB := na.Closures(), nb.Closures()
	acceptingA := acceptClosed(na, closA)
	startA := closA[na.Start]

	type pair struct{ a, b nfa.StateID }
	visited := make(map[pair]bool)
	var frontier []pair

	push := func(p pair, depth int) bool {
		if visited[p] {
			return false
		}
		visited[p] = true
		if depth > 0 && acceptingA[p.a] {
			return true
		}
		frontier = append(frontier, p)
		return false
	}

	for _, as := range startA {
		for bs := range nb.States {
			if push(pair{as, nfa.StateID(bs)}, 0) {
				return true, nil
			}
		}
	}

	for len(frontier) > 0 {
		cur := frontier
		frontier = nil
		for _, p := range cur {
			for _, ta := range na.States[p.a].Trans {
				for _, tb := range nb.States[p.b].Trans {
					if ta.Class.Intersect(tb.Class).IsEmpty() {
						continue
					}
					for _, qa := range closA[ta.To] {
						for _, qb := range closB[tb.To] {
							if push(pair{qa, qb}, 1) {
								return true, nil
							}
						}
					}
				}
			}
		}
	}
	return false, nil
}

// classAppearsIn reports whether any byte of x can occur anywhere in a
// word of L(b): it intersects x with every consuming transition of B's
// NFA. This implements the §IV-B condition "the characters in X cannot
// appear in B" — if one did, the gap fragment .*[X] would clear the guard
// bit while B itself is being matched, suppressing every match.
func classAppearsIn(x regexparse.Class, b *regexparse.Node) (bool, error) {
	nb, err := nfa.BuildSingle(b)
	if err != nil {
		return false, err
	}
	for i := range nb.States {
		for _, t := range nb.States[i].Trans {
			if !t.Class.Intersect(x).IsEmpty() {
				return true, nil
			}
		}
	}
	return false, nil
}

// classInFinalPosition reports whether a word of L(a) can end with a byte
// of x: it looks for a transition into an accept-closure state whose class
// meets x. This implements the §IV-B condition that X may appear only in
// non-final positions of A — a final X byte would require the filter to
// set and clear the same bit simultaneously, which the action model cannot
// express, so such decompositions are refused.
func classInFinalPosition(x regexparse.Class, a *regexparse.Node) (bool, error) {
	na, err := nfa.BuildSingle(a)
	if err != nil {
		return false, err
	}
	acceptish := acceptClosed(na, na.Closures())
	for i := range na.States {
		for _, t := range na.States[i].Trans {
			if acceptish[t.To] && !t.Class.Intersect(x).IsEmpty() {
				return true, nil
			}
		}
	}
	return false, nil
}
