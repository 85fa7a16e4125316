package dfa

import "matchfilter/internal/nfa"

// GuessLen is how many bytes WalkQuarters walks to guess where each chain
// after the first starts; the block tests replay the guesses to count
// misses. MinQuarter is the shortest quarter it splits a tail into.
const GuessLen, MinQuarter = guessLen, minQuarter

// internFresh interns set as the own states of part p, in a generation of
// its own whose marks it sets first: the path the start residue takes,
// with part 0.
func (c *constructor) internFresh(p uint16, set []nfa.StateID) (uint32, error) {
	c.gen++
	for _, q := range set {
		c.mark[q] = c.gen
	}
	return c.intern(p, set)
}
