package dfa

// GuessLen is how many bytes WalkQuarters walks to guess where each chain
// after the first starts; the block tests replay the guesses to count
// misses. MinQuarter is the shortest quarter it splits a tail into.
const GuessLen, MinQuarter = guessLen, minQuarter
