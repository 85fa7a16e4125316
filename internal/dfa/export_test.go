package dfa

// GuessLen is how many bytes WalkBlock walks to guess where its second
// chain starts; the block tests replay the guess to count misses.
const GuessLen = guessLen
