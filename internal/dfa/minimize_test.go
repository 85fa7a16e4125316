package dfa

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestMinimizeEquivalenceRandom property-checks minimization: for random
// rule sets, the minimized DFA must (a) be no larger, (b) produce the
// identical match stream on random inputs, and (c) be a fixed point —
// minimizing twice changes nothing.
func TestMinimizeEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	words := []string{"ab", "abc", "bc", "ca", "aab", "cc"}

	for trial := 0; trial < 40; trial++ {
		var sources []string
		for ri := 0; ri < 1+rng.Intn(4); ri++ {
			var sb strings.Builder
			if rng.Intn(4) == 0 {
				sb.WriteByte('^')
			}
			sb.WriteString(words[rng.Intn(len(words))])
			switch rng.Intn(4) {
			case 0:
				sb.WriteString("|" + words[rng.Intn(len(words))])
			case 1:
				sb.WriteString("?" + words[rng.Intn(len(words))])
			case 2:
				sb.WriteString(".*" + words[rng.Intn(len(words))])
			}
			sources = append(sources, sb.String())
		}

		n := buildNFA(t, sources...)
		raw, err := FromNFA(n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		min, err := FromNFA(n, Options{Minimize: true})
		if err != nil {
			t.Fatal(err)
		}
		if min.NumStates() > raw.NumStates() {
			t.Fatalf("rules %v: minimize grew %d -> %d", sources, raw.NumStates(), min.NumStates())
		}
		again := (&rows{
			numStates: min.numStates, start: min.start, next: plainTable(min), k: min.numClasses,
			classOf: min.classOf, acceptStart: min.acceptStart, accepts: min.accepts,
		}).minimize()
		if again.numStates != min.NumStates() {
			t.Fatalf("rules %v: minimization not a fixed point: %d -> %d",
				sources, min.NumStates(), again.numStates)
		}

		rawE, minE := NewEngine(raw), NewEngine(min)
		for ii := 0; ii < 5; ii++ {
			input := make([]byte, 10+rng.Intn(80))
			for i := range input {
				input[i] = "abc "[rng.Intn(4)]
			}
			if fmt.Sprint(rawE.Run(input)) != fmt.Sprint(minE.Run(input)) {
				t.Fatalf("rules %v input %q: raw %v vs min %v",
					sources, input, rawE.Run(input), minE.Run(input))
			}
		}
	}
}

// TestMinimizeKnownReductions checks concrete cases with known minimal
// sizes.
func TestMinimizeKnownReductions(t *testing.T) {
	// a|b|c as three separate alternates has redundant accept states that
	// minimization must merge to one.
	n := buildNFA(t, "a|b|c")
	min, err := FromNFA(n, Options{Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	// Minimal unanchored single-byte-class matcher: start state plus one
	// accepting state.
	if min.NumStates() != 2 {
		t.Errorf("a|b|c should minimize to 2 states, got %d", min.NumStates())
	}
}

// TestMinimizePreservesDistinctMatchIDs ensures states reporting
// different rule ids are never merged even when their languages are
// isomorphic.
func TestMinimizePreservesDistinctMatchIDs(t *testing.T) {
	n := buildNFA(t, "ax", "bx")
	min, err := FromNFA(n, Options{Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(min)
	got := e.Run([]byte("ax bx"))
	if len(got) != 2 || got[0].ID == got[1].ID {
		t.Fatalf("distinct ids must survive minimization: %v", got)
	}
}

// plainTable returns a copy of d's transition table with plain state
// numbers as entries.
func plainTable(d *DFA) []uint32 {
	plain := make([]uint32, len(d.trans))
	for i, to := range d.trans {
		plain[i] = to / uint32(d.numClasses)
	}
	return plain
}
