package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"matchfilter/internal/dfa"
)

// half is the length of a block's half: dfa.WalkBlock walks a whole block
// as two chains, the second from a guessed state.
const half = dfa.BlockLen / 2

// TestFeedStripBoundaries holds Feed's record-then-drain loop to the AST
// oracle where a block can go wrong: an accept visit on either side of a
// mask word's edge, of the edge between a block's halves and of the edge
// between blocks, in the window the second half's state is guessed from,
// and on every byte of three consecutive blocks (full accept words) — for
// a rule the filter passes through (/a/), one it gates on a memory bit set
// blocks earlier (ab.*xa) and one a line end in between must clear
// (ab[^\n]*xa) — and on two automata that remember more than the guess
// window, over text that keeps them live so that most guesses miss: one
// that counts a's (it never forgets) and one that tracks the distance to
// the last x. Every scan mode runs, the block-edge chunkings of scanModes
// among them.
func TestFeedStripBoundaries(t *testing.T) {
	const B = dfa.BlockLen
	quiet := func(n int) []byte { return bytes.Repeat([]byte("x"), n) }
	at := func(n int, hits ...int) []byte {
		b := quiet(n)
		for _, h := range hits {
			b[h] = 'a'
		}
		return b
	}
	head := func(b []byte) []byte { return append([]byte("ab"), b...) }
	inputs := [][]byte{
		at(3*B, 63, 64, B+63, B+64),
		at(3*B, half-1, half, B-1, B),
		at(3*B, half-17, half-16, half-9, half-8, half-1), // edges of the guess window
		at(2*B+7, 2*B+6),
		head(at(3*B, half-3, half-2, B-3, B-2)), // the same edges, two bytes on, behind a set bit
		head(append(at(half, half-3), append([]byte("\n"), at(2*B, half-2, half-1)...)...)),
		append(append(quiet(5), bytes.Repeat([]byte("a"), 3*B)...), quiet(5)...),
		bytes.Repeat([]byte("a"), 3*B),
		head(bytes.Repeat([]byte("xa"), B)),
	}
	if matched := assertOracle(t, []string{"a", "ab.*xa", `ab[^\n]*xa`}, inputs); matched != len(inputs) {
		t.Fatalf("%d of %d inputs match; every one holds an a", matched, len(inputs))
	}

	rng := rand.New(rand.NewSource(7))
	parity := make([]byte, 5*B+3) // an a to open each block, a's salted after the guess window
	distance := make([]byte, 0, 5*B+48)
	for i := range parity {
		switch {
		case i%B == 0 || i%B >= half-16 && rng.Intn(8) == 0:
			parity[i] = 'a'
		default:
			parity[i] = "bc"[rng.Intn(2)]
		}
	}
	for len(distance) < 5*B {
		distance = append(distance, 'x')
		for range 37 + rng.Intn(4) {
			distance = append(distance, byte('a'+rng.Intn(23)))
		}
		if rng.Intn(2) == 0 {
			distance = append(distance, 'y')
		}
	}
	never := [][]byte{parity, distance, append(bytes.Clone(parity[:B+half]), distance[:2*B]...)}
	if matched := assertOracle(t, []string{"^(?:[bc]*a[bc]*a)*[bc]*a", "x[a-w]{40}y"}, never); matched != len(never) {
		t.Fatalf("%d of %d never-synchronizing inputs match", matched, len(never))
	}
}

// TestFeedPanicMidStrip: a callback that panics on a confirmed match of a
// block has been handed the ones before it and is handed none after, and
// the runner's DFA state and position are where the call found them — the
// contract FlowBatcher's lane-death handling is built on. The panic comes
// on the fifth match, and on the first match of a block's second half —
// after a guess that held, and after one that missed (the a-counting rule:
// the second half is walked again) — which must find every match of the
// first half delivered.
func TestFeedPanicMidStrip(t *testing.T) {
	parity := append([]byte("a"), bytes.Repeat([]byte("bab"), dfa.BlockLen)...)
	for _, c := range []struct {
		name, rule    string
		prefix, input []byte
		secondHalf    bool
	}{
		{"fifth match", "a", []byte("xxa"), bytes.Repeat([]byte("xa"), dfa.BlockLen), false},
		{"second half", "a", []byte("xxa"), bytes.Repeat([]byte("xa"), dfa.BlockLen), true},
		{"second half of a missed guess", "^(?:[bc]*a[bc]*a)*[bc]*a", nil, parity, true},
	} {
		r := compileTest(t, dfa.LayoutClassed, c.rule).NewRunner()
		r.Feed(c.prefix, func(int32, int64) {})
		state, _, _, _ := r.Context()
		pos := r.Pos()
		// The oracle's matches from pos on: the ones to deliver, then the
		// one whose callback panics.
		var want []int64
		panicAt := int64(-1)
		for _, ev := range oracleEvents(oracleFor(mustRules(t, c.rule)), append(bytes.Clone(c.prefix), c.input...)) {
			switch {
			case ev.pos < pos:
			case c.secondHalf && ev.pos < pos+half || !c.secondHalf && len(want) < 4:
				want = append(want, ev.pos)
			case panicAt < 0:
				panicAt = ev.pos
			}
		}
		if len(want) == 0 || panicAt < 0 {
			t.Fatalf("%s: matches %v before the panic, the panic at %d", c.name, want, panicAt)
		}
		var seen []int64
		raised := int64(-1)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: the callback's panic did not surface from Feed", c.name)
				}
			}()
			r.Feed(c.input, func(_ int32, at int64) {
				if len(seen) == len(want) {
					raised = at
					panic("hostile callback")
				}
				seen = append(seen, at)
			})
		}()
		if fmt.Sprint(seen) != fmt.Sprint(want) || raised != panicAt {
			t.Errorf("%s: matches delivered before the panic: %v, then the panic at %d; want %v, then %d", c.name, seen, raised, want, panicAt)
		}
		if got, _, _, _ := r.Context(); got != state || r.Pos() != pos {
			t.Errorf("%s: after the panic the runner is at state %d pos %d; the call found it at %d, %d", c.name, got, r.Pos(), state, pos)
		}
	}
}
