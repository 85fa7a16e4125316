package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"matchfilter/internal/dfa"
	"matchfilter/internal/trace"
)

// quarter is the length of a block's quarter: dfa.WalkQuarters walks a
// block as four chains, each after the first from a guessed state.
const quarter = dfa.BlockLen / 4

// TestFeedStripBoundaries holds Feed's record-then-drain loop to the AST
// oracle where a block can go wrong: an accept visit on either side of the
// edges between a block's quarters (its accept words) and between blocks,
// in the windows the later quarters' states are guessed from, at the edges
// of a tail's four quarters and in the bytes a tail leaves over, and on
// every byte of three consecutive blocks (full accept words) — for a rule
// the filter passes through (/a/), one it gates on a memory bit set blocks
// earlier (ab.*xa) and one a line end in between must clear (ab[^\n]*xa) —
// and on two automata that remember more than the guess window, over text
// that keeps them live so that most guesses miss: one that counts a's (it
// never forgets) and one that tracks the distance to the last x. Every
// scan mode runs, the block-edge chunkings of scanModes among them.
func TestFeedStripBoundaries(t *testing.T) {
	const B, q = dfa.BlockLen, quarter
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
		at(3*B, q-1, q, 2*q-1, 2*q, 3*q-1, 3*q, B+q-1, B+q),
		at(3*B, B-1, B, 2*B-1, 2*B),
		at(3*B, q-17, q-16, q-9, q-8, q-5, q-4, q-1, 2*q-5, 2*q-4, 3*q-9, 3*q-8, 3*q-1), // edges of guess windows of 4, 8 and 16 bytes
		at(2*B+7, 2*B+6),
		at(B+103, B, B+24, B+25, B+74, B+75, B+99, B+100, B+102), // a 100-byte tail's quarters and the 3 bytes it leaves
		head(at(3*B, q-3, q-2, 3*q-3, 3*q-2, B-3, B-2)),          // the same edges, two bytes on, behind a set bit
		head(append(at(q, q-3), append([]byte("\n"), at(2*B, 2*q-2, 2*q-1)...)...)),
		append(append(quiet(5), bytes.Repeat([]byte("a"), 3*B)...), quiet(5)...),
		bytes.Repeat([]byte("a"), 3*B),
		head(bytes.Repeat([]byte("xa"), B)),
	}
	if matched := assertOracle(t, []string{"a", "ab.*xa", `ab[^\n]*xa`}, inputs); matched != len(inputs) {
		t.Fatalf("%d of %d inputs match; every one holds an a", matched, len(inputs))
	}

	rng := rand.New(rand.NewSource(7))
	// An a to open each block and pairs of a's in the first half of each
	// quarter, clear of any guess window of up to 16 bytes: the a's before
	// every guess window of a block are odd in number, so every guess
	// misses.
	parity := make([]byte, 5*B+3)
	distance := make([]byte, 0, 5*B+48)
	for i := range parity {
		parity[i] = "bc"[rng.Intn(2)]
	}
	for i := 0; i+1 < len(parity); i++ {
		switch at := i % B; {
		case at == 0:
			parity[i] = 'a'
		case at%q >= q/4 && at%q < q/2 && rng.Intn(8) == 0:
			parity[i], parity[i+1] = 'a', 'a'
			i++
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
	never := [][]byte{parity, distance, append(bytes.Clone(parity[:B+2*q]), distance[:2*B]...)}
	if matched := assertOracle(t, []string{"^(?:[bc]*a[bc]*a)*[bc]*a", "x[a-w]{40}y"}, never); matched != len(never) {
		t.Fatalf("%d of %d never-synchronizing inputs match", matched, len(never))
	}
}

// TestFeedPanicMidStrip: a callback that panics on a confirmed match of a
// block has been handed the ones before it and is handed none after, and
// the runner's DFA state and position are where the call found them — the
// contract FlowBatcher's lane-death handling is built on. The panic comes
// on the fifth match, and on the first match of a block's last quarter —
// after guesses that held, and after ones that missed (the a-counting
// rule: the quarters are walked again) — which must find every match of
// the first three quarters delivered.
func TestFeedPanicMidStrip(t *testing.T) {
	parity := append([]byte("a"), bytes.Repeat([]byte("bab"), dfa.BlockLen)...)
	for _, c := range []struct {
		name, rule    string
		prefix, input []byte
		lastQuarter   bool
	}{
		{"fifth match", "a", []byte("xxa"), bytes.Repeat([]byte("xa"), dfa.BlockLen), false},
		{"last quarter", "a", []byte("xxa"), bytes.Repeat([]byte("xa"), dfa.BlockLen), true},
		{"last quarter of missed guesses", "^(?:[bc]*a[bc]*a)*[bc]*a", nil, parity, true},
	} {
		r := compileTest(t, c.rule).NewRunner()
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
			case c.lastQuarter && ev.pos < pos+3*quarter || !c.lastQuarter && len(want) < 4:
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

// BenchmarkFeedChunked times Feed alone on one flow cut into calls of 96
// bytes (small_packets' segments, the call a lone lane makes), of a
// full-size Ethernet payload and of the whole text, over the tables the
// workloads walk: C8 and S24 ∪ CTR24 with an accept visit every tenth
// byte, B217p over text that never matches and C10 at small_packets' word
// density. The 96-byte rows are where the block record's size shows: a
// call shorter than a block still sets one up.
func BenchmarkFeedChunked(b *testing.B) {
	const per = 256 << 10
	for _, bc := range []struct {
		name     string
		sets     []string
		wordProb float64
	}{
		{"C8", []string{"C8"}, 0.008},
		{"S24+CTR24", []string{"S24", "CTR24"}, 0.008},
		{"B217p", []string{"B217p"}, 0},
		{"C10", []string{"C10"}, 0.002},
	} {
		m, words := compileSets(b, Options{}, bc.sets...)
		if bc.wordProb == 0 {
			words = nil // no word, and no draw for one: plain text
		}
		data := trace.TextLike(per, 131, words, bc.wordProb)
		r := m.NewRunner()
		cb := func(int32, int64) {}
		for _, seg := range []int{96, benchSeg, per} {
			name := fmt.Sprint(seg)
			if seg == per {
				name = "whole"
			}
			b.Run(bc.name+"/"+name, func(b *testing.B) {
				b.SetBytes(per)
				for i := 0; i < b.N; i++ {
					r.Reset()
					for lo := 0; lo < per; lo += seg {
						r.Feed(data[lo:min(lo+seg, per)], cb)
					}
				}
			})
		}
	}
}
