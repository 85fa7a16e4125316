package core

import (
	"bytes"
	"fmt"
	"testing"

	"matchfilter/internal/dfa"
)

// TestFeedStripBoundaries holds Feed's record-then-drain loop to the AST
// oracle where a strip can go wrong: an accept visit on the last byte of a
// strip, on the first byte of the next, and on every byte of three
// consecutive strips (a full accept mask), for a rule the filter passes
// through (/a/), one it gates on a memory bit set strips earlier (ab.*xa)
// and one a line end in between must clear (ab[^\n]*xa) — in every scan
// mode, the strip-length chunkings of scanModes among them.
func TestFeedStripBoundaries(t *testing.T) {
	const L = dfa.StripLen
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
		at(3*L, L-1),
		at(3*L, L),
		at(3*L, L-1, L, 2*L-1, 2*L),
		at(2*L+7, 2*L+6),
		head(at(3*L, L-3, L-2, 2*L-3, 2*L-2)), // the same edges, two bytes on, behind a set bit
		head(append(at(L, L-3), append([]byte("\n"), at(2*L, L-2, L-1)...)...)),
		append(append(quiet(5), bytes.Repeat([]byte("a"), 3*L)...), quiet(5)...),
		bytes.Repeat([]byte("a"), 3*L),
		head(bytes.Repeat([]byte("xa"), 2*L)),
	}
	if matched := assertOracle(t, []string{"a", "ab.*xa", `ab[^\n]*xa`}, inputs); matched != len(inputs) {
		t.Fatalf("%d of %d inputs match; every one holds an a", matched, len(inputs))
	}
}

// TestFeedPanicMidStrip: a callback that panics on the k-th confirmed
// match of a strip has been handed the k-1 before it and is handed none
// after, and the runner's DFA state and position are where the call found
// them — the contract FlowBatcher's lane-death handling is built on.
func TestFeedPanicMidStrip(t *testing.T) {
	const L, k = dfa.StripLen, 5
	r := compileTest(t, dfa.LayoutClassed, "a").NewRunner()
	r.Feed([]byte("xxa"), func(int32, int64) {})
	state, _, _, _ := r.Context()
	pos := r.Pos()
	var seen []int64
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the callback's panic did not surface from Feed")
			}
		}()
		r.Feed(bytes.Repeat([]byte("xa"), L), func(_ int32, at int64) {
			if len(seen) == k-1 {
				panic("hostile callback")
			}
			seen = append(seen, at)
		})
	}()
	if want := []int64{4, 6, 8, 10}; fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Errorf("matches delivered before the panic: %v, want %v", seen, want)
	}
	if got, _, _, _ := r.Context(); got != state || r.Pos() != pos {
		t.Errorf("after the panic the runner is at state %d pos %d; the call found it at %d, %d", got, r.Pos(), state, pos)
	}
}
