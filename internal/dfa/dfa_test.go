package dfa

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"matchfilter/internal/nfa"
	"matchfilter/internal/regexparse"
)

func buildNFA(t testing.TB, sources ...string) *nfa.NFA {
	t.Helper()
	rules := make([]nfa.Rule, len(sources))
	for i, src := range sources {
		p, err := regexparse.ParsePCRE(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		rules[i] = nfa.Rule{Pattern: p, MatchID: i + 1}
	}
	n, err := nfa.Build(rules)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func buildDFA(t *testing.T, opts Options, sources ...string) *Engine {
	t.Helper()
	d, err := FromNFA(buildNFA(t, sources...), opts)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(d)
}

func TestBasicMatch(t *testing.T) {
	e := buildDFA(t, Options{}, "abc")
	got := e.Run([]byte("xxabcxabc"))
	want := []MatchEvent{{1, 4}, {1, 8}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestMultiMatchDecisionSet(t *testing.T) {
	// Two rules accepting at the same position must both be reported
	// from one state's decision set.
	e := buildDFA(t, Options{}, "abc", "bc")
	got := e.Run([]byte("abc"))
	if len(got) != 2 {
		t.Fatalf("want 2 events, got %v", got)
	}
	ids := map[int32]bool{got[0].ID: true, got[1].ID: true}
	if !ids[1] || !ids[2] {
		t.Fatalf("want ids {1,2}, got %v", got)
	}
	if got[0].Pos != 2 || got[1].Pos != 2 {
		t.Fatalf("both matches end at 2: %v", got)
	}
}

func TestAnchored(t *testing.T) {
	e := buildDFA(t, Options{}, "^abc")
	if got := e.Run([]byte("xabc")); len(got) != 0 {
		t.Fatalf("anchored matched mid-flow: %v", got)
	}
	if got := e.Run([]byte("abc")); len(got) != 1 {
		t.Fatalf("anchored should match at start: %v", got)
	}
}

// equivEvents compares NFA and DFA match streams, which must be identical
// by construction.
func equivEvents(t *testing.T, sources []string, inputs []string) {
	t.Helper()
	n := buildNFA(t, sources...)
	ne := nfa.NewEngine(n)
	d, err := FromNFA(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, min := range []bool{false, true} {
		de := NewEngine(d)
		if min {
			dm, err := FromNFA(n, Options{Minimize: true})
			if err != nil {
				t.Fatal(err)
			}
			de = NewEngine(dm)
		}
		for _, input := range inputs {
			nGot := ne.Run([]byte(input))
			dGot := de.Run([]byte(input))
			if len(nGot) != len(dGot) {
				t.Fatalf("min=%v input %q: NFA %v vs DFA %v", min, input, nGot, dGot)
			}
			for i := range nGot {
				if int32(nGot[i].ID) != dGot[i].ID || nGot[i].Pos != dGot[i].Pos {
					t.Fatalf("min=%v input %q event %d: NFA %v vs DFA %v", min, input, i, nGot, dGot)
				}
			}
		}
	}
}

func TestNFAEquivalenceFixed(t *testing.T) {
	equivEvents(t,
		[]string{"vi.*emacs", "bsd.*gnu", "abc.*mm?o.*xyz"},
		[]string{
			"vi.emacs.bsd.gnu.abc.mo.xyz",
			"emacs vi gnu bsd",
			"vi vi emacs emacs",
			"abcmoxyz", "abcmmoxyz", "abcmmmoxyz",
			strings.Repeat("vi emacs ", 20),
		})
}

func TestNFAEquivalenceRandom(t *testing.T) {
	sources := []string{"ab+c", "x[yz]{2}w", "foo|bar", "^hdr[0-9]+", "a.c"}
	rng := rand.New(rand.NewSource(7))
	alphabet := "abcxyzw fo0123hdr"
	inputs := make([]string, 0, 40)
	for i := 0; i < 40; i++ {
		var sb strings.Builder
		for j := 0; j < 5+rng.Intn(80); j++ {
			sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		inputs = append(inputs, sb.String())
	}
	equivEvents(t, sources, inputs)
}

func TestStateExplosionAndCap(t *testing.T) {
	// k dot-star patterns over disjoint strings force ~2^k subset growth.
	var sources []string
	for i := 0; i < 12; i++ {
		sources = append(sources, fmt.Sprintf("s%02da.*e%02db", i, i))
	}
	n := buildNFA(t, sources...)
	_, err := FromNFA(n, Options{MaxStates: 2000})
	if !errors.Is(err, ErrTooManyStates) {
		t.Fatalf("want ErrTooManyStates, got %v", err)
	}
}

func TestDotStarMultiplicativeGrowth(t *testing.T) {
	// Adding a dot-star rule multiplies DFA size; adding its split parts
	// only adds states. This is the heart of Table I.
	base := []string{"alpha.*beta"}
	with := append([]string{}, base...)
	with = append(with, "gamma.*delta")
	split := append([]string{}, base...)
	split = append(split, "gamma", "delta")

	sizeOf := func(srcs []string) int {
		d, err := FromNFA(buildNFA(t, srcs...), Options{Minimize: true})
		if err != nil {
			t.Fatal(err)
		}
		return d.NumStates()
	}
	nBase, nWith, nSplit := sizeOf(base), sizeOf(with), sizeOf(split)
	if nWith < 2*nBase-4 {
		t.Errorf("dot-star rule should ~double states: base=%d with=%d", nBase, nWith)
	}
	if nSplit >= nWith {
		t.Errorf("split rules should be cheaper: split=%d with=%d", nSplit, nWith)
	}
}

func TestTableIStateRatio(t *testing.T) {
	// Table I: R1 (the dot-star forms) needs several times the DFA states
	// of R2 (the split segments). The paper reports 106 vs 23.
	r1 := []string{"vi.*emacs", "bsd.*gnu", "abc.*mm?o.*xyz"}
	r2 := []string{"emacs", "gnu", "xyz", "vi", "bsd", "abc", "mm?o"}
	d1, err := FromNFA(buildNFA(t, r1...), Options{Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := FromNFA(buildNFA(t, r2...), Options{Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if d1.NumStates() <= 2*d2.NumStates() {
		t.Errorf("R1 should need far more states than R2: %d vs %d",
			d1.NumStates(), d2.NumStates())
	}
	t.Logf("Table I reproduction: R1=%d states, R2=%d states (paper: 106 vs 23)",
		d1.NumStates(), d2.NumStates())
}

func TestMinimizeReducesStates(t *testing.T) {
	n := buildNFA(t, "ab|ac|ad", "xy?z")
	raw, err := FromNFA(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	min, err := FromNFA(n, Options{Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if min.NumStates() > raw.NumStates() {
		t.Fatalf("minimize grew the automaton: %d -> %d", raw.NumStates(), min.NumStates())
	}
}

func TestAcceptTailInvariant(t *testing.T) {
	for _, minimize := range []bool{false, true} {
		d, err := FromNFA(buildNFA(t, "abc", "a+b", "q.*r"), Options{Minimize: minimize})
		if err != nil {
			t.Fatal(err)
		}
		for s := uint32(0); s < uint32(d.NumStates()); s++ {
			hasIDs := len(d.Matches(s)) > 0
			if hasIDs != d.Accepting(s) {
				t.Fatalf("min=%v state %d: Accepting=%v but Matches=%v",
					minimize, s, d.Accepting(s), d.Matches(s))
			}
		}
	}
}

func TestRunnerStreaming(t *testing.T) {
	e := buildDFA(t, Options{}, "needle")
	r := e.NewRunner()
	var got []MatchEvent
	collect := func(id int32, pos int64) { got = append(got, MatchEvent{id, pos}) }
	r.Feed([]byte("nee"), collect)
	r.Feed([]byte("dle"), collect)
	if len(got) != 1 || got[0].Pos != 5 {
		t.Fatalf("streaming match: %v", got)
	}
	// Save/restore context, as flow multiplexing does.
	state, pos := r.State(), r.Pos()
	r.Reset()
	r.Feed([]byte("ne"), collect)
	r.SetState(state, pos)
	r.Feed([]byte("needle"), collect)
	if len(got) != 2 {
		t.Fatalf("after restore: %v", got)
	}
}

func TestFeedCountMatchesFeed(t *testing.T) {
	e := buildDFA(t, Options{}, "ab", "b+c")
	input := []byte(strings.Repeat("abbc x", 50))
	var n int64
	e.NewRunner().Feed(input, func(int32, int64) { n++ })
	if c := e.NewRunner().FeedCount(input); c != n {
		t.Fatalf("FeedCount=%d, Feed events=%d", c, n)
	}
}

func TestMemoryImage(t *testing.T) {
	d, err := FromNFA(buildNFA(t, "abcdef"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := d.NumStates()*d.NumClasses()*4 + 256; d.MemoryImageBytes() < want {
		t.Fatalf("image %d smaller than bare table and class map %d", d.MemoryImageBytes(), want)
	}
	if flat := d.NumStates() * 256 * 4; d.MemoryImageBytes() >= flat {
		t.Fatalf("image %d not smaller than the 256-wide table %d (only %d classes used)",
			d.MemoryImageBytes(), flat, d.NumClasses())
	}
}

// TestStrideDivIsExactDivision proves the division-free hand-off rather
// than trusting it: for every stride a table can have (1…256) and a few it
// cannot, Quo agrees with / on the first 2¹⁶ multiples of the stride and on
// the last 2¹⁶ below 2³² — where a product that should wrap and does not,
// or an inverse a Newton step short, would show.
func TestStrideDivIsExactDivision(t *testing.T) {
	strides := []uint32{257, 1000, 4096, 65_537, 2_147_483_647, 4_294_967_291}
	for k := uint32(1); k <= 256; k++ {
		strides = append(strides, k)
	}
	for _, k := range strides {
		div := NewStrideDiv(int(k))
		top := ^uint32(0) / k // the largest quotient of a multiple below 2³²
		for i := uint32(0); i < 1<<16; i++ {
			for _, q := range [2]uint32{min(i, top), top - min(i, top)} {
				if got := div.Quo(q * k); got != q {
					t.Fatalf("stride %d: Quo(%d·%d) = %d", k, q, k, got)
				}
			}
		}
	}
}
