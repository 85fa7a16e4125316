package nfa

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"matchfilter/internal/patterns"
	"matchfilter/internal/regexparse"
)

// compile builds an engine for the given pattern sources, assigning match
// ids 1..n in order, mirroring the paper's implicit {{1}}, {{2}} labels.
func compile(t *testing.T, sources ...string) *Engine {
	t.Helper()
	rules := make([]Rule, len(sources))
	for i, src := range sources {
		p, err := regexparse.ParsePCRE(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		rules[i] = Rule{Pattern: p, MatchID: i + 1}
	}
	n, err := Build(rules)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(n)
}

func eventsOf(e *Engine, input string) []MatchEvent {
	return e.Run([]byte(input))
}

func TestLiteralMatch(t *testing.T) {
	e := compile(t, "abc")
	got := eventsOf(e, "xxabcxxabc")
	want := []MatchEvent{{1, 4}, {1, 9}}
	assertEvents(t, got, want)
}

func TestNoMatch(t *testing.T) {
	e := compile(t, "abc")
	if got := eventsOf(e, "abxacbxbca"); len(got) != 0 {
		t.Fatalf("want no matches, got %v", got)
	}
}

func TestAnchoredMatch(t *testing.T) {
	e := compile(t, "^abc")
	assertEvents(t, eventsOf(e, "abcxxabc"), []MatchEvent{{1, 2}})
	if got := eventsOf(e, "xabc"); len(got) != 0 {
		t.Fatalf("anchored pattern matched mid-flow: %v", got)
	}
}

func TestDotStarMatch(t *testing.T) {
	e := compile(t, "vi.*emacs")
	assertEvents(t, eventsOf(e, "vi...emacs"), []MatchEvent{{1, 9}})
	assertEvents(t, eventsOf(e, "viemacs"), []MatchEvent{{1, 6}})
	if got := eventsOf(e, "emacs...vi"); len(got) != 0 {
		t.Fatalf("order should matter: %v", got)
	}
	// Dot-star spans newlines (dotall).
	assertEvents(t, eventsOf(e, "vi\n\nemacs"), []MatchEvent{{1, 8}})
}

func TestAlternation(t *testing.T) {
	e := compile(t, "cat|dog")
	assertEvents(t, eventsOf(e, "a cat and a dog"), []MatchEvent{{1, 4}, {1, 14}})
}

func TestMultiPattern(t *testing.T) {
	e := compile(t, "abc", "bcd", "cde")
	got := eventsOf(e, "abcde")
	want := []MatchEvent{{1, 2}, {2, 3}, {3, 4}}
	assertEvents(t, got, want)
}

func TestQuantifiers(t *testing.T) {
	e := compile(t, "ab+c")
	assertEvents(t, eventsOf(e, "abc abbc ac"), []MatchEvent{{1, 2}, {1, 7}})

	e = compile(t, "ab?c")
	assertEvents(t, eventsOf(e, "abc ac abbc"), []MatchEvent{{1, 2}, {1, 5}})

	e = compile(t, "ab*c")
	assertEvents(t, eventsOf(e, "ac abc abbbc"), []MatchEvent{{1, 1}, {1, 5}, {1, 11}})
}

func TestBoundedRepeat(t *testing.T) {
	e := compile(t, "a{3}")
	assertEvents(t, eventsOf(e, "aaaa"), []MatchEvent{{1, 2}, {1, 3}})

	e = compile(t, "ba{2,3}b")
	assertEvents(t, eventsOf(e, "bab baab baaab baaaab"),
		[]MatchEvent{{1, 7}, {1, 13}})

	e = compile(t, "ba{2,}b")
	assertEvents(t, eventsOf(e, "bab baab baaaaab"),
		[]MatchEvent{{1, 7}, {1, 15}})
}

func TestCaseInsensitive(t *testing.T) {
	e := compile(t, "/abc/i")
	got := eventsOf(e, "ABC abc AbC")
	want := []MatchEvent{{1, 2}, {1, 6}, {1, 10}}
	assertEvents(t, got, want)
}

func TestNegatedClassStarPattern(t *testing.T) {
	// The almost-dot-star construct, undecomposed.
	e := compile(t, "abc[^\\n]*xyz")
	assertEvents(t, eventsOf(e, "abc:xyz"), []MatchEvent{{1, 6}})
	if got := eventsOf(e, "abc\nxyz"); len(got) != 0 {
		t.Fatalf("newline in gap must prevent match: %v", got)
	}
}

func TestStreamingAcrossFeedBoundaries(t *testing.T) {
	e := compile(t, "needle")
	r := e.NewRunner()
	var got []MatchEvent
	collect := func(id int, pos int64) { got = append(got, MatchEvent{id, pos}) }
	// Split the match across three Feed calls.
	r.Feed([]byte("hay nee"), collect)
	r.Feed([]byte("d"), collect)
	r.Feed([]byte("le hay"), collect)
	assertEvents(t, got, []MatchEvent{{1, 9}})
	if r.Pos() != 14 {
		t.Errorf("Pos() = %d, want 14", r.Pos())
	}
	// Reset starts a fresh flow.
	r.Reset()
	got = nil
	r.Feed([]byte("dle"), collect)
	if len(got) != 0 {
		t.Fatalf("stale state after Reset: %v", got)
	}
}

func TestDuplicateIDsDeduplicated(t *testing.T) {
	// Two alternates of one rule matching at the same position must
	// report the id once.
	e := compile(t, "ab|[ab]b")
	got := eventsOf(e, "ab")
	assertEvents(t, got, []MatchEvent{{1, 1}})
}

func TestNumStatesAndImage(t *testing.T) {
	e := compile(t, "abc", "defg")
	n := e.NFA()
	if n.NumStates() == 0 || n.NumTransitions() == 0 {
		t.Fatal("empty automaton")
	}
	if n.MemoryImageBytes() <= 0 {
		t.Fatal("non-positive memory image")
	}
	// More patterns, more states.
	bigger := compile(t, "abc", "defg", "hijkl").NFA()
	if bigger.NumStates() <= n.NumStates() {
		t.Errorf("adding a rule should add states: %d vs %d", bigger.NumStates(), n.NumStates())
	}
}

func TestActiveStatesGrowth(t *testing.T) {
	// Short patterns keep many states active, the paper's B217p effect.
	e := compile(t, "a", "b", "c", ".*")
	r := e.NewRunner()
	r.Feed([]byte("abc"), nil)
	if r.ActiveStates() == 0 {
		t.Fatal("no active states after input")
	}
}

func TestBuildSingle(t *testing.T) {
	p, err := regexparse.Parse("ab|cd")
	if err != nil {
		t.Fatal(err)
	}
	n, err := BuildSingle(p.Root)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(n)
	// BuildSingle is exact-match (no implicit .*): "xab" must not match
	// because the automaton is not started mid-flow... but simulation
	// starts once at position 0, so only prefixes of the input match.
	assertEvents(t, e.Run([]byte("ab")), []MatchEvent{{0, 1}})
	if got := e.Run([]byte("xab")); len(got) != 0 {
		t.Fatalf("anchored single build matched mid-flow: %v", got)
	}
}

func TestRepeatExpansionLimit(t *testing.T) {
	p, err := regexparse.Parse("a{200}")
	if err != nil {
		t.Fatal(err)
	}
	rep := p.Root
	// Nest repeats until the expansion (200^3 copies) must exceed the
	// builder's total state budget.
	nested := &regexparse.Node{Op: regexparse.OpRepeat, Min: 200, Max: 200, Sub: rep}
	nested = &regexparse.Node{Op: regexparse.OpRepeat, Min: 200, Max: 200, Sub: nested}
	if _, err := BuildSingle(nested); err == nil {
		t.Error("nested 200^3 repeat should exceed the state budget")
	}
}

// TestRepeatExpansionBoundary pins the expansion cap at exactly
// MaxExpandedRepeat parts for both repeat forms: a bounded {n,m} costs m
// copies (no trailing star), an unbounded {n,} costs n copies plus one
// star. The nodes are built directly because the parser's own repeat cap
// sits below MaxExpandedRepeat.
func TestRepeatExpansionBoundary(t *testing.T) {
	sub := regexparse.NewClassNode(regexparse.SingleClass('a'))
	cases := []struct {
		min, max int
		ok       bool
	}{
		{MaxExpandedRepeat, MaxExpandedRepeat, true},
		{0, MaxExpandedRepeat, true},
		{MaxExpandedRepeat, MaxExpandedRepeat + 1, false},
		{0, MaxExpandedRepeat + 1, false},
		{MaxExpandedRepeat - 1, regexparse.InfiniteRepeat, true},
		{MaxExpandedRepeat, regexparse.InfiniteRepeat, false},
	}
	for _, tc := range cases {
		n := &regexparse.Node{Op: regexparse.OpRepeat, Min: tc.min, Max: tc.max, Sub: sub}
		_, err := BuildSingle(n)
		if tc.ok && err != nil {
			t.Errorf("{%d,%d}: unexpected error: %v", tc.min, tc.max, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("{%d,%d}: expected expansion-limit error", tc.min, tc.max)
		}
	}

	// The bounded form at the cap must not just build but match.
	n := &regexparse.Node{Op: regexparse.OpRepeat, Min: MaxExpandedRepeat, Max: MaxExpandedRepeat, Sub: sub}
	a, err := BuildSingle(n)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(a)
	input := strings.Repeat("a", MaxExpandedRepeat)
	got := e.Run([]byte(input))
	want := []MatchEvent{{0, int64(MaxExpandedRepeat - 1)}}
	assertEvents(t, got, want)
}

// TestAgainstStdlibRegexp cross-checks match positions against Go's
// regexp package on random inputs for a set of patterns expressible in
// both engines.
func TestAgainstStdlibRegexp(t *testing.T) {
	patterns := []string{
		"abc",
		"a[bc]d",
		"x(yz|zy)w",
		"ab+c?",
		"foo[0-9]{2}bar",
		"(cat|dog|bird)s",
	}
	rng := rand.New(rand.NewSource(42))
	alphabet := "abcdefgxyzw0123456789 \n"
	for _, src := range patterns {
		e := compile(t, src)
		std := regexp.MustCompile(src)
		for trial := 0; trial < 50; trial++ {
			n := 1 + rng.Intn(60)
			var sb strings.Builder
			for i := 0; i < n; i++ {
				sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
			}
			// Occasionally embed a known matching substring.
			input := sb.String()
			if trial%5 == 0 {
				input += "abcd foo42bar cats"
			}
			gotEnds := map[int64]bool{}
			for _, ev := range e.Run([]byte(input)) {
				gotEnds[ev.Pos] = true
			}
			wantEnds := stdlibMatchEnds(std, input)
			for pos := range wantEnds {
				if !gotEnds[pos] {
					t.Fatalf("pattern %q input %q: stdlib match ending at %d missed", src, input, pos)
				}
			}
			for pos := range gotEnds {
				if !wantEnds[pos] {
					t.Fatalf("pattern %q input %q: spurious match ending at %d", src, input, pos)
				}
			}
		}
	}
}

// stdlibMatchEnds returns the set of 0-based end positions (inclusive) at
// which any match of re ends, computed by brute force over substrings so
// that overlapping and nested matches are all visible.
func stdlibMatchEnds(re *regexp.Regexp, input string) map[int64]bool {
	anch := regexp.MustCompile("^(?s)(?:" + re.String() + ")$")
	ends := map[int64]bool{}
	for end := 1; end <= len(input); end++ {
		for start := 0; start < end; start++ {
			if anch.MatchString(input[start:end]) {
				ends[int64(end-1)] = true
				break
			}
		}
	}
	return ends
}

func assertEvents(t *testing.T, got, want []MatchEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %v, want %v", i, got, want)
		}
	}
}

// TestBuildSizesStatesOnce checks that compiledSize counts exactly the
// states compile creates, so Build and BuildSingle fill the state slice
// they allocate and never grow it: on every shipped pattern set and on
// shapes reaching each operator, including {0,0}, {n,} and an empty
// alternative.
func TestBuildSizesStatesOnce(t *testing.T) {
	sets := map[string][]string{"shapes": {
		"a{0,0}b", "(ab|c|)d", "x(a|b)+y", "[a-c]{2,5}z", "(ab){3,}c?", "^q.*r[^s]*t", "(a?b*)+c{0,2}",
	}}
	for _, name := range append(patterns.Names(), patterns.CounterNames()...) {
		src, err := patterns.Sources(name)
		if err != nil {
			t.Fatal(err)
		}
		sets[name] = src
	}
	for name, sources := range sets {
		rules := make([]Rule, len(sources))
		for i, src := range sources {
			p, err := regexparse.ParsePCRE(src)
			if err != nil {
				t.Fatalf("%s: parse %q: %v", name, src, err)
			}
			rules[i] = Rule{Pattern: p, MatchID: i + 1}
			single, err := BuildSingle(p.Root)
			if err != nil {
				t.Fatal(err)
			}
			if len(single.States) != cap(single.States) {
				t.Errorf("%s: BuildSingle(%q): %d states in a slice of %d", name, src, len(single.States), cap(single.States))
			}
		}
		n, err := Build(rules)
		if err != nil {
			t.Fatal(err)
		}
		if len(n.States) != cap(n.States) {
			t.Errorf("%s: Build made %d states in a slice of %d", name, len(n.States), cap(n.States))
		}
	}
}
