package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"matchfilter/internal/dfa"
	"matchfilter/internal/nfa"
	"matchfilter/internal/regexparse"
)

func mustRules(t *testing.T, sources ...string) []Rule {
	t.Helper()
	rules := make([]Rule, len(sources))
	for i, src := range sources {
		p, err := regexparse.ParsePCRE(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		rules[i] = Rule{Pattern: p, ID: int32(i + 1)}
	}
	return rules
}

func compileMFA(t *testing.T, opts Options, sources ...string) *MFA {
	t.Helper()
	m, err := Compile(mustRules(t, sources...), opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// groundTruth builds the undecomposed DFA over the original rules: the
// reference the MFA must agree with on every input.
func groundTruth(t *testing.T, rules []Rule) *dfa.Engine {
	t.Helper()
	nfaRules := make([]nfa.Rule, len(rules))
	for i, r := range rules {
		nfaRules[i] = nfa.Rule{Pattern: r.Pattern, MatchID: int(r.ID)}
	}
	n, err := nfa.Build(nfaRules)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dfa.FromNFA(n, dfa.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return dfa.NewEngine(d)
}

type event struct {
	id  int32
	pos int64
}

func sortEvents(evs []event) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].pos != evs[j].pos {
			return evs[i].pos < evs[j].pos
		}
		return evs[i].id < evs[j].id
	})
}

func mfaEvents(m *MFA, input []byte) []event {
	var out []event
	for _, ev := range m.Run(input) {
		out = append(out, event{ev.RuleID, ev.Pos})
	}
	sortEvents(out)
	return out
}

func dfaEvents(e *dfa.Engine, input []byte) []event {
	var out []event
	for _, ev := range e.Run(input) {
		out = append(out, event{ev.ID, ev.Pos})
	}
	sortEvents(out)
	return out
}

// assertEquivalent checks the MFA match stream equals ground truth.
func assertEquivalent(t *testing.T, sources []string, inputs [][]byte) {
	t.Helper()
	rules := mustRules(t, sources...)
	m, err := Compile(rules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gt := groundTruth(t, rules)
	for _, input := range inputs {
		got := mfaEvents(m, input)
		want := dfaEvents(gt, input)
		if len(got) != len(want) {
			t.Fatalf("rules %v input %q:\nMFA  %v\ntruth %v", sources, input, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("rules %v input %q event %d:\nMFA  %v\ntruth %v", sources, input, i, got, want)
			}
		}
	}
}

func TestSectionICExample(t *testing.T) {
	// Tables I-III: the R1 rules on the running-example input. The MFA
	// must confirm exactly R1's matches: emacs, the second gnu, xyz.
	sources := []string{"vi.*emacs", "bsd.*gnu", "abc.*mm?o.*xyz"}
	input := []byte("vi.emacs.gnu.bsd.gnu.abc.mo.xyz")

	m := compileMFA(t, Options{}, sources...)
	got := mfaEvents(m, input)
	want := []event{{1, 7}, {2, 19}, {3, 30}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// And it agrees with ground truth on this and related inputs.
	assertEquivalent(t, sources, [][]byte{
		input,
		[]byte("emacs.vi.gnu.bsd"),            // wrong order: nothing
		[]byte("vi emacs vi emacs"),           // repeated matches
		[]byte("abc mo xyz"),                  // 3-segment rule
		[]byte("abc mmo xyz abc xyz"),         // optional m, second xyz confirms too
		[]byte(strings.Repeat("bsd gnu ", 8)), // persistent bit
	})
}

func TestTableIVWalkthrough(t *testing.T) {
	// §IV-B Table IV: .*abc[^\n]*xyz on "abc:\n:xyz\nabc:xyz\n". The raw
	// fragment matches are 1a,1b,1,1b,1a,1 and only the final one is
	// confirmed.
	m := compileMFA(t, Options{}, `abc[^\n]*xyz`)
	input := []byte("abc:\n:xyz\nabc:xyz\n")

	// Raw (unfiltered) match ids from the character DFA.
	var raw []event
	r := dfa.NewEngine(m.DFA()).NewRunner()
	r.Feed(input, func(id int32, pos int64) { raw = append(raw, event{id, pos}) })
	// ids: 1 = abc (Set), 2 = xyz (Test to Match), 3 = the shared [\n]
	// gap fragment (Clear), which the splitter emits after all rules.
	wantRaw := []event{{1, 2}, {3, 4}, {2, 8}, {3, 9}, {1, 12}, {2, 16}, {3, 17}}
	if fmt.Sprint(raw) != fmt.Sprint(wantRaw) {
		t.Fatalf("raw matches:\ngot  %v\nwant %v", raw, wantRaw)
	}

	// Filtered: only the third-line xyz.
	got := mfaEvents(m, input)
	if len(got) != 1 || got[0] != (event{1, 16}) {
		t.Fatalf("filtered matches: %v", got)
	}
}

func TestEquivalenceAnchored(t *testing.T) {
	assertEquivalent(t,
		[]string{"^hdr.*abc.*xyz", "^GET[^\\n]*HTTP"},
		[][]byte{
			[]byte("hdr abc xyz"),
			[]byte("xhdr abc xyz"),
			[]byte("hdr xyz abc xyz"),
			[]byte("GET /index.html HTTP/1.1\r\n"),
			[]byte("POST GET HTTP"),
			[]byte("GET /a\nHTTP"),
		})
}

func TestEquivalenceAlmostDotStar(t *testing.T) {
	assertEquivalent(t,
		[]string{`foo[^\n]*bar`, `a:[^;]*;end`},
		[][]byte{
			[]byte("foo bar"),
			[]byte("foo\nbar"),
			[]byte("foo foo\nfoo bar bar"),
			[]byte("a: x;end"),
			[]byte("a: ;x;end"),
			[]byte("a:\n;end;end"),
			[]byte("foo bar foo\nbar foo bar"),
		})
}

func TestEquivalenceMultiRuleShared(t *testing.T) {
	// Rules sharing literals stress decision-set merging.
	assertEquivalent(t,
		[]string{"alpha.*omega", "omega.*alpha", "alpha", "omega"},
		[][]byte{
			[]byte("alpha omega alpha omega"),
			[]byte("omega alpha"),
			[]byte("alphaomega"),
			[]byte(strings.Repeat("alpha", 5)),
		})
}

// TestEquivalenceRandom is the central correctness property: on randomly
// generated safe-and-unsafe rule sets and random inputs, the MFA match
// stream must equal the undecomposed ground-truth DFA stream exactly.
func TestEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	words := []string{"ab", "cde", "fgh", "xyz", "qq", "lmn", "uvw", "rst"}
	gaps := []string{".*", "[^\\n]*", "[^#]*"}

	for trial := 0; trial < 60; trial++ {
		numRules := 1 + rng.Intn(4)
		sources := make([]string, 0, numRules)
		for ri := 0; ri < numRules; ri++ {
			numSegs := 1 + rng.Intn(3)
			var sb strings.Builder
			if rng.Intn(6) == 0 {
				sb.WriteByte('^')
			}
			for si := 0; si < numSegs; si++ {
				if si > 0 {
					sb.WriteString(gaps[rng.Intn(len(gaps))])
				}
				sb.WriteString(words[rng.Intn(len(words))])
			}
			sources = append(sources, sb.String())
		}

		inputs := make([][]byte, 0, 6)
		for ii := 0; ii < 6; ii++ {
			var sb strings.Builder
			for sb.Len() < 10+rng.Intn(120) {
				switch rng.Intn(5) {
				case 0:
					sb.WriteString(words[rng.Intn(len(words))])
				case 1:
					sb.WriteByte('\n')
				case 2:
					sb.WriteByte('#')
				default:
					sb.WriteByte("abcdefghlmnqrstuvwxyz "[rng.Intn(22)])
				}
			}
			inputs = append(inputs, []byte(sb.String()))
		}
		assertEquivalent(t, sources, inputs)
	}
}

func TestStats(t *testing.T) {
	// The §V-C filter-fraction claim is stated against the paper's flat
	// transition table; pin that layout so the ratio check keeps
	// measuring what the paper measured. Layout stats are checked on a
	// default (byte-class) build below.
	m := compileMFA(t, Options{DFA: dfa.Options{Layout: dfa.LayoutFlat}},
		"vi.*emacs", "bsd.*gnu", "abc.*mm?o.*xyz")
	st := m.Stats()
	if st.NumRules != 3 || st.NumFragments != 7 {
		t.Errorf("rules=%d fragments=%d", st.NumRules, st.NumFragments)
	}
	if st.MemBits != 4 {
		t.Errorf("MemBits = %d, want 4", st.MemBits)
	}
	if st.InternalIDs != 7 {
		t.Errorf("InternalIDs = %d, want 7", st.InternalIDs)
	}
	if st.DFAStates <= 0 || st.NFAStates <= 0 {
		t.Errorf("state counts: %+v", st)
	}
	if st.BuildTime <= 0 {
		t.Errorf("BuildTime = %v", st.BuildTime)
	}
	if st.MemoryImageBytes() != st.DFABytes+st.FilterBytes {
		t.Errorf("image bytes inconsistent: %+v", st)
	}
	// The filter must be a tiny fraction of the image (§V-C: <0.2%).
	if frac := float64(st.FilterBytes) / float64(st.MemoryImageBytes()); frac > 0.05 {
		t.Errorf("filter fraction %f too large", frac)
	}
	if st.DFALayout != "flat" || st.DFAClasses != 256 {
		t.Errorf("flat build stats: layout=%q classes=%d", st.DFALayout, st.DFAClasses)
	}

	// The default build applies byte-class compression: far fewer than
	// 256 classes, a proportionally smaller table, identical matching.
	md := compileMFA(t, Options{}, "vi.*emacs", "bsd.*gnu", "abc.*mm?o.*xyz")
	std := md.Stats()
	if std.DFALayout != "classed" {
		t.Fatalf("default layout = %q, want classed", std.DFALayout)
	}
	if std.DFAClasses <= 0 || std.DFAClasses >= 256 {
		t.Errorf("classed build used %d classes", std.DFAClasses)
	}
	if std.DFATableBytes >= st.DFATableBytes {
		t.Errorf("classed table %d B not smaller than flat %d B", std.DFATableBytes, st.DFATableBytes)
	}
}

func TestMFASmallerThanDFA(t *testing.T) {
	// The point of the paper: on dot-star-heavy sets the MFA's DFA is
	// far smaller than the undecomposed DFA.
	var sources []string
	for i := 0; i < 6; i++ {
		sources = append(sources, fmt.Sprintf("pat%da.*end%db", i, i))
	}
	rules := mustRules(t, sources...)
	m, err := Compile(rules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gt := groundTruth(t, rules)
	mfaStates := m.Stats().DFAStates
	dfaStates := gt.DFA().NumStates()
	if mfaStates*4 > dfaStates {
		t.Errorf("MFA should be much smaller: MFA=%d DFA=%d", mfaStates, dfaStates)
	}
	t.Logf("6 dot-star rules: MFA=%d states, DFA=%d states (%.1fx)",
		mfaStates, dfaStates, float64(dfaStates)/float64(mfaStates))
}

func TestRunnerStreamingAndContext(t *testing.T) {
	m := compileMFA(t, Options{}, "abc.*xyz")
	r := m.NewRunner()
	var got []event
	collect := func(id int32, pos int64) { got = append(got, event{id, pos}) }

	// Split across feeds, including mid-fragment.
	r.Feed([]byte("ab"), collect)
	r.Feed([]byte("c..x"), collect)
	r.Feed([]byte("yz"), collect)
	if len(got) != 1 || got[0] != (event{1, 7}) {
		t.Fatalf("streaming: %v", got)
	}

	// Context save/restore mimics flow multiplexing.
	r.Reset()
	got = nil
	r.Feed([]byte("abc"), collect)
	state, mem, regs, ctrs := r.Context()
	pos := r.Pos()
	r.Reset()
	r.Feed([]byte("xyz"), collect) // fresh flow: no match
	if len(got) != 0 {
		t.Fatalf("fresh flow must not match: %v", got)
	}
	if err := r.SetContext(state, mem, regs, ctrs, pos); err != nil {
		t.Fatal(err)
	}
	r.Feed([]byte("xyz"), collect) // restored flow: match
	if len(got) != 1 || got[0] != (event{1, 5}) {
		t.Fatalf("restored flow: %v", got)
	}
}

func TestFeedCount(t *testing.T) {
	m := compileMFA(t, Options{}, "ab.*cd")
	input := []byte(strings.Repeat("ab cd ", 30))
	var n int64
	r := m.NewRunner()
	r.Feed(input, func(int32, int64) { n++ })
	r2 := m.NewRunner()
	if c := r2.FeedCount(input); c != n {
		t.Fatalf("FeedCount=%d, Feed events=%d", c, n)
	}
	if n == 0 {
		t.Fatal("expected matches")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile([]Rule{{Pattern: nil, ID: 1}}, Options{}); err == nil {
		t.Error("nil pattern must fail")
	}
	p, err := regexparse.Parse("abc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile([]Rule{{Pattern: p, ID: 0}}, Options{}); err == nil {
		t.Error("rule id 0 must fail")
	}
}

func TestDFAStateCapPropagates(t *testing.T) {
	// A rule set the splitter cannot help (overlapping dot-stars whose
	// tails have no fixed length) with a tiny DFA budget must surface
	// ErrTooManyStates.
	var sources []string
	for i := 0; i < 10; i++ {
		// The shared x overlaps and x+ has no fixed length, so neither a
		// bit nor a position can split it.
		sources = append(sources, fmt.Sprintf("ov%dx.*x+ov%d", i, i))
	}
	_, err := Compile(mustRules(t, sources...), Options{DFA: dfa.Options{MaxStates: 100}})
	if err == nil {
		t.Fatal("expected state-budget error")
	}
}
