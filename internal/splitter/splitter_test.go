package splitter

import (
	"runtime"
	"strings"
	"testing"

	"matchfilter/internal/filter"
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
		rules[i] = Rule{Pattern: p, RuleID: int32(i + 1)}
	}
	return rules
}

func split(t *testing.T, opts Options, sources ...string) *Result {
	t.Helper()
	res, err := Split(mustRules(t, sources...), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fragmentSources renders each fragment's effective pattern for assertions.
func fragmentSources(res *Result) []string {
	out := make([]string, len(res.Fragments))
	for i, f := range res.Fragments {
		s := f.Pattern.Root.String()
		if f.Pattern.Anchored {
			s = "^" + s
		}
		out[i] = s
	}
	return out
}

func TestDotStarSplit(t *testing.T) {
	res := split(t, Options{}, "vi.*emacs")
	if len(res.Fragments) != 2 {
		t.Fatalf("want 2 fragments, got %v", fragmentSources(res))
	}
	got := fragmentSources(res)
	if got[0] != "vi" || got[1] != "emacs" {
		t.Fatalf("fragments: %v", got)
	}
	if res.MemBits != 1 {
		t.Fatalf("MemBits = %d, want 1", res.MemBits)
	}
	// Actions: id1 = Set 0 (no report), id2 = Test 0 to Match rule 1.
	a1, a2 := res.Actions[1], res.Actions[2]
	if a1.Set != 0 || a1.Test != filter.NoBit || a1.Report != filter.NoReport {
		t.Errorf("setter action: %+v", a1)
	}
	if a2.Test != 0 || a2.Report != 1 || a2.Set != filter.NoBit {
		t.Errorf("final action: %+v", a2)
	}
}

func TestChainedDotStar(t *testing.T) {
	// .*A.*B.*C uses two bits with a Test-to-Set chain (§IV-A).
	res := split(t, Options{}, "aaa.*bbb.*ccc")
	if len(res.Fragments) != 3 || res.MemBits != 2 {
		t.Fatalf("fragments=%v bits=%d", fragmentSources(res), res.MemBits)
	}
	a1, a2, a3 := res.Actions[1], res.Actions[2], res.Actions[3]
	if a1.Test != filter.NoBit || a1.Set != 0 {
		t.Errorf("a1: %+v", a1)
	}
	if a2.Test != 0 || a2.Set != 1 || a2.Report != filter.NoReport {
		t.Errorf("a2 should be Test 0 to Set 1: %+v", a2)
	}
	if a3.Test != 1 || a3.Report != 1 {
		t.Errorf("a3 should be Test 1 to Match: %+v", a3)
	}
}

func TestAlmostDotStarSplit(t *testing.T) {
	res := split(t, Options{}, `abc[^\n]*xyz`)
	got := fragmentSources(res)
	if len(got) != 3 {
		t.Fatalf("want 3 fragments, got %v", got)
	}
	// Gap fragments are shared across rules, so they come last.
	if got[0] != "abc" || got[1] != "xyz" || got[2] != `\n` {
		t.Fatalf("fragments: %v", got)
	}
	// §IV-B: 1a: Set 0, 1b: Clear 0 (as a clear group), 1: Test 0 to Match.
	if a := res.Actions[1]; a.Set != 0 {
		t.Errorf("1a: %+v", a)
	}
	if a := res.Actions[2]; a.Test != 0 || a.Report != 1 {
		t.Errorf("1: %+v", a)
	}
	if a := res.Actions[3]; a.ClearGroup != 1 || a.Test != filter.NoBit {
		t.Errorf("1b: %+v", a)
	}
	if len(res.ClearGroups) != 1 || len(res.ClearGroups[0]) != 1 || res.ClearGroups[0][0] != 0 {
		t.Errorf("clear groups: %v", res.ClearGroups)
	}
	if res.Stats.AlmostSplits != 1 {
		t.Errorf("stats: %+v", res.Stats)
	}
}

func TestSharedGapFragments(t *testing.T) {
	// Three rules with the same gap class share one [X] fragment whose
	// action clears all three guard bits; a distinct class gets its own.
	res := split(t, Options{},
		`a1[^\n]*b1`, `a2[^\n]*b2`, `a3[^\n]*b3`, `a4[^#]*b4`)
	var gapFragments int
	for _, f := range res.Fragments {
		if f.RuleID == 0 {
			gapFragments++
		}
	}
	if gapFragments != 2 {
		t.Fatalf("want 2 shared gap fragments, got %d (%v)", gapFragments, fragmentSources(res))
	}
	if len(res.ClearGroups) != 2 {
		t.Fatalf("clear groups: %v", res.ClearGroups)
	}
	if len(res.ClearGroups[0]) != 3 || len(res.ClearGroups[1]) != 1 {
		t.Fatalf("group membership: %v", res.ClearGroups)
	}
}

func TestOverlapRefused(t *testing.T) {
	// The paper's own counterexample: suffix "bc" of abc is a prefix of
	// bcd, so a guard bit would confirm .*abc.*bcd on "abcd". The split is
	// made on a position register instead: bcd confirms only when it ends
	// at least |bcd| bytes after abc's earliest end.
	res := split(t, Options{}, "abc.*bcd")
	if got := fragmentSources(res); len(got) != 2 || got[0] != "abc" || got[1] != "bcd" {
		t.Fatalf("fragments: %v", got)
	}
	if res.NumRegs != 1 || res.MemBits != 0 {
		t.Errorf("regs=%d bits=%d, want 1 and 0", res.NumRegs, res.MemBits)
	}
	if got := res.Actions[1].String(); got != "Record 1" {
		t.Errorf("head action: %s", got)
	}
	if got := res.Actions[2].String(); got != "Gap(1) >= 3 to Match" {
		t.Errorf("tail action: %s", got)
	}
	if st := res.Stats; st.PositionSplits != 1 || st.DotStarSplits != 0 || st.CountingSplits != 0 || st.RefusedOverlap != 0 {
		t.Errorf("stats: %+v", st)
	}

	// The paper's conditions alone refuse it.
	res = split(t, Options{Construction: Paper}, "abc.*bcd")
	if len(res.Fragments) != 1 || res.Stats.RefusedOverlap != 1 || res.NumRegs != 0 {
		t.Fatalf("paper conditions must keep the rule whole: %v %+v", fragmentSources(res), res.Stats)
	}
	if a := res.Actions[1]; a.Report != 1 || a.Test != filter.NoBit {
		t.Errorf("action: %+v", a)
	}

	// A variable-length B has no recoverable start: still whole, and the
	// refusal still cascades to the separator on its left.
	res = split(t, Options{}, "qq.*abc.*bc+d")
	if got := fragmentSources(res); len(got) != 1 || got[0] != "qq.*abc.*bc+d" {
		t.Fatalf("variable-length tail must stay whole: %v", got)
	}
	if st := res.Stats; st.RefusedVarLength != 1 || st.RefusedCascade != 1 || st.PositionSplits != 0 || st.RefusedOverlap != 0 {
		t.Errorf("stats: %+v", st)
	}

	// An almost-dot-star with the same overlap: the record lives in an
	// open-window counter that a newline resets, and the reset's id is below
	// the record's.
	res = split(t, Options{}, `abc[^\n]*bcd`)
	if got := fragmentSources(res); len(got) != 3 || got[0] != `\n` || got[1] != "abc" || got[2] != "bcd" {
		t.Fatalf("fragments: %v", got)
	}
	for i, want := range []string{"Reset 1", "Inc 1", "Ctr(1) in window to Match"} {
		if got := res.Actions[i+1].String(); got != want {
			t.Errorf("action %d: %q, want %q", i+1, got, want)
		}
	}
	if len(res.Counters) != 1 || res.Counters[0] != (filter.Counter{MinGap: 3, MaxGap: filter.OpenGap}) || res.NumRegs != 0 || res.MemBits != 0 {
		t.Errorf("counters %v regs %d bits %d, want one open counter with MinGap 3", res.Counters, res.NumRegs, res.MemBits)
	}
	if st := res.Stats; st.AlmostPositionSplits != 1 || st.AlmostSplits != 0 || st.CounterSplits != 0 || st.PositionSplits != 0 || st.RefusedOverlap != 0 {
		t.Errorf("stats: %+v", st)
	}
	res = split(t, Options{Construction: Paper}, `abc[^\n]*bcd`)
	if len(res.Fragments) != 1 || res.Stats.RefusedOverlap != 1 || len(res.Counters) != 0 {
		t.Fatalf("paper conditions must keep the rule whole: %v %+v", fragmentSources(res), res.Stats)
	}

	// Infix, and what still refuses: X in B (here through the dot) and a
	// variable-length B, which cascades.
	res = split(t, Options{}, `b[^\n]*abc`, `ab[^\n]*b.c`, `qq.*ab[^\n]*bc+d`)
	if st := res.Stats; len(res.Fragments) != 5 || st.AlmostPositionSplits != 1 || st.RefusedXInB != 1 ||
		st.RefusedVarLength != 1 || st.RefusedCascade != 1 || st.RefusedOverlap != 0 || st.RefusedInfix != 0 {
		t.Errorf("fragments %v, stats %+v", fragmentSources(res), st)
	}
}

func TestOverlapFullContainment(t *testing.T) {
	// B equal to a suffix of A, and A inside B (infix): both positional.
	res := split(t, Options{}, "xabc.*abc", "b.*abc")
	if got := fragmentSources(res); len(got) != 4 {
		t.Fatalf("fragments: %v", got)
	}
	if st := res.Stats; st.PositionSplits != 2 || st.RefusedOverlap != 0 || st.RefusedInfix != 0 {
		t.Errorf("stats: %+v", st)
	}
	res = split(t, Options{Construction: Paper}, "xabc.*abc", "b.*abc")
	if st := res.Stats; len(res.Fragments) != 2 || st.RefusedOverlap != 1 || st.RefusedInfix != 1 {
		t.Fatalf("paper conditions: %v %+v", fragmentSources(res), st)
	}
}

func TestEmptyHeadRefused(t *testing.T) {
	// A left segment that matches the empty string also ends before byte 0,
	// where no fragment fires: "ab" matches a?.*ab at its last byte, and a
	// register first written at index 0 would say the gap is one byte short.
	// No kind of split takes such a head, and the refusal cascades.
	for _, c := range []struct {
		opts Options
		rule string
	}{
		{Options{}, "a?.*ab"},
		{Options{}, "(ab)?.*abc"},
		{Options{}, "^a?.*x"},
		{Options{}, `(ab)*[^\n]*xy`},
		{Options{}, "qq.*y?.*yz"},
		{Options{}, "a?.{2,}xy"},
		{Options{}, "a?.{2,10}xy"},
		{Options{Construction: unchecked}, "a?.*ab"},
	} {
		res := split(t, c.opts, c.rule)
		if len(res.Fragments) != 1 || res.NumRegs != 0 || res.MemBits != 0 || len(res.Counters) != 0 {
			t.Errorf("%s must stay whole: %v", c.rule, fragmentSources(res))
		}
		if st := res.Stats; st.RefusedStructural != 1 || st.RulesDecomposed != 0 {
			t.Errorf("%s stats: %+v", c.rule, st)
		}
	}
	// The head to the right of the refused gap is not empty: it still splits.
	res := split(t, Options{}, "a?.*bc.*cd")
	if got := fragmentSources(res); len(got) != 2 || got[1] != "cd" || res.Stats.PositionSplits != 1 {
		t.Fatalf("fragments: %v %+v", got, res.Stats)
	}
}

func TestPositionSplitChains(t *testing.T) {
	// A position link followed by a bit link, and the reverse: the chain
	// condition a fragment carries guards its record like any other effect.
	res := split(t, Options{}, "wsbfw.*wtbgc.*wubhg", "qq.*xyz.*xyz")
	want := []string{
		"Record 1", "Gap(1) >= 5 to Set 0", "Test 0 to Match",
		"Set 1", "Test 1 to Record 2", "Gap(2) >= 3 to Match",
	}
	if len(res.Actions) != len(want)+1 {
		t.Fatalf("fragments: %v", fragmentSources(res))
	}
	for i, w := range want {
		if got := res.Actions[i+1].String(); got != w {
			t.Errorf("action %d: %q, want %q", i+1, got, w)
		}
	}
	if st := res.Stats; st.PositionSplits != 2 || st.DotStarSplits != 2 || st.RefusedCascade != 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestNoOverlapSplits(t *testing.T) {
	res := split(t, Options{}, "abc.*xyz")
	if len(res.Fragments) != 2 {
		t.Fatalf("disjoint strings must split: %v", fragmentSources(res))
	}
}

func TestOverlapWithAlternation(t *testing.T) {
	// suffix(A) meets prefix(B) through one alternation branch only.
	res := split(t, Options{}, "(foo|bar).*(rat|dog)")
	if len(res.Fragments) != 2 || res.Stats.PositionSplits != 1 || res.Actions[2].MinGap != 3 {
		t.Fatalf("suffix 'r' of bar is prefix of rat: %v %+v", fragmentSources(res), res.Stats)
	}
	res = split(t, Options{}, "(foo|bar).*(cat|dog)")
	if len(res.Fragments) != 2 || res.Stats.DotStarSplits != 1 || res.NumRegs != 0 {
		t.Fatalf("no overlap here: %v %+v", fragmentSources(res), res.Stats)
	}
}

func TestDisableSafetyChecks(t *testing.T) {
	res := split(t, Options{Construction: unchecked}, "abc.*bcd")
	if len(res.Fragments) != 2 {
		t.Fatalf("unsafe mode must split anyway: %v", fragmentSources(res))
	}
}

func TestClassSizeThreshold(t *testing.T) {
	// .*abc[a-f]*xyz: X = [^a-f] has 250 members ≥ 128, so §IV-B refuses.
	res := split(t, Options{}, "abc[a-f]*xyz")
	if len(res.Fragments) != 1 {
		t.Fatalf("large X must be refused: %v", fragmentSources(res))
	}
	if res.Stats.RefusedClassSize != 1 {
		t.Errorf("stats: %+v", res.Stats)
	}
	// Even with a raised threshold, X∩B ≠ ∅ here (x,y,z ∈ [^a-f]), so the
	// safety check still refuses — the paper presents this decomposition
	// as an improper application.
	res = split(t, Options{Construction: anyClassSize}, "abc[a-f]*xyz")
	if len(res.Fragments) != 1 || res.Stats.RefusedXInB != 1 {
		t.Fatalf("raised threshold must still refuse via X-in-B: %v %+v",
			fragmentSources(res), res.Stats)
	}
	// Only disabling safety checks entirely forces the (incorrect) split.
	res = split(t, Options{Construction: unchecked}, "abc[a-f]*xyz")
	if len(res.Fragments) != 3 {
		t.Fatalf("unsafe mode should split: %v", fragmentSources(res))
	}
}

func TestXInBRefused(t *testing.T) {
	// X = {:} appears inside B ("x:y"), which would clear the guard bit
	// mid-B and suppress all matches.
	res := split(t, Options{}, "abc[^:]*x:y")
	if len(res.Fragments) != 1 || res.Stats.RefusedXInB != 1 {
		t.Fatalf("X in B must refuse: %v %+v", fragmentSources(res), res.Stats)
	}
}

func TestXFinalInARefused(t *testing.T) {
	// A ends in a byte of X: simultaneous set+clear cannot be expressed on a
	// bit. On an open-window counter it is reset, then record, in id order.
	res := split(t, Options{}, "ab:[^:]*xyz")
	if got := fragmentSources(res); len(got) != 3 || got[0] != ":" || got[1] != "ab:" || got[2] != "xyz" {
		t.Fatalf("fragments: %v", got)
	}
	if reset, inc := res.Actions[1], res.Actions[2]; reset.ResetCtr != 1 || inc.SetCtr != 1 || res.Fragments[0].InternalID > res.Fragments[1].InternalID {
		t.Errorf("reset %s (id %d) must precede record %s (id %d)", reset, res.Fragments[0].InternalID, inc, res.Fragments[1].InternalID)
	}
	if st := res.Stats; st.AlmostPositionSplits != 1 || st.RefusedXFinalInA != 0 {
		t.Errorf("stats: %+v", st)
	}
	// The paper's conditions alone refuse it.
	res = split(t, Options{Construction: Paper}, "ab:[^:]*xyz")
	if len(res.Fragments) != 1 || res.Stats.RefusedXFinalInA != 1 {
		t.Fatalf("X final in A must refuse: %v %+v", fragmentSources(res), res.Stats)
	}
	// X in a non-final position of A is fine (§IV-B allows it).
	res = split(t, Options{}, "a:b[^:]*xyz")
	if len(res.Fragments) != 3 {
		t.Fatalf("X mid-A should split: %v", fragmentSources(res))
	}
}

func TestTableIIIProgram(t *testing.T) {
	// The R1 rule set of Table I produces a 7-fragment, 4-bit program
	// with the same shape as Table III.
	res := split(t, Options{}, "vi.*emacs", "bsd.*gnu", "abc.*mm?o.*xyz")
	if len(res.Fragments) != 7 {
		t.Fatalf("want 7 fragments, got %v", fragmentSources(res))
	}
	if res.MemBits != 4 {
		t.Fatalf("want 4 memory bits as in Table III, got %d", res.MemBits)
	}
	prog := res.Program()
	s := prog.String()
	for _, want := range []string{"Set 0", "Test 0 to Match", "Set 1", "Test 1 to Match", "Set 2", "Test 2 to Set 3", "Test 3 to Match"} {
		if !strings.Contains(s, want) {
			t.Errorf("program missing %q:\n%s", want, s)
		}
	}
}

func TestAnchoredSplit(t *testing.T) {
	// Only the head fragment keeps the anchor; the guard chain enforces
	// ordering for the unanchored tail fragments (deviation from the
	// paper's prepend scheme, see DESIGN.md).
	res := split(t, Options{}, "^hdr.*abc.*xyz")
	got := fragmentSources(res)
	if len(got) != 3 {
		t.Fatalf("fragments: %v", got)
	}
	if got[0] != "^hdr" {
		t.Errorf("first fragment: %q", got[0])
	}
	if got[1] != "abc" || got[2] != "xyz" {
		t.Errorf("tail fragments must be unanchored: %v", got)
	}
	// The actions chain through the anchored head.
	if a := res.Actions[1]; a.Set != 0 {
		t.Errorf("head action: %+v", a)
	}
	if a := res.Actions[3]; a.Test != 1 || a.Report != 1 {
		t.Errorf("final action: %+v", a)
	}
}

func TestLeadingDotStarDropped(t *testing.T) {
	// Explicit leading .* on an unanchored rule is redundant.
	res := split(t, Options{}, ".*abc.*xyz")
	got := fragmentSources(res)
	if len(got) != 2 || got[0] != "abc" || got[1] != "xyz" {
		t.Fatalf("fragments: %v", got)
	}
}

func TestTrailingSeparatorKept(t *testing.T) {
	// "abc.*" has nothing to split off on the right.
	res := split(t, Options{}, "abc.*")
	got := fragmentSources(res)
	if len(got) != 1 || got[0] != "abc.*" {
		t.Fatalf("fragments: %v", got)
	}
}

func TestTopLevelAlternationKeptWhole(t *testing.T) {
	res := split(t, Options{}, "ab.*cd|ef.*gh")
	if len(res.Fragments) != 1 {
		t.Fatalf("top-level alternation must stay whole: %v", fragmentSources(res))
	}
	if res.Stats.RulesDecomposed != 0 {
		t.Errorf("stats: %+v", res.Stats)
	}
}

func TestDisableDotStar(t *testing.T) {
	// The Whole construction keeps every rule whole, whatever its gaps.
	rules := []string{"abc.*xyz", `abc[^\n]*xyz`, "abc.*bcd", "aa.{3,}bbb", "aa.{2,20}bb"}
	res := split(t, Options{Construction: Whole}, rules...)
	if got := fragmentSources(res); len(got) != len(rules) || got[0] != "abc.*xyz" || got[1] != `abc[^\n]*xyz` {
		t.Errorf("every rule should be kept whole: %v", got)
	}
	if res.Stats.RulesDecomposed != 0 || res.MemBits != 0 || res.NumRegs != 0 || len(res.Counters) != 0 {
		t.Errorf("stats: %+v", res.Stats)
	}
}

func TestDisableAlmostDotStar(t *testing.T) {
	// PaperDotStar, the HFA baseline's construction: dot-stars split on
	// guard bits, almost-dot-stars and overlapping dot-stars stay whole.
	res := split(t, Options{Construction: PaperDotStar}, `abc[^\n]*xyz`, "abc.*xyz", "abc.*bcd")
	if st := res.Stats; st.AlmostSplits != 0 || st.DotStarSplits != 1 || st.PositionSplits != 0 || st.RefusedOverlap != 1 {
		t.Errorf("stats: %+v", res.Stats)
	}
}

func TestGlobalIDAndBitAllocation(t *testing.T) {
	// Ids and bits must be globally unique across rules (§III-C).
	res := split(t, Options{}, "aa.*bb", "cc.*dd")
	if res.MemBits != 2 {
		t.Fatalf("MemBits = %d", res.MemBits)
	}
	seenIDs := map[int32]bool{}
	for _, f := range res.Fragments {
		if seenIDs[f.InternalID] {
			t.Fatalf("duplicate internal id %d", f.InternalID)
		}
		seenIDs[f.InternalID] = true
	}
	if res.Actions[1].Set == res.Actions[3].Set {
		t.Errorf("rules must use distinct bits: %+v vs %+v", res.Actions[1], res.Actions[3])
	}
}

func TestRuleIDValidation(t *testing.T) {
	p, err := regexparse.Parse("abc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Split([]Rule{{Pattern: p, RuleID: 0}}, Options{}); err == nil {
		t.Fatal("rule id 0 must be rejected")
	}
}

func TestMixedSeparators(t *testing.T) {
	// dot-star then almost-dot-star in one rule: .*A.*B[^X]*C.
	res := split(t, Options{}, `hdr.*abc[^\n]*xyz`)
	got := fragmentSources(res)
	if len(got) != 4 {
		t.Fatalf("want 4 fragments (hdr, abc, \\n, xyz): %v", got)
	}
	// Chain: hdr sets 0; abc tests 0 sets 1; the shared \n gap fragment
	// (emitted last) clears 1; xyz tests 1.
	if a := res.Actions[2]; a.Test != 0 || a.Set != 1 {
		t.Errorf("abc action: %+v", a)
	}
	if a := res.Actions[3]; a.Test != 1 || a.Report != 1 {
		t.Errorf("final action: %+v", a)
	}
	if a := res.Actions[4]; a.ClearGroup != 1 {
		t.Errorf("gap action: %+v", a)
	}
	if len(res.ClearGroups) != 1 || res.ClearGroups[0][0] != 1 {
		t.Errorf("clear groups: %v", res.ClearGroups)
	}
}

// parseSegment builds the overlap automaton of one segment's source.
func parseSegment(t *testing.T, src string) *segment {
	t.Helper()
	p, err := regexparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSegment(p.Root)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSuffixPrefixOverlapDirect(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"abc", "bcd", true},   // "bc"
		{"abc", "xyz", false},  //
		{"abc", "cab", true},   // "c"
		{"ab+", "bbq", true},   // suffix "b"/"bb" vs prefix "b"/"bb"
		{"foo", "ofo", true},   // "o"
		{"foo", "fgh", false},  // suffixes are foo/oo/o; prefixes f/fg/fgh
		{"a[xy]", "yz", true},  // branchy final char
		{"a[xy]", "qz", false}, //
		{"(ab|cd)", "dx", true},
		{"(ab|cd)", "ex", false},
	}
	for _, tc := range cases {
		got := suffixPrefixOverlap(parseSegment(t, tc.a), parseSegment(t, tc.b))
		if got != tc.want {
			t.Errorf("overlap(%q,%q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestOverlapProductBounded: two segments whose product exceeds maxPairs
// are taken to overlap without a search, so a hostile rule cannot make
// the visited set |A|·|B| bits large. The classes are disjoint, so a
// search would find no overlap and the Paper construction would split.
func TestOverlapProductBounded(t *testing.T) {
	const a, b = "(a{1000}){5}", "(b{1000}){5}"
	pairs := parseSegment(t, a).NumStates() * parseSegment(t, b).NumStates()
	if pairs <= maxPairs {
		t.Fatalf("%d pairs, want more than %d", pairs, maxPairs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := split(t, Options{Construction: Paper}, a+".*"+b)
	runtime.ReadMemStats(&after)
	if st := res.Stats; st.RefusedOverlap != 1 || st.RulesDecomposed != 0 {
		t.Errorf("stats: %+v", st)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(pairs/8) {
		t.Errorf("Split allocated %d bytes; a visited set of %d pairs is %d", got, pairs, pairs/8)
	}
}

func TestSplitStatsTotals(t *testing.T) {
	res := split(t, Options{}, "a1b.*c2d", "plainstring", "e3f.*f3g")
	if res.Stats.RulesTotal != 3 {
		t.Errorf("RulesTotal = %d", res.Stats.RulesTotal)
	}
	// Rule 1 splits on a bit; rule 2 has no separators; rule 3 overlaps
	// (f3) and splits on a position.
	if st := res.Stats; st.RulesDecomposed != 2 || st.DotStarSplits != 1 || st.PositionSplits != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestCountingSplitStructure(t *testing.T) {
	res := split(t, Options{}, "aa.{7,}bbb")
	got := fragmentSources(res)
	if len(got) != 2 || got[0] != "aa" || got[1] != "bbb" {
		t.Fatalf("fragments: %v", got)
	}
	if res.NumRegs != 1 || res.MemBits != 0 {
		t.Fatalf("regs=%d bits=%d", res.NumRegs, res.MemBits)
	}
	// aa records its position; bbb requires gap >= 7 + len("bbb") = 10.
	if a := res.Actions[1]; a.SetPos != 1 || a.Test != filter.NoBit {
		t.Errorf("recorder: %+v", a)
	}
	if a := res.Actions[2]; a.GapReg != 1 || a.MinGap != 10 || a.Report != 1 {
		t.Errorf("gap tester: %+v", a)
	}
	if res.Stats.CountingSplits != 1 {
		t.Errorf("stats: %+v", res.Stats)
	}
}

func TestCountingDisabledKeepsRepeat(t *testing.T) {
	// The paper's conditions have no counting separator: the repeat stays
	// in the rule, for the DFA to expand.
	res := split(t, Options{Construction: Paper}, "aa.{7,}bbb", "aa.{2,20}bb")
	if len(res.Fragments) != 2 {
		t.Fatalf("counting off: fragments %v", fragmentSources(res))
	}
	if res.NumRegs != 0 || len(res.Counters) != 0 {
		t.Errorf("registers or counters allocated with counting off")
	}
}

func TestCountingVariableTailRefusedAtSplitter(t *testing.T) {
	res := split(t, Options{}, "aa.{3,}b+")
	if len(res.Fragments) != 1 || res.Stats.RefusedVarLength != 1 {
		t.Fatalf("variable tail: %v %+v", fragmentSources(res), res.Stats)
	}
}

func TestCountingChainActions(t *testing.T) {
	// aa.{2,}bb.*cc: register gap guards the bit setter; bit guards the
	// final report.
	res := split(t, Options{}, "aa.{2,}bb.*cc")
	if len(res.Fragments) != 3 {
		t.Fatalf("fragments: %v", fragmentSources(res))
	}
	if a := res.Actions[2]; a.GapReg != 1 || a.MinGap != 4 || a.Set != 0 {
		t.Errorf("middle action: %+v", a)
	}
	if a := res.Actions[3]; a.Test != 0 || a.Report != 1 {
		t.Errorf("final action: %+v", a)
	}
}
