package core

// An oracle that shares no code with the splitter, the NFA or the DFA: a
// set-of-states simulator built straight from the regexparse AST, itself
// cross-checked against the standard library's regexp. Every other
// reference in this package (the undecomposed DFA, the reference subset
// constructor) goes through internal/nfa, so a Thompson bug is invisible
// to them. The near-miss matrix below and FuzzPositionSplit hold the
// position-checked splits of DESIGN.md §8 — dot-star on a register,
// almost-dot-star on an open-window counter — to it.

import (
	"bytes"
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"matchfilter/internal/dfa"
	"matchfilter/internal/regexparse"
)

// oracleRule is one rule as a private ε-NFA: state s has the ε-moves
// eps[s] and at most one byte move, on class[s] to to[s] (-1: none).
type oracleRule struct {
	id            int32
	anchored      bool
	eps           [][]int
	class         []regexparse.Class
	to            []int
	start, accept int
}

func newOracleRule(r Rule) *oracleRule {
	o := &oracleRule{id: r.ID, anchored: r.Pattern.Anchored}
	o.start, o.accept = o.build(r.Pattern.Root)
	return o
}

func (o *oracleRule) state() int {
	o.eps = append(o.eps, nil)
	o.class = append(o.class, regexparse.Class{})
	o.to = append(o.to, -1)
	return len(o.to) - 1
}

// build adds the states of n between a fresh entry and a fresh exit.
func (o *oracleRule) build(n *regexparse.Node) (in, out int) {
	in, out = o.state(), o.state()
	link := func(a, b int) { o.eps[a] = append(o.eps[a], b) }
	switch n.Op {
	case regexparse.OpEmpty:
		link(in, out)
	case regexparse.OpClass:
		o.class[in], o.to[in] = n.Class, out
	case regexparse.OpConcat:
		at := in
		for _, sub := range n.Subs {
			si, so := o.build(sub)
			link(at, si)
			at = so
		}
		link(at, out)
	case regexparse.OpAlternate:
		for _, sub := range n.Subs {
			si, so := o.build(sub)
			link(in, si)
			link(so, out)
		}
	case regexparse.OpStar, regexparse.OpPlus, regexparse.OpQuest:
		si, so := o.build(n.Sub)
		link(in, si)
		link(so, out)
		if n.Op != regexparse.OpPlus {
			link(in, out)
		}
		if n.Op != regexparse.OpQuest {
			link(so, si)
		}
	case regexparse.OpRepeat:
		// x{m,n}: m copies of x, then n−m skippable ones or, unbounded, a loop.
		at := in
		for i := 0; i < n.Min; i++ {
			si, so := o.build(n.Sub)
			link(at, si)
			at = so
		}
		for i := n.Min; i < n.Max; i++ {
			link(at, out)
			si, so := o.build(n.Sub)
			link(at, si)
			at = so
		}
		if n.Max == regexparse.InfiniteRepeat {
			si, so := o.build(n.Sub)
			link(at, si)
			link(so, at)
		}
		link(at, out)
	default:
		panic(fmt.Sprintf("oracle: unknown op %v", n.Op))
	}
	return in, out
}

// expandEpsilons closes set under ε-moves, in place.
func (o *oracleRule) expandEpsilons(set map[int]bool) map[int]bool {
	work := make([]int, 0, len(set))
	for s := range set {
		work = append(work, s)
	}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		for _, t := range o.eps[s] {
			if !set[t] {
				set[t] = true
				work = append(work, t)
			}
		}
	}
	return set
}

// ends returns every offset at which some match of the rule ends: a match
// may begin at offset 0, and before any later byte unless anchored.
func (o *oracleRule) ends(input []byte) []int64 {
	var out []int64
	cur := o.expandEpsilons(map[int]bool{o.start: true})
	for i, b := range input {
		next := map[int]bool{}
		for s := range cur {
			if o.to[s] >= 0 && o.class[s].Contains(b) {
				next[o.to[s]] = true
			}
		}
		if !o.anchored {
			next[o.start] = true
		}
		cur = o.expandEpsilons(next)
		if cur[o.accept] {
			out = append(out, int64(i))
		}
	}
	return out
}

// oracleEvents is every (rule, end) of the rule set over input, sorted.
func oracleEvents(rules []*oracleRule, input []byte) []event {
	var out []event
	for _, o := range rules {
		for _, end := range o.ends(input) {
			out = append(out, event{o.id, end})
		}
	}
	sortEvents(out)
	return out
}

func oracleFor(rules []Rule) []*oracleRule {
	out := make([]*oracleRule, len(rules))
	for i, r := range rules {
		out[i] = newOracleRule(r)
	}
	return out
}

// stdlibEnds is ends computed by regexp: offset e is reported when the
// rule, pinned to the end of input[:e+1], matches. src is in the repo's
// rule syntax (body, ^body or /body/i) and must stay inside the subset the
// two grammars share.
func stdlibEnds(t testing.TB, src string, input []byte) []int64 {
	t.Helper()
	body, flags := src, "(?s)"
	if strings.HasPrefix(src, "/") && strings.HasSuffix(src, "/i") {
		body, flags = src[1:len(src)-2], "(?si)"
	}
	re, err := regexp.Compile(flags + "(?:" + body + `)\z`)
	if err != nil {
		t.Fatalf("stdlib rejects %q: %v", src, err)
	}
	var out []int64
	for e := range input {
		if re.Match(input[:e+1]) {
			out = append(out, int64(e))
		}
	}
	return out
}

// nearMissRow is one rule of the matrix with concrete words for each of
// its segments, in order; a segment may list several (alternation heads,
// wildcard positions).
type nearMissRow struct {
	rule  string
	words [][]string
}

func w(words ...string) []string { return words }

var nearMissRows = []nearMissRow{
	// The three B217p rules and the C7p rule the splitter used to refuse.
	{"vibvj.*vjbwm", [][]string{w("vibvj"), w("vjbwm")}},
	{"vyblv.*vzbmb", [][]string{w("vyblv"), w("vzbmb")}},
	{"wsbfw.*wtbgc.*wubhg", [][]string{w("wsbfw"), w("wtbgc"), w("wubhg")}},
	{"cabnc.*cbbog.*ccbpk", [][]string{w("cabnc"), w("cbbog"), w("ccbpk")}},
	// Suffix/prefix overlaps of 1 … |B|−1 bytes, plain, anchored and /i.
	{"xxxb.*bcde", [][]string{w("xxxb"), w("bcde")}},
	{"xxbc.*bcde", [][]string{w("xxbc"), w("bcde")}},
	{"xbcd.*bcde", [][]string{w("xbcd"), w("bcde")}},
	{"^abc.*bcd", [][]string{w("abc"), w("bcd")}},
	{"/abc.*BCD/i", [][]string{w("aBc", "ABC"), w("bcD", "BCD")}},
	// Full containment, infix, alternation heads, self-overlap.
	{"xabc.*abc", [][]string{w("xabc"), w("abc")}},
	{"b.*abc", [][]string{w("b"), w("abc")}},
	{"ab.*x..z", [][]string{w("ab"), w("xabz", "xqqz")}},
	{"(foo|bar).*(rat|dog)", [][]string{w("foo", "bar"), w("rat", "dog")}},
	{"cde.*cde", [][]string{w("cde"), w("cde")}},
	{"aa.*aa", [][]string{w("aa"), w("aa")}},
	// Chains: position↔bit in both orders, position→position, anchored
	// heads, almost-dot-star neighbours, a head that keeps a refused gap.
	{"qq.*xyz.*xyz", [][]string{w("qq"), w("xyz"), w("xyz")}},
	{"abc.*bcd.*xyz", [][]string{w("abc"), w("bcd"), w("xyz")}},
	{"xyz.*abc.*bcd", [][]string{w("xyz"), w("abc"), w("bcd")}},
	{"abc.*bcd.*cde", [][]string{w("abc"), w("bcd"), w("cde")}},
	{"^hdr.*abc.*bcd", [][]string{w("hdr"), w("abc"), w("bcd")}},
	{`abc[^\n]*xyz.*yzq`, [][]string{w("abc"), w("xyz"), w("yzq")}},
	{`abc.*bcd[^\n]*xyz`, [][]string{w("abc"), w("bcd"), w("xyz")}},
	{"abc.*bc+d.*dx", [][]string{w("abc"), w("bcd", "bccd"), w("dx")}},
	// Still refused (variable-length B): the matrix must hold there too.
	{"abc.*bc+d", [][]string{w("abc"), w("bcd", "bcccd")}},
	// Still refused (a head that matches the empty string ends before byte
	// 0, where no fragment can fire): B at offset 0 must match.
	{"a?.*ab", [][]string{w("", "a"), w("ab")}},
	{"^a?.*ab", [][]string{w("", "a"), w("ab")}},
	{"^a?.*xy", [][]string{w("", "a"), w("xy")}},
	{"(ab)?.*abc", [][]string{w("", "ab"), w("abc")}},
	{"/(ab)*.*ABC/i", [][]string{w("", "aB", "abAB"), w("abc")}},
	{"xy.*y?.*yz", [][]string{w("xy"), w("", "y"), w("yz")}},

	// The same on the other separator, A[^X]*B: a byte of X between an end of
	// A and B's start forgets that end. First the S24 (two), S31p and S34
	// rules the splitter refused for a one-byte overlap.
	{`pqbdp[^\n]*prbes`, [][]string{w("pqbdp"), w("prbes")}},
	{`/^pjcwp[^\r\n]*pkcxs/i`, [][]string{w("pjcwp", "PJcwP"), w("pkcxs", "PKCXS")}},
	{`^qkbxq[^\n]*qlbyt`, [][]string{w("qkbxq"), w("qlbyt")}},
	{`^rebrr[^\n]*rfbsv`, [][]string{w("rebrr"), w("rfbsv")}},
	// Overlaps of 1 … |B|−1 bytes, anchored, /i with a two-byte X.
	{`xxxb[^\n]*bcde`, [][]string{w("xxxb"), w("bcde")}},
	{`xxbc[^\n]*bcde`, [][]string{w("xxbc"), w("bcde")}},
	{`xbcd[^\n]*bcde`, [][]string{w("xbcd"), w("bcde")}},
	{`^abc[^\n]*bcd`, [][]string{w("abc"), w("bcd")}},
	{`/abc[^\r\n]*BCD/i`, [][]string{w("aBc", "ABC"), w("bcD", "BCD")}},
	// Containment, infix, self-overlap, alternation heads.
	{`xabc[^\n]*abc`, [][]string{w("xabc"), w("abc")}},
	{`b[^\n]*abc`, [][]string{w("b"), w("abc")}},
	{`aa[^\n]*aa`, [][]string{w("aa"), w("aa")}},
	{`(foo|bar)[^\n]*(rat|dog)`, [][]string{w("foo", "bar"), w("rat", "dog")}},
	// X as A's final byte: that byte resets, then records.
	{`ab:[^:]*ca`, [][]string{w("ab:"), w("ca")}},
	{`a:[^:]*ab`, [][]string{w("a:"), w("ab")}},
	// Chains: position→position over two classes, dot-star↔almost.
	{`cab[^\n]*abc[^:]*bca`, [][]string{w("cab"), w("abc"), w("bca")}},
	{`ab.*bc[^\n]*ca`, [][]string{w("ab"), w("bc"), w("ca")}},
	{`ab[^\n]*bc.*ca`, [][]string{w("ab"), w("bc"), w("ca")}},
	// Still refused: X in B (the dot), a variable-length B.
	{`ab[^\n]*b.c`, [][]string{w("ab"), w("bxc", "b\nc")}},
	{`ab[^\n]*bc+d`, [][]string{w("ab"), w("bcd", "bcccd")}},
}

// gapClass matches an almost-dot-star in a rule's source.
var gapClass = regexp.MustCompile(`\[\^((?:\\.|[^\]\\])+)\]\*`)

// gapBytes are the bytes the rule's almost-dot-star gaps exclude, or a
// newline for a rule without one.
func gapBytes(t testing.TB, rule string) []byte {
	t.Helper()
	var out []byte
	for _, m := range gapClass.FindAllStringSubmatch(rule, -1) {
		x, err := strconv.Unquote(`"` + m[1] + `"`)
		if err != nil {
			t.Fatalf("rule %q: gap class %q: %v", rule, m[1], err)
		}
		out = append(out, x...)
	}
	if len(out) == 0 {
		return []byte{'\n'}
	}
	return out
}

// plant returns s with each single filler byte in turn replaced by each
// byte of xs: a forbidden byte everywhere a gap byte can stand — between a
// recorded A and a later A, directly before B, inside a collapsed overlap.
func plant(s string, xs []byte) []string {
	var out []string
	for i := range s {
		if s[i] == '-' {
			for _, x := range xs {
				out = append(out, s[:i]+string(x)+s[i+1:])
			}
		}
	}
	return out
}

// overlapLen is the longest proper suffix of a that is a prefix of b.
func overlapLen(a, b string) int {
	for k := min(len(a), len(b)); k > 0; k-- {
		if strings.EqualFold(a[len(a)-k:], b[:k]) {
			return k
		}
	}
	return 0
}

// nearMisses builds inputs around one adjacent word pair: A·B with 0 …
// |B|−1 bytes of B swallowed (the overlap collapsed is one of them), one
// to three bytes between, B first, a second, later A with and without its
// own B, an earlier A ahead of the collapsed pair (only the first end is far
// enough back), and a filler byte on either edge of the overlap. pre and
// post satisfy the rest of the chain at a distance.
func nearMisses(pre, a, b, post string) []string {
	k := overlapLen(a, b)
	collapsed := a + b[k:]
	out := []string{
		pre + b + "-" + a + post,
		pre + collapsed + "-" + a + post,
		pre + collapsed + "-" + a + b + post,
		pre + collapsed + "-" + a + "--" + b + post,
		pre + collapsed + b + post,
		pre + a + b + b + post,
		pre + a + collapsed + post,
		pre + a + "-" + collapsed + post,
		pre + a[:len(a)-k] + "-" + b + post,
		pre + a + "-" + b[k:] + post,
	}
	for k := 0; k < len(b); k++ {
		out = append(out, pre+a+b[k:]+post)
	}
	for gap := 1; gap <= 3; gap++ {
		out = append(out, pre+a+strings.Repeat("-", gap)+b+post)
	}
	return out
}

// inputs are the row's near misses for every adjacent pair and every
// choice of words, each also behind one stray byte (which an anchored
// rule must refuse) and with a byte the row's gaps forbid planted at each
// filler position in turn.
func (row nearMissRow) inputs(t testing.TB) [][]byte {
	seen := map[string]bool{}
	var out [][]byte
	xs := gapBytes(t, row.rule)
	add := func(s string) {
		for _, v := range append([]string{s, "z" + s}, plant(s, xs)...) {
			if !seen[v] {
				seen[v] = true
				out = append(out, []byte(v))
			}
		}
	}
	for i := 0; i+1 < len(row.words); i++ {
		var pre, post string
		for _, ws := range row.words[:i] {
			pre += ws[0] + "-"
		}
		for _, ws := range row.words[i+2:] {
			post += "-" + ws[len(ws)-1]
		}
		for _, a := range row.words[i] {
			for _, b := range row.words[i+1] {
				for _, s := range nearMisses(pre, a, b, post) {
					add(s)
				}
			}
		}
	}
	return out
}

// scanModes runs every input through m in each way a flow can reach the
// filter and hands check each stream it produced: one per input and mode,
// or several where the mode has a free parameter. Each must equal the
// oracle's stream for that input.
func scanModes(t testing.TB, m *MFA, inputs [][]byte, rng *rand.Rand, check func(mode string, input int, got []event)) {
	t.Helper()
	var image bytes.Buffer
	if _, err := m.WriteTo(&image); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadMFA(&image)
	if err != nil {
		t.Fatal(err)
	}
	collect := func(evs *[]event) MatchFunc {
		return func(id int32, pos int64) { *evs = append(*evs, event{id, pos}) }
	}

	for i, input := range inputs {
		check("whole", i, mfaEvents(m, input))
		check("WriteTo→ReadMFA", i, mfaEvents(loaded, input))

		var chunked []event
		r := m.NewRunner()
		for rest := input; len(rest) > 0; {
			n := 1 + rng.Intn(min(4, len(rest)))
			r.Feed(rest[:n], collect(&chunked))
			rest = rest[n:]
		}
		check("chunks", i, chunked)

		// Fixed chunkings around the sequential loop's edges: a call that
		// ends a byte short of a mask word, of a block's half and of a
		// whole block, on each edge and a byte past it.
		const h = dfa.BlockLen / 2
		for _, n := range []int{1, 63, 64, 65, h - 1, h, h + 1, 2*h - 1, 2 * h, 2*h + 1} {
			if n > 1 && n >= len(input) {
				continue // one Feed call: the "whole" mode
			}
			var evs []event
			r := m.NewRunner()
			for lo := 0; lo < len(input); lo += n {
				r.Feed(input[lo:min(lo+n, len(input))], collect(&evs))
			}
			check(fmt.Sprintf("%d-byte chunks", n), i, evs)
		}

		// The context saved at every cut — between A and B among them —
		// and restored into a runner that never saw the head.
		for cut := 1; cut < len(input); cut++ {
			var evs []event
			head := m.NewRunner()
			head.Feed(input[:cut], collect(&evs))
			state, mem, regs, ctrs := head.Context()
			tail := m.NewRunner()
			if err := tail.SetContext(state, mem, regs, ctrs, head.Pos()); err != nil {
				t.Fatal(err)
			}
			tail.Feed(input[cut:], collect(&evs))
			check(fmt.Sprintf("context cut at %d", cut), i, evs)
		}
	}

	// Lockstep: every input is a flow of one batcher, in two chunks.
	batcher := NewFlowBatcher(MaxBatchFlows)
	streams := make([][]event, len(inputs))
	for i, input := range inputs {
		r, cut := m.NewRunner(), len(input)/2
		batcher.Add(r, i, input[:cut], collect(&streams[i]))
		batcher.Add(r, i, input[cut:], collect(&streams[i]))
	}
	batcher.Flush()
	for i, got := range streams {
		check("FlowBatcher", i, got)
	}
}

func sameEvents(a, b []event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertOracle compiles sources with default options and requires every
// scan mode to reproduce the oracle's stream on every input. It returns
// how many inputs matched at all, so callers can refuse a vacuous table.
func assertOracle(t testing.TB, sources []string, inputs [][]byte) (matched int) {
	t.Helper()
	rules := make([]Rule, len(sources))
	for i, src := range sources {
		p, err := regexparse.ParsePCRE(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		rules[i] = Rule{Pattern: p, ID: int32(i + 1)}
	}
	m, err := Compile(rules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := oracleFor(rules)
	want := make([][]event, len(inputs))
	for i, input := range inputs {
		want[i] = oracleEvents(oracle, input)
		if len(want[i]) > 0 {
			matched++
		}
	}
	mismatches := 0
	scanModes(t, m, inputs, rand.New(rand.NewSource(21)), func(mode string, i int, got []event) {
		sortEvents(got)
		if sameEvents(got, want[i]) {
			return
		}
		if mismatches++; mismatches > 5 {
			t.Fatalf("rules %q: more mismatches not shown", sources)
		}
		t.Errorf("rules %q input %q, %s:\nMFA    %v\noracle %v", sources, inputs[i], mode, got, want[i])
	})
	return matched
}

// TestOracleAgainstStdlib holds the oracle itself to regexp on the
// matrix's rules and inputs, and on a few rules for the operators the
// matrix does not use.
func TestOracleAgainstStdlib(t *testing.T) {
	rows := append([]nearMissRow{
		{"a{2,4}b", [][]string{w("aaaaa"), w("b")}},
		{"x[0-9]+y?z", [][]string{w("x12"), w("yz", "z")}},
		{"(ab|cd)*e", [][]string{w("abcdab"), w("e", "ce")}},
		{"a.{2,}b", [][]string{w("a"), w("b", "ab")}},
		{"q[^#]*r{0,2}s", [][]string{w("q#q"), w("rrs", "rrrs")}},
	}, nearMissRows...)
	for _, row := range rows {
		oracle := oracleFor(mustRules(t, row.rule))[0]
		for _, input := range row.inputs(t) {
			got, want := oracle.ends(input), stdlibEnds(t, row.rule, input)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("rule %q input %q: oracle %v, regexp %v", row.rule, input, got, want)
			}
		}
	}
}

// TestPositionSplitNearMisses is the near-miss matrix: each rule alone,
// then all of them as one set (shared fragments, composed accept
// programs), over inputs built to land inside the overlap.
func TestPositionSplitNearMisses(t *testing.T) {
	// The two inputs the issue is named after.
	for input, want := range map[string][]event{
		"vibvjbwm":   nil,
		"vibvjvjbwm": {{1, 9}},
	} {
		if got := mfaEvents(compileMFA(t, Options{}, "vibvj.*vjbwm"), []byte(input)); !sameEvents(got, want) {
			t.Errorf("vibvj.*vjbwm on %q: %v, want %v", input, got, want)
		}
	}

	var sources []string
	var all [][]byte
	for _, row := range nearMissRows {
		inputs := row.inputs(t)
		if matched := assertOracle(t, []string{row.rule}, inputs); matched == 0 || matched == len(inputs) {
			t.Errorf("rule %q: %d of %d inputs match — the row tests one side only", row.rule, matched, len(inputs))
		}
		sources = append(sources, row.rule)
		all = append(all, inputs...)
	}
	assertOracle(t, sources, all)
}

// TestEmptyHeadNearMisses: the .{n,} register and X{n,m} counter splits
// refuse a head that matches the empty string for the same reason the
// dot-star ones do — with the gap's minimum met from offset 0, B must match.
func TestEmptyHeadNearMisses(t *testing.T) {
	for _, rule := range []string{"a?.{2,}ab", "^(ab)?.{2,}abc", "a?.{2,9}ab", `^a?[^\n]{0,9}ab`} {
		var inputs [][]byte
		for _, s := range []string{"ab", "--ab", "a--ab", "-ab", "ab--ab", "--abc", "ab--abc", "0123456789ab", "\n-ab"} {
			inputs = append(inputs, []byte(s), []byte("z"+s))
		}
		if matched := assertOracle(t, []string{rule}, inputs); matched == 0 || matched == len(inputs) {
			t.Errorf("rule %q: %d of %d inputs match — the row tests one side only", rule, matched, len(inputs))
		}
	}
}

// fuzzGapBytes are the X bytes FuzzPositionSplit draws from: a line end, a
// byte outside every word, and the words' own four letters.
var fuzzGapBytes = []struct {
	b   byte
	src string
}{{'\n', `\n`}, {':', ":"}, {'a', "a"}, {'b', "b"}, {'c', "c"}, {'d', "d"}}

// fuzzWord maps arbitrary bytes onto a short word over a four-letter
// alphabet, so that fuzzed words overlap each other often.
func fuzzWord(s string, maxLen int) string {
	if len(s) > maxLen {
		s = s[:maxLen]
	}
	word := make([]byte, len(s))
	for i := range word {
		word[i] = 'a' + s[i]%4
	}
	return string(word)
}

// FuzzPositionSplit: two words and an overlap length make the rule
// A.*B — B begins with the last `overlap` bytes of A — in one of six
// shapes, the sixth being A[^X]*B with X one fuzzed byte that may be a
// filler, a letter of the words' alphabet (so it can end A, or occur in B
// and refuse the split) or a newline; and the near-miss inputs around it,
// with X planted at every filler position. The MFA must agree with the
// oracle in every scan mode.
func FuzzPositionSplit(f *testing.F) {
	for _, row := range nearMissRows {
		if len(row.words) == 2 {
			a, b := row.words[0][0], row.words[1][0]
			k := overlapLen(a, b)
			f.Add(a, b[k:], uint8(k), uint8(0), uint8(0))
		}
	}
	f.Add("abc", "d", uint8(2), uint8(1), uint8(0))
	f.Add("abc", "d", uint8(2), uint8(2), uint8(0))
	f.Add("ab", "c", uint8(1), uint8(3), uint8(0))
	f.Add("a", "b", uint8(1), uint8(4), uint8(0))
	f.Add("ab", "c", uint8(2), uint8(4), uint8(0))
	for x := uint8(0); x < uint8(len(fuzzGapBytes)); x++ { // overlap, containment, X final in A, X in B
		f.Add("abc", "d", uint8(2), uint8(5), x)
		f.Add("dabc", "", uint8(3), uint8(5), x)
		f.Add("aa", "", uint8(2), uint8(5), x)
	}
	f.Fuzz(func(t *testing.T, a, tail string, overlap, shape, x uint8) {
		a, tail = fuzzWord(a, 6), fuzzWord(tail, 4)
		if a == "" {
			return
		}
		b := a[len(a)-int(overlap)%(len(a)+1):] + tail
		if b == "" {
			return
		}
		rule, pre, heads := a+".*"+b, "", []string{a}
		xs := []byte{'\n'}
		switch shape % 6 {
		case 1:
			rule = "^" + rule
		case 2:
			rule = "/" + rule + "/i"
			heads = []string{strings.ToUpper(a)}
		case 3:
			rule, pre = "dd.*"+rule, "dd-"
		case 4:
			// An optional head: B alone, from offset 0, is a match.
			rule, heads = "("+a+")?.*"+b, []string{a, ""}
		case 5:
			gap := fuzzGapBytes[int(x)%len(fuzzGapBytes)]
			rule, xs = a+"[^"+gap.src+"]*"+b, []byte{gap.b}
		}
		var inputs [][]byte
		for _, head := range heads {
			for _, s := range nearMisses(pre, head, b, "") {
				inputs = append(inputs, []byte(s), []byte("d"+s))
				for _, v := range plant(s, xs) {
					inputs = append(inputs, []byte(v))
				}
			}
		}
		assertOracle(t, []string{rule}, inputs)
	})
}
