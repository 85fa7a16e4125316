package regexparse

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, src string) *Pattern {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return p
}

func TestParseLiteral(t *testing.T) {
	p := mustParse(t, "abc")
	if p.Root.Op != OpConcat || len(p.Root.Subs) != 3 {
		t.Fatalf("want 3-part concat, got %v", p.Root.Op)
	}
	for i, want := range []byte{'a', 'b', 'c'} {
		sub := p.Root.Subs[i]
		if sub.Op != OpClass {
			t.Fatalf("sub %d: want class, got %v", i, sub.Op)
		}
		if c, ok := sub.Class.SingleByte(); !ok || c != want {
			t.Fatalf("sub %d: want %q, got %q (ok=%v)", i, want, c, ok)
		}
	}
}

func TestParseEmpty(t *testing.T) {
	p := mustParse(t, "")
	if p.Root.Op != OpEmpty {
		t.Fatalf("want OpEmpty, got %v", p.Root.Op)
	}
}

func TestParseAnchor(t *testing.T) {
	if !mustParse(t, "^abc").Anchored {
		t.Error("^abc should be anchored")
	}
	if mustParse(t, "abc").Anchored {
		t.Error("abc should not be anchored")
	}
}

func TestParseDot(t *testing.T) {
	p := mustParse(t, ".")
	if p.Root.Op != OpClass || p.Root.Class.Count() != AlphabetSize {
		t.Fatalf("dot should match all %d bytes, got %d", AlphabetSize, p.Root.Class.Count())
	}
	if !p.Root.Class.Contains('\n') {
		t.Error("dot must include newline (dotall semantics, per the paper)")
	}
}

func TestParseDotStar(t *testing.T) {
	p := mustParse(t, ".*abc")
	if p.Root.Op != OpConcat {
		t.Fatalf("want concat, got %v", p.Root.Op)
	}
	if !p.Root.Subs[0].IsDotStar() {
		t.Error("first element should be recognized as dot-star")
	}
}

func TestParseQuantifiers(t *testing.T) {
	tests := []struct {
		src string
		op  Op
	}{
		{"a*", OpStar},
		{"a+", OpPlus},
		{"a?", OpQuest},
		{"a{3}", OpRepeat},
		{"a{3,}", OpRepeat},
		{"a{3,7}", OpRepeat},
	}
	for _, tt := range tests {
		p := mustParse(t, tt.src)
		if p.Root.Op != tt.op {
			t.Errorf("%q: want %v, got %v", tt.src, tt.op, p.Root.Op)
		}
	}
	p := mustParse(t, "a{3,7}")
	if p.Root.Min != 3 || p.Root.Max != 7 {
		t.Errorf("a{3,7}: got min=%d max=%d", p.Root.Min, p.Root.Max)
	}
	p = mustParse(t, "a{3,}")
	if p.Root.Min != 3 || p.Root.Max != InfiniteRepeat {
		t.Errorf("a{3,}: got min=%d max=%d", p.Root.Min, p.Root.Max)
	}
}

func TestParseLiteralBrace(t *testing.T) {
	// A brace that is not a valid quantifier is a literal, like PCRE.
	for _, src := range []string{"a{", "a{b}", "a{1,2,3}", "{2}"} {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q) should accept literal brace: %v", src, err)
		}
	}
}

func TestParseClass(t *testing.T) {
	p := mustParse(t, "[a-f0-9]")
	cl := p.Root.Class
	if cl.Count() != 16 {
		t.Fatalf("[a-f0-9] should have 16 members, got %d", cl.Count())
	}
	for _, c := range []byte("abcdef0123456789") {
		if !cl.Contains(c) {
			t.Errorf("missing %q", c)
		}
	}
}

func TestParseNegatedClass(t *testing.T) {
	p := mustParse(t, `[^\n]`)
	cl := p.Root.Class
	if cl.Count() != 255 || cl.Contains('\n') {
		t.Fatalf("[^\\n]: count=%d contains \\n=%v", cl.Count(), cl.Contains('\n'))
	}
	x, ok := mustParse(t, `[^\n]*`).Root.NegatedClassStar()
	if !ok {
		t.Fatal("NegatedClassStar should recognize [^\\n]*")
	}
	if x.Count() != 1 || !x.Contains('\n') {
		t.Errorf("X should be {\\n}, got %d members", x.Count())
	}
}

func TestParseClassEdgeCases(t *testing.T) {
	// ']' as first member is a literal.
	p := mustParse(t, "[]a]")
	if !p.Root.Class.Contains(']') || !p.Root.Class.Contains('a') {
		t.Error("[]a] should contain ']' and 'a'")
	}
	// '-' at end is a literal.
	p = mustParse(t, "[a-]")
	if !p.Root.Class.Contains('-') {
		t.Error("[a-] should contain '-'")
	}
	// Shorthand inside class.
	p = mustParse(t, `[\d_]`)
	if p.Root.Class.Count() != 11 {
		t.Errorf(`[\d_] should have 11 members, got %d`, p.Root.Class.Count())
	}
}

func TestParseEscapes(t *testing.T) {
	tests := []struct {
		src  string
		want byte
	}{
		{`\n`, '\n'}, {`\t`, '\t'}, {`\r`, '\r'}, {`\f`, '\f'},
		{`\v`, '\v'}, {`\a`, 7}, {`\e`, 0x1b}, {`\0`, 0},
		{`\x41`, 'A'}, {`\xff`, 0xff}, {`\.`, '.'}, {`\*`, '*'},
		{`\\`, '\\'}, {`\[`, '['}, {`\/`, '/'},
	}
	for _, tt := range tests {
		p := mustParse(t, tt.src)
		c, ok := p.Root.Class.SingleByte()
		if !ok || c != tt.want {
			t.Errorf("%q: want byte %#x, got %#x (ok=%v)", tt.src, tt.want, c, ok)
		}
	}
}

func TestParseAlternationAndGroups(t *testing.T) {
	p := mustParse(t, "abc|def|ghi")
	if p.Root.Op != OpAlternate || len(p.Root.Subs) != 3 {
		t.Fatalf("want 3-way alternate, got %v/%d", p.Root.Op, len(p.Root.Subs))
	}
	p = mustParse(t, "a(b|c)d")
	if p.Root.Op != OpConcat || len(p.Root.Subs) != 3 {
		t.Fatalf("want 3-part concat, got %v/%d", p.Root.Op, len(p.Root.Subs))
	}
	if p.Root.Subs[1].Op != OpAlternate {
		t.Errorf("middle should be alternate, got %v", p.Root.Subs[1].Op)
	}
	// Non-capturing group syntax.
	if _, err := Parse("a(?:b|c)d"); err != nil {
		t.Errorf("(?:...) should parse: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"(", ")", "(a", "a)", "*a", "+", "?x", "[", "[a", "[z-a]", `\`, `\x4`, `\xzz`, "[^\x00-\xff]", "a{5,2}"}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseUnsupported(t *testing.T) {
	unsupported := []string{"a$", "a^b", `a\bword`, `(a)\1`, "(?=x)a", "(?<name>a)", "a{1001}", "a{2,9999}"}
	for _, src := range unsupported {
		_, err := Parse(src)
		if !errors.Is(err, ErrUnsupported) {
			t.Errorf("Parse(%q): want ErrUnsupported, got %v", src, err)
		}
	}
}

func TestParsePCRESlashed(t *testing.T) {
	p, err := ParsePCRE(`/abc/i`)
	if err != nil {
		t.Fatal(err)
	}
	if !p.CaseInsensitive {
		t.Error("/abc/i should be case-insensitive")
	}
	cl := p.Root.Subs[0].Class
	if !cl.Contains('a') || !cl.Contains('A') {
		t.Error("case folding should include both cases")
	}
	if _, err := ParsePCRE(`/a\/b/`); err != nil {
		t.Errorf(`escaped slash in body: %v`, err)
	}
	if _, err := ParsePCRE(`/abc/q`); !errors.Is(err, ErrUnsupported) {
		t.Errorf("unknown flag should be ErrUnsupported, got %v", err)
	}
	// Bare pattern through ParsePCRE.
	if p, err := ParsePCRE("xyz"); err != nil || p.Root.Op != OpConcat {
		t.Errorf("bare pattern via ParsePCRE: %v", err)
	}
}

func TestCaseFoldClasses(t *testing.T) {
	p, err := ParsePCRE(`/[a-c]x/i`)
	if err != nil {
		t.Fatal(err)
	}
	cl := p.Root.Subs[0].Class
	for _, c := range []byte("abcABC") {
		if !cl.Contains(c) {
			t.Errorf("folded [a-c] missing %q", c)
		}
	}
	for c := range AlphabetSize {
		want := SingleClass(byte(c))
		if other := byte(c) ^ 0x20; other|0x20 >= 'a' && other|0x20 <= 'z' {
			want.Add(other)
		}
		if got := SingleClass(byte(c)).FoldCase(); got != want {
			t.Errorf("%q folds to %v, want %v", c, got, want)
		}
	}
}

func TestSyntaxErrorFields(t *testing.T) {
	_, err := Parse("ab(")
	var serr *SyntaxError
	if !errors.As(err, &serr) {
		t.Fatalf("want *SyntaxError, got %T", err)
	}
	if serr.Pattern != "ab(" {
		t.Errorf("Pattern = %q", serr.Pattern)
	}
	if !strings.Contains(serr.Error(), "offset") {
		t.Errorf("Error() should mention offset: %s", serr.Error())
	}
}

func TestMatchesEmpty(t *testing.T) {
	tests := []struct {
		src  string
		want bool
	}{
		{"", true}, {"a", false}, {"a*", true}, {"a+", false},
		{"a?", true}, {"a{0,3}", true}, {"a{1,3}", false},
		{"ab", false}, {"a*b*", true}, {"a|", true}, {"a|b", false},
		{"(a*)+", true},
	}
	for _, tt := range tests {
		p := mustParse(t, tt.src)
		if got := p.Root.MatchesEmpty(); got != tt.want {
			t.Errorf("MatchesEmpty(%q) = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	// String() output must reparse to an AST with identical rendering.
	sources := []string{
		"abc", ".*abc.*def", "a|b|c", "(ab|cd)*x", "[a-f]{2,5}",
		`[^\n]*`, "a+b?c*", `\x00\xff`, "vi.*emacs|bsd.*gnu|abc.*mm?o.*xyz",
		"(a*)*", "x{3}", "x{3,}", "[-a]", "[]x]",
	}
	for _, src := range sources {
		p1 := mustParse(t, src)
		rendered := p1.String()
		p2, err := Parse(rendered)
		if err != nil {
			t.Errorf("reparse of %q (from %q) failed: %v", rendered, src, err)
			continue
		}
		if p2.String() != rendered {
			t.Errorf("round-trip not stable: %q -> %q -> %q", src, rendered, p2.String())
		}
	}
}

func TestClassOps(t *testing.T) {
	a := RangeClass('a', 'm')
	b := RangeClass('h', 'z')
	if got := a.Union(b).Count(); got != 26 {
		t.Errorf("union count = %d, want 26", got)
	}
	if got := a.Intersect(b).Count(); got != 6 {
		t.Errorf("intersect count = %d, want 6", got)
	}
	if got := a.Minus(b).Count(); got != 7 {
		t.Errorf("minus count = %d, want 7", got)
	}
	if !a.Negate().Negate().Equal(a) {
		t.Error("double negation should be identity")
	}
	var empty Class
	if !empty.IsEmpty() || empty.Count() != 0 {
		t.Error("zero value should be empty")
	}
	if AnyClass().Count() != AlphabetSize {
		t.Error("AnyClass should be full")
	}
}

func TestClassBytesSorted(t *testing.T) {
	cl := StringClass("zebra")
	bs := cl.Bytes()
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			t.Fatalf("Bytes() not strictly ascending: %v", bs)
		}
	}
	if len(bs) != 5 { // z e b r a
		t.Fatalf("want 5 distinct bytes, got %d", len(bs))
	}
}

func TestClassPropertyQuick(t *testing.T) {
	// De Morgan: ^(A ∪ B) == ^A ∩ ^B, and count(A)+count(^A) == 256.
	f := func(aw, bw [4]uint64) bool {
		a, b := Class(aw), Class(bw)
		if !a.Union(b).Negate().Equal(a.Negate().Intersect(b.Negate())) {
			return false
		}
		return a.Count()+a.Negate().Count() == AlphabetSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClassContainsMatchesBytes(t *testing.T) {
	f := func(w [4]uint64) bool {
		cl := Class(w)
		want := make(map[byte]bool, cl.Count())
		for _, b := range cl.Bytes() {
			want[b] = true
		}
		for c := 0; c < AlphabetSize; c++ {
			if cl.Contains(byte(c)) != want[byte(c)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShorthandClasses(t *testing.T) {
	tests := []struct {
		src    string
		count  int
		member byte
		non    byte
	}{
		{`\d`, 10, '7', 'a'},
		{`\D`, 246, 'a', '7'},
		{`\w`, 63, '_', '-'},
		{`\W`, 193, '-', '_'},
		{`\s`, 6, ' ', 'x'},
		{`\S`, 250, 'x', ' '},
	}
	for _, tt := range tests {
		p := mustParse(t, tt.src)
		cl := p.Root.Class
		if cl.Count() != tt.count {
			t.Errorf("%s: count %d, want %d", tt.src, cl.Count(), tt.count)
		}
		if !cl.Contains(tt.member) || cl.Contains(tt.non) {
			t.Errorf("%s: membership wrong", tt.src)
		}
	}
}

func TestClassRemove(t *testing.T) {
	cl := StringClass("abc")
	cl.Remove('b')
	if cl.Contains('b') || !cl.Contains('a') || cl.Count() != 2 {
		t.Errorf("Remove: %v", cl.Bytes())
	}
}

func TestNewLiteralNode(t *testing.T) {
	if NewLiteralNode("").Op != OpEmpty {
		t.Error("empty literal should be OpEmpty")
	}
	n := NewLiteralNode("x")
	if n.Op != OpClass {
		t.Error("single-byte literal should be a class")
	}
	n = NewLiteralNode("abc")
	if n.Op != OpConcat || len(n.Subs) != 3 || n.String() != "abc" {
		t.Errorf("literal node: %v", n.String())
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{
		OpEmpty: "Empty", OpClass: "Class", OpConcat: "Concat",
		OpAlternate: "Alternate", OpStar: "Star", OpPlus: "Plus",
		OpQuest: "Quest", OpRepeat: "Repeat", Op(42): "Op(42)",
	} {
		if op.String() != want {
			t.Errorf("Op(%d).String() = %q", int(op), op.String())
		}
	}
}

func TestClassStringRoundTrip(t *testing.T) {
	// Class rendering must reparse to the same set, across negation,
	// ranges and control characters.
	classes := []Class{
		SingleClass('a'),
		SingleClass('\n'),
		SingleClass(0x00),
		RangeClass('a', 'z'),
		RangeClass('a', 'z').Negate(),
		StringClass("]^-\\"),
		AnyClass(),
	}
	for _, cl := range classes {
		src := cl.String()
		p, err := Parse(src)
		if err != nil {
			t.Errorf("class %q does not reparse: %v", src, err)
			continue
		}
		if p.Root.Op != OpClass || !p.Root.Class.Equal(cl) {
			t.Errorf("class %q round-trip mismatch", src)
		}
	}
}

func TestPatternString(t *testing.T) {
	p := mustParse(t, "^abc.*def")
	if p.String() != "^abc.*def" {
		t.Errorf("Pattern.String() = %q", p.String())
	}
}

func TestParseRepeatBoundary(t *testing.T) {
	// MaxRepeatCount itself is accepted on both bounds; one past it is
	// rejected (covered by TestParseUnsupported). The boundary matters:
	// counter-register rules (DESIGN.md §19) use windows far above the
	// old 255-expansion comfort zone.
	for _, src := range []string{"a{1000}", "a{1000,}", "a{2,1000}", "a{1000,1000}"} {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q) should accept counts up to MaxRepeatCount: %v", src, err)
		}
	}
	p := mustParse(t, "a{1000,1000}")
	if p.Root.Min != MaxRepeatCount || p.Root.Max != MaxRepeatCount {
		t.Errorf("a{1000,1000}: got min=%d max=%d", p.Root.Min, p.Root.Max)
	}
}

func TestBoundedGap(t *testing.T) {
	tests := []struct {
		src              string
		minGap, maxGap   int
		full, ok         bool
		negatedHasByte   byte
		negatedByteCount int
	}{
		{src: ".{3,7}", minGap: 3, maxGap: 7, full: true, ok: true},
		{src: ".{0,40}", minGap: 0, maxGap: 40, full: true, ok: true},
		{src: `[^\n]{2,9}`, minGap: 2, maxGap: 9, ok: true, negatedHasByte: '\n', negatedByteCount: 1},
		{src: "[^ab]{1,4}", minGap: 1, maxGap: 4, ok: true, negatedHasByte: 'b', negatedByteCount: 2},
		// A repeat of the 1-byte class {a} qualifies too: a bounded gap
		// over X = ¬{a} with 255 forbidden bytes.
		{src: "a{3,7}", minGap: 3, maxGap: 7, ok: true, negatedHasByte: 'b', negatedByteCount: 255},
		{src: ".{3,}"}, // unbounded: counting gap, not a bounded gap
		{src: ".*"},
		{src: "(ab){2,4}"}, // multi-byte sub: not a single-class gap
	}
	for _, tt := range tests {
		p := mustParse(t, tt.src)
		minGap, maxGap, negated, full, ok := p.Root.BoundedGap()
		if ok != tt.ok {
			t.Errorf("%q: BoundedGap ok=%v, want %v", tt.src, ok, tt.ok)
			continue
		}
		if !tt.ok {
			continue
		}
		if minGap != tt.minGap || maxGap != tt.maxGap || full != tt.full {
			t.Errorf("%q: got (%d,%d,full=%v), want (%d,%d,full=%v)",
				tt.src, minGap, maxGap, full, tt.minGap, tt.maxGap, tt.full)
		}
		if tt.negatedByteCount > 0 {
			if !negated.Contains(tt.negatedHasByte) || negated.Count() != tt.negatedByteCount {
				t.Errorf("%q: negated class wrong: has(%q)=%v count=%d",
					tt.src, tt.negatedHasByte, negated.Contains(tt.negatedHasByte), negated.Count())
			}
		}
	}
}
