package matchfilter

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"matchfilter/internal/patterns"
)

func TestCompileAndScan(t *testing.T) {
	e, err := Compile([]string{"attack.*payload", "benign"})
	if err != nil {
		t.Fatal(err)
	}
	got := e.Scan([]byte("an attack with a payload, benign too"))
	if len(got) != 2 {
		t.Fatalf("matches: %v", got)
	}
	if got[0].Pattern != 0 || got[1].Pattern != 1 {
		t.Fatalf("pattern indices: %v", got)
	}
	if e.NumPatterns() != 2 || e.Pattern(0) != "attack.*payload" {
		t.Error("pattern accessors")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile(nil); err == nil {
		t.Error("empty pattern list must fail")
	}
	if _, err := Compile([]string{"a("}); err == nil {
		t.Error("syntax error must fail")
	}
	_, err := Compile([]string{`a\bword`})
	if !errors.Is(err, ErrUnsupported) {
		t.Errorf("want ErrUnsupported, got %v", err)
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile should panic on bad pattern")
		}
	}()
	MustCompile([]string{"("})
}

func TestSlashedCaseInsensitive(t *testing.T) {
	e := MustCompile([]string{`/^get[^\n]*passwd/i`})
	if got := e.Scan([]byte("GET /etc/PASSWD HTTP/1.1\n")); len(got) != 1 {
		t.Fatalf("matches: %v", got)
	}
	if got := e.Scan([]byte("POST GET\npasswd")); len(got) != 0 {
		t.Fatalf("anchored+line-bounded should not match: %v", got)
	}
}

func TestStreamAcrossWrites(t *testing.T) {
	e := MustCompile([]string{"needle.*haystack"})
	var got []Match
	s := e.NewStream(func(m Match) { got = append(got, m) })

	var w io.Writer = s // Stream is an io.Writer
	for _, chunk := range []string{"nee", "dle and then a hay", "stack"} {
		if _, err := io.WriteString(w, chunk); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 1 {
		t.Fatalf("matches: %v", got)
	}
	if got[0].End != 25 || s.Pos() != 26 {
		t.Errorf("End=%d Pos=%d", got[0].End, s.Pos())
	}

	s.Reset()
	got = nil
	io.WriteString(s, "haystack") //nolint:errcheck // Write never fails
	if len(got) != 0 {
		t.Fatalf("fresh flow must not match: %v", got)
	}
}

func TestStreamNilHandler(t *testing.T) {
	e := MustCompile([]string{"abc"})
	s := e.NewStream(nil)
	if _, err := s.Write([]byte("abcabc")); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	e := MustCompile([]string{"aa.*bb", "plain"})
	st := e.Stats()
	if st.Patterns != 2 || st.Fragments != 3 || st.Decomposed != 1 {
		t.Errorf("stats: %+v", st)
	}
	if st.DFAStates <= 0 || st.MemoryBits != 1 || st.ImageBytes <= 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestWithoutDecomposition(t *testing.T) {
	pats := []string{"aa.*bb", "cc.*dd", "ee.*ff"}
	dec := MustCompile(pats)
	plain := MustCompile(pats, WithoutDecomposition())
	if dec.Stats().DFAStates >= plain.Stats().DFAStates {
		t.Errorf("decomposition should shrink the DFA: %d vs %d",
			dec.Stats().DFAStates, plain.Stats().DFAStates)
	}
	// Same matches either way.
	input := []byte("aa x bb cc y dd ff ee")
	a, b := dec.Scan(input), plain.Scan(input)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("results diverge: %v vs %v", a, b)
	}
}

func TestWithMaxStates(t *testing.T) {
	var pats []string
	for i := 0; i < 10; i++ {
		// An overlapping x and a variable-length tail block decomposition,
		// forcing explosion.
		pats = append(pats, fmt.Sprintf("ov%dx.*x+ov%d", i, i))
	}
	_, err := Compile(pats, WithMaxStates(50))
	if !errors.Is(err, ErrTooManyStates) {
		t.Fatalf("want ErrTooManyStates, got %v", err)
	}
}

func TestWithMinimization(t *testing.T) {
	pats := []string{"ab|ac|ad"}
	min := MustCompile(pats, WithMinimization())
	raw := MustCompile(pats)
	if min.Stats().DFAStates > raw.Stats().DFAStates {
		t.Error("minimization must not grow the DFA")
	}
	input := []byte("ab ac ad ae")
	if fmt.Sprint(min.Scan(input)) != fmt.Sprint(raw.Scan(input)) {
		t.Error("minimization changed semantics")
	}
}

func TestWithClassSizeThreshold(t *testing.T) {
	// [bq]* has X = 254 bytes (everything but b and q); the fixed threshold
	// of 128 refuses it, and the deprecated option no longer raises it. The
	// segments are chosen so every other safety condition passes: B uses
	// only gap-class bytes and A ends in one.
	for _, opts := range [][]Option{nil, {WithClassSizeThreshold(255)}} {
		if st := MustCompile([]string{"zq[bq]*bq"}, opts...).Stats(); st.Decomposed != 0 {
			t.Errorf("the threshold should refuse: %+v", st)
		}
	}
}

// TestDeprecatedOptionsAreNoOps: each option the default construction made
// meaningless compiles a Save image byte-identical to no option at all, on
// patterns it used to change.
func TestDeprecatedOptionsAreNoOps(t *testing.T) {
	pats := []string{"zq[bq]*bq", "hdr.{5,}tail", "aaa.{60,200}bbb", `ab[^\n]{0,9}cd`, "attack.*payload"}
	image := func(opts ...Option) []byte {
		var buf bytes.Buffer
		if err := MustCompile(pats, opts...).Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := image()
	for name, opt := range map[string]Option{
		"WithClassSizeThreshold(255)": WithClassSizeThreshold(255),
		"WithCountingGaps":            WithCountingGaps(),
		"WithBoundedRepeatCounters":   WithBoundedRepeatCounters(),
	} {
		if !bytes.Equal(image(opt), want) {
			t.Errorf("%s changed the compiled image", name)
		}
	}
}

func TestConcurrentStreams(t *testing.T) {
	// One engine, many flows: contexts must not interfere.
	e := MustCompile([]string{"xx.*yy"})
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- true }()
			var n int
			s := e.NewStream(func(Match) { n++ })
			for i := 0; i < 100; i++ {
				io.WriteString(s, "xx ") //nolint:errcheck
				io.WriteString(s, "yy ") //nolint:errcheck
			}
			if n == 0 {
				t.Errorf("goroutine %d: no matches", g)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

func TestReadmeExample(t *testing.T) {
	engine := MustCompile([]string{
		`attack.*payload`,
		`/^GET[^\n]*passwd/i`,
	})
	var hits []string
	for _, m := range engine.Scan([]byte("GET /etc/passwd attack -> payload")) {
		hits = append(hits, engine.Pattern(m.Pattern))
	}
	if len(hits) != 2 {
		t.Fatalf("hits: %v", hits)
	}
	if !strings.Contains(hits[0], "GET") && !strings.Contains(hits[1], "GET") {
		t.Errorf("hits: %v", hits)
	}
}

func TestWithBoundedRepeatCounters(t *testing.T) {
	// The wide window is uncompilable by expansion under this state
	// budget; the counters Compile uses by default compile it and match
	// exactly.
	src := []string{"aaa.{60,200}bbb"}
	if _, err := Compile(src, WithMaxStates(2000), WithoutDecomposition()); !errors.Is(err, ErrTooManyStates) {
		t.Fatalf("expanded build: want ErrTooManyStates, got %v", err)
	}
	e, err := Compile(src, WithMaxStates(2000))
	if err != nil {
		t.Fatal(err)
	}
	hit := "aaa" + strings.Repeat("x", 60) + "bbb"
	if got := e.Scan([]byte(hit)); len(got) != 1 {
		t.Fatalf("in-window input: %v", got)
	}
	miss := "aaa" + strings.Repeat("x", 201) + "bbb"
	if got := e.Scan([]byte(miss)); len(got) != 0 {
		t.Fatalf("out-of-window input: %v", got)
	}
}

// TestCompileCTR24Default: the CTR24 set, whose expanded DFA exceeds the
// default state budget, compiles with no option at all.
func TestCompileCTR24Default(t *testing.T) {
	sources, err := patterns.Sources("CTR24")
	if err != nil {
		t.Fatal(err)
	}
	e, err := Compile(sources)
	if err != nil {
		t.Fatalf("CTR24 with default options: %v", err)
	}
	if st := e.Stats(); st.Decomposed != st.Patterns {
		t.Errorf("every CTR24 rule should decompose: %+v", st)
	}
}
