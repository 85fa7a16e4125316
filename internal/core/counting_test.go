package core

// Tests for the counting-condition extension (§VI future work): gaps of
// the form .{n,} decomposed via filter position registers, part of the
// default construction. The ground truth is the undecomposed DFA, which
// handles .{n,} by bounded repeat expansion — so exact stream equivalence
// is checkable.

import (
	"math/rand"
	"strings"
	"testing"

	"matchfilter/internal/splitter"
)

// paperConditions builds without the steps beyond the paper: .{n,} and
// X{n,m} gaps stay in their rules, for the DFA to expand.
var paperConditions = Options{Splitter: splitter.Options{Construction: splitter.Paper}}

func TestCountingGapSplit(t *testing.T) {
	m, err := Compile(mustRules(t, "aa.{3,}bb"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Split.CountingSplits != 1 {
		t.Fatalf("stats: %+v", st.Split)
	}
	if st.PosRegs != 1 {
		t.Fatalf("PosRegs = %d", st.PosRegs)
	}
	if st.NumFragments != 2 {
		t.Fatalf("fragments = %d", st.NumFragments)
	}
	// The decomposed automaton is far smaller than the expanded one.
	plain, err := Compile(mustRules(t, "aa.{10,}bb"), paperConditions)
	if err != nil {
		t.Fatal(err)
	}
	counted, err := Compile(mustRules(t, "aa.{10,}bb"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if counted.Stats().DFAStates*4 > plain.Stats().DFAStates {
		t.Errorf("counting should shrink the automaton: %d vs %d",
			counted.Stats().DFAStates, plain.Stats().DFAStates)
	}
}

func TestCountingGapSemantics(t *testing.T) {
	// aa.{3,}bb: at least 3 bytes strictly between aa and bb.
	m, err := Compile(mustRules(t, "aa.{3,}bb"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for input, want := range map[string]int{
		"aabb":       0, // gap 0
		"aa.bb":      0, // gap 1
		"aa..bb":     0, // gap 2
		"aa...bb":    1, // gap 3: first qualifying match
		"aa....bb":   1,
		"aa...bb bb": 2, // both bb qualify
		"bb aa...bb": 1, // early bb dropped
		"aaa..bb":    1, // second aa-match end makes the gap exactly 3
	} {
		if got := m.Run([]byte(input)); len(got) != want {
			t.Errorf("%q: %d matches, want %d (%v)", input, len(got), want, got)
		}
	}
}

func TestCountingEquivalenceFixed(t *testing.T) {
	assertEquivalent(t,
		[]string{"aa.{3,}bb"},
		[][]byte{
			[]byte("aabb"), []byte("aa.bb"), []byte("aa..bb"), []byte("aa...bb"),
			[]byte("aa.......bb"), []byte("bb...aa"), []byte("aa aa bb bb"),
			[]byte("aaxbbyaa...bb"), []byte(strings.Repeat("aa.bb.", 10)),
			[]byte("aaa..bb"), []byte("aaaa.bb"),
		})
	// Earliest-witness property: a later closer A must not mask an
	// earlier qualifying one.
	assertEquivalent(t,
		[]string{"xy.{5,}zw"},
		[][]byte{
			[]byte("xy......xyzw"), // first xy qualifies, second does not
			[]byte("xyxy......zw"), // both qualify
			[]byte("xyzw......xy"), // nothing after the gap
		})
}

func TestCountingChainWithDotStar(t *testing.T) {
	// Mixed chain: dot-star guard followed by a counting gap and vice
	// versa.
	assertEquivalent(t,
		[]string{"hd.*aa.{4,}bb"},
		[][]byte{
			[]byte("hd aa....bb"),
			[]byte("aa....bb hd"),      // hd after: no match
			[]byte("hd aabb"),          // gap too small
			[]byte("aa hd aa....bb"),   // early aa before hd is not a witness
			[]byte("hd..aa..aa....bb"), // two aa candidates
		})
	assertEquivalent(t,
		[]string{"aa.{4,}bb.*tl"},
		[][]byte{
			[]byte("aa....bb tl"),
			[]byte("aa....tl bb"),
			[]byte("aabb....tl"),
			[]byte("aa....bb aa tl"),
		})
}

func TestCountingDoubleGap(t *testing.T) {
	assertEquivalent(t,
		[]string{"aa.{2,}bb.{3,}cc"},
		[][]byte{
			[]byte("aa..bb...cc"),
			[]byte("aa..bb..cc"), // second gap too small
			[]byte("aa.bb...cc"), // first gap too small
			[]byte("bb aa..bb...cc"),
			[]byte("aa..bbbb...cc"), // later bb also a witness
			[]byte("cc aa..bb...cc cc"),
		})
}

func TestCountingVariableLengthRefused(t *testing.T) {
	// B = b+ has variable length: the gap arithmetic is undefined, so the
	// split must be refused and the rule compiled whole (still correct).
	m, err := Compile(mustRules(t, "aa.{3,}b+c"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Split.CountingSplits != 0 || st.Split.RefusedVarLength != 1 {
		t.Fatalf("stats: %+v", st.Split)
	}
	assertEquivalent(t,
		[]string{"aa.{3,}b+c"},
		[][]byte{
			[]byte("aa...bc"), []byte("aa...bbbbc"), []byte("aa.bc"),
			[]byte("aabbbc"), []byte("aa....bbc"),
		})
}

func TestCountingOnByDefault(t *testing.T) {
	m := compileMFA(t, Options{}, "aa.{3,}bb")
	if st := m.Stats(); st.Split.CountingSplits != 1 || st.PosRegs != 1 {
		t.Fatalf("the default construction must count: %+v", st.Split)
	}
	m = compileMFA(t, paperConditions, "aa.{3,}bb")
	if st := m.Stats(); st.Split.CountingSplits != 0 || st.PosRegs != 0 {
		t.Fatalf("the paper's conditions must expand: %+v", st.Split)
	}
}

func TestCountingLeadingGapNotTrimmed(t *testing.T) {
	// .{5,}bb requires bb to end at offset >= 6; a leading counting gap
	// must not be trimmed like a leading .*.
	assertEquivalent(t,
		[]string{".{5,}bb"},
		[][]byte{
			[]byte("bb"), []byte("...bb"), []byte(".....bb"), []byte("....bb"),
			[]byte("bbbbbbbb"),
		})
}

func TestCountingContextRoundTrip(t *testing.T) {
	// Registers are part of the flow context: save/restore must preserve
	// the recorded position.
	m, err := Compile(mustRules(t, "aa.{3,}bb"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := m.NewRunner()
	var got []event
	collect := func(id int32, pos int64) { got = append(got, event{id, pos}) }
	r.Feed([]byte("aa.."), collect)
	state, mem, regs, ctrs := r.Context()
	pos := r.Pos()

	r.Reset()
	r.Feed([]byte(".bb"), collect)
	if len(got) != 0 {
		t.Fatalf("fresh flow must not match: %v", got)
	}
	if err := r.SetContext(state, mem, regs, ctrs, pos); err != nil {
		t.Fatal(err)
	}
	r.Feed([]byte(".bb"), collect)
	if len(got) != 1 || got[0].pos != 6 {
		t.Fatalf("restored flow: %v", got)
	}
}

func TestCountingEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	words := []string{"aa", "bb", "cc", "xy"}
	gaps := []string{".*", ".{2,}", ".{4,}", "[^\\n]*"}
	for trial := 0; trial < 40; trial++ {
		var sb strings.Builder
		numSegs := 2 + rng.Intn(2)
		for si := 0; si < numSegs; si++ {
			if si > 0 {
				sb.WriteString(gaps[rng.Intn(len(gaps))])
			}
			sb.WriteString(words[rng.Intn(len(words))])
		}
		source := sb.String()

		var inputs [][]byte
		for ii := 0; ii < 8; ii++ {
			var in strings.Builder
			for in.Len() < 10+rng.Intn(60) {
				switch rng.Intn(4) {
				case 0:
					in.WriteString(words[rng.Intn(len(words))])
				case 1:
					in.WriteByte('.')
				case 2:
					in.WriteByte('\n')
				default:
					in.WriteString("..")
				}
			}
			inputs = append(inputs, []byte(in.String()))
		}
		assertEquivalent(t, []string{source}, inputs)
	}
}
