package hfa

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"matchfilter/internal/dfa"
	"matchfilter/internal/filter"
	"matchfilter/internal/nfa"
	"matchfilter/internal/regexparse"
	"matchfilter/internal/splitter"
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

func sorted(evs []event) []event {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].pos != evs[j].pos {
			return evs[i].pos < evs[j].pos
		}
		return evs[i].id < evs[j].id
	})
	return evs
}

func assertEquivalent(t *testing.T, sources []string, inputs [][]byte) {
	t.Helper()
	rules := mustRules(t, sources...)
	h, err := Compile(rules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gt := groundTruth(t, rules)
	for _, input := range inputs {
		var got, want []event
		for _, ev := range h.Run(input) {
			got = append(got, event{ev.RuleID, ev.Pos})
		}
		for _, ev := range gt.Run(input) {
			want = append(want, event{ev.ID, ev.Pos})
		}
		got, want = sorted(got), sorted(want)
		if len(got) != len(want) {
			t.Fatalf("rules %v input %q:\nHFA   %v\ntruth %v", sources, input, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("rules %v input %q:\nHFA   %v\ntruth %v", sources, input, got, want)
			}
		}
	}
}

func TestEquivalenceFixed(t *testing.T) {
	assertEquivalent(t,
		[]string{"vi.*emacs", "bsd.*gnu", "abc.*mm?o.*xyz"},
		[][]byte{
			[]byte("vi.emacs.gnu.bsd.gnu.abc.mo.xyz"),
			[]byte("emacs vi"),
			[]byte("vi emacs vi emacs"),
			[]byte(strings.Repeat("bsd gnu ", 10)),
		})
}

func TestEquivalenceAlmostDotStarKeptWhole(t *testing.T) {
	// HFA does not decompose [^X]* gaps; correctness must hold anyway.
	assertEquivalent(t,
		[]string{`foo[^\n]*bar`, "alpha.*omega"},
		[][]byte{
			[]byte("foo bar"),
			[]byte("foo\nbar"),
			[]byte("alpha foo omega bar"),
			[]byte("foo foo\nbar bar"),
		})
}

func TestEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	words := []string{"ab", "cde", "fgh", "xyz", "qq"}
	gaps := []string{".*", "[^\\n]*"}
	for trial := 0; trial < 25; trial++ {
		var sources []string
		for ri := 0; ri < 1+rng.Intn(3); ri++ {
			var sb strings.Builder
			for si := 0; si < 1+rng.Intn(3); si++ {
				if si > 0 {
					sb.WriteString(gaps[rng.Intn(len(gaps))])
				}
				sb.WriteString(words[rng.Intn(len(words))])
			}
			sources = append(sources, sb.String())
		}
		var inputs [][]byte
		for ii := 0; ii < 4; ii++ {
			var sb strings.Builder
			for sb.Len() < 10+rng.Intn(80) {
				switch rng.Intn(4) {
				case 0:
					sb.WriteString(words[rng.Intn(len(words))])
				case 1:
					sb.WriteByte('\n')
				default:
					sb.WriteByte("abcdefghqxyz "[rng.Intn(13)])
				}
			}
			inputs = append(inputs, []byte(sb.String()))
		}
		assertEquivalent(t, sources, inputs)
	}
}

// TestUnsupportedActionIsAnError: an action carrying an operand a history
// cell has no field for must fail compilation, not lose the operand —
// dropping GapReg from qq.*xyz.*xyz's tail confirmed {1 4} on "dyxyzaqqqg"
// against truth [] when the splitter's default began to emit it.
func TestUnsupportedActionIsAnError(t *testing.T) {
	none := filter.Action{Test: filter.NoBit, Set: filter.NoBit, Clear: filter.NoBit}
	for name, mutate := range map[string]func(*filter.Action){
		"SetPos":     func(a *filter.Action) { a.SetPos = 1 },
		"GapReg":     func(a *filter.Action) { a.GapReg, a.MinGap = 1, 3 },
		"SetCtr":     func(a *filter.Action) { a.SetCtr = 1 },
		"TestCtr":    func(a *filter.Action) { a.TestCtr = 1 },
		"ResetCtr":   func(a *filter.Action) { a.ResetCtr = 1 },
		"ClearGroup": func(a *filter.Action) { a.ClearGroup = 1 },
	} {
		a := none
		mutate(&a)
		var unsupported *filter.UnsupportedActionError
		if err := checkAction(7, a); !errors.As(err, &unsupported) || unsupported.ID != 7 {
			t.Errorf("%s: want UnsupportedActionError for id 7, got %v", name, err)
		}
	}
	if err := checkAction(7, filter.Action{Test: 0, Set: 1, Clear: filter.NoBit, Report: 3}); err != nil {
		t.Errorf("bit action refused: %v", err)
	}
	// What the splitter emits with registers, counters or clear groups: some
	// action of each rule must be the error.
	for _, tc := range []struct {
		rule  string
		split splitter.Options
	}{
		{"qq.*xyz.*xyz", splitter.Options{}},
		{"aa.{3,}bb", splitter.Options{}},
		{"aa.{2,20}bb", splitter.Options{}},
		{`abc[^\n]*xyz`, splitter.Options{Construction: splitter.Paper}},
	} {
		srules := []splitter.Rule{{Pattern: mustRules(t, tc.rule)[0].Pattern, RuleID: 1}}
		res, err := splitter.Split(srules, tc.split)
		if err != nil {
			t.Fatal(err)
		}
		refused := 0
		for id, a := range res.Actions[1:] {
			var unsupported *filter.UnsupportedActionError
			if err := checkAction(int32(id+1), a); errors.As(err, &unsupported) {
				refused++
			}
		}
		if refused == 0 {
			t.Errorf("%s under %+v: no action refused: %v", tc.rule, tc.split, res.Actions[1:])
		}
	}
}

func TestImageLargerThanDFAEquivalent(t *testing.T) {
	// The HFA cell table is 4x a flat DFA table of the same state count.
	rules := mustRules(t, "alpha.*omega", "foo.*bar")
	h, err := Compile(rules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if h.MemoryImageBytes() < h.NumStates()*256*16 {
		t.Errorf("image %d below cell-table floor", h.MemoryImageBytes())
	}
}

func TestStreamingRunner(t *testing.T) {
	rules := mustRules(t, "needle.*haystack")
	h, err := Compile(rules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := h.NewRunner()
	var got []event
	r.Feed([]byte("need"), func(id int32, pos int64) { got = append(got, event{id, pos}) })
	r.Feed([]byte("le hays"), func(id int32, pos int64) { got = append(got, event{id, pos}) })
	r.Feed([]byte("tack"), func(id int32, pos int64) { got = append(got, event{id, pos}) })
	if len(got) != 1 || got[0].pos != 14 {
		t.Fatalf("streaming: %v", got)
	}
	if r.Pos() != 15 {
		t.Errorf("Pos = %d", r.Pos())
	}
	r.Reset()
	if c := r.FeedCount([]byte("needle haystack")); c != 1 {
		t.Errorf("FeedCount = %d", c)
	}
}

func TestMultiMatchOverflowCells(t *testing.T) {
	// Rules engineered so one state reports several ids at once.
	assertEquivalent(t,
		[]string{"abc", "bc", "c"},
		[][]byte{[]byte("abc"), []byte("xbc"), []byte("ccc")})
	rules := mustRules(t, "abc", "bc", "c")
	h, err := Compile(rules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if h.Stats().OverflowLen == 0 {
		t.Error("expected overflow cells for coinciding matches")
	}
}
