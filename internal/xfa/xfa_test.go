package xfa

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
	x, err := Compile(rules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gt := groundTruth(t, rules)
	for _, input := range inputs {
		var got, want []event
		for _, ev := range x.Run(input) {
			got = append(got, event{ev.RuleID, ev.Pos})
		}
		for _, ev := range gt.Run(input) {
			want = append(want, event{ev.ID, ev.Pos})
		}
		got, want = sorted(got), sorted(want)
		if len(got) != len(want) {
			t.Fatalf("rules %v input %q:\nXFA   %v\ntruth %v", sources, input, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("rules %v input %q:\nXFA   %v\ntruth %v", sources, input, got, want)
			}
		}
	}
}

func TestEquivalenceFixed(t *testing.T) {
	assertEquivalent(t,
		[]string{"vi.*emacs", "bsd.*gnu", "abc.*mm?o.*xyz", `foo[^\n]*bar`},
		[][]byte{
			[]byte("vi.emacs.gnu.bsd.gnu.abc.mo.xyz"),
			[]byte("foo bar"),
			[]byte("foo\nbar foo bar"),
			[]byte(strings.Repeat("vi emacs ", 10)),
		})
}

func TestEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	words := []string{"ab", "cde", "fgh", "xyz", "qq", "rst"}
	gaps := []string{".*", "[^\\n]*", "[^#]*"}
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
			for sb.Len() < 10+rng.Intn(100) {
				switch rng.Intn(5) {
				case 0:
					sb.WriteString(words[rng.Intn(len(words))])
				case 1:
					sb.WriteByte('\n')
				case 2:
					sb.WriteByte('#')
				default:
					sb.WriteByte("abcdefghqrstxyz "[rng.Intn(16)])
				}
			}
			inputs = append(inputs, []byte(sb.String()))
		}
		assertEquivalent(t, sources, inputs)
	}
}

func TestCompileActionLowering(t *testing.T) {
	tests := []struct {
		a    filter.Action
		want []Opcode
	}{
		{filter.Action{Test: filter.NoBit, Set: 3, Clear: filter.NoBit}, []Opcode{OpSetBit}},
		{filter.Action{Test: 1, Set: 2, Clear: filter.NoBit}, []Opcode{OpTestSetBit}},
		{filter.Action{Test: filter.NoBit, Set: filter.NoBit, Clear: 4}, []Opcode{OpClearBit}},
		{filter.Action{Test: 0, Set: filter.NoBit, Clear: filter.NoBit, Report: 9}, []Opcode{OpTestReport}},
		{filter.Action{Test: filter.NoBit, Set: filter.NoBit, Clear: filter.NoBit, Report: 9}, []Opcode{OpReport}},
	}
	for _, tt := range tests {
		got, err := compileAction(1, tt.a)
		if err != nil {
			t.Errorf("%+v: %v", tt.a, err)
			continue
		}
		if len(got) != len(tt.want) {
			t.Errorf("%+v: got %d instrs, want %d", tt.a, len(got), len(tt.want))
			continue
		}
		for i := range got {
			if got[i].Op != tt.want[i] {
				t.Errorf("%+v instr %d: op %v, want %v", tt.a, i, got[i].Op, tt.want[i])
			}
		}
	}
}

// TestUnsupportedActionIsAnError: an action carrying a register or counter
// operand must fail compilation, not lose the operand — dropping GapReg
// from qq.*xyz.*xyz's tail confirmed {1 4} on "dyxyzaqqqg" against truth
// [] when the splitter's default began to emit it.
func TestUnsupportedActionIsAnError(t *testing.T) {
	none := filter.Action{Test: filter.NoBit, Set: filter.NoBit, Clear: filter.NoBit}
	for name, mutate := range map[string]func(*filter.Action){
		"SetPos":   func(a *filter.Action) { a.SetPos = 1 },
		"GapReg":   func(a *filter.Action) { a.GapReg, a.MinGap = 1, 3 },
		"SetCtr":   func(a *filter.Action) { a.SetCtr = 1 },
		"TestCtr":  func(a *filter.Action) { a.TestCtr = 1 },
		"ResetCtr": func(a *filter.Action) { a.ResetCtr = 1 },
	} {
		a := none
		mutate(&a)
		var unsupported *filter.UnsupportedActionError
		if _, err := compileAction(7, a); !errors.As(err, &unsupported) || unsupported.ID != 7 {
			t.Errorf("%s: want UnsupportedActionError for id 7, got %v", name, err)
		}
	}
	// What the splitter emits with registers or counters on: some action of
	// each rule must be the error.
	for _, tc := range []struct {
		rule  string
		split splitter.Options
	}{
		{"qq.*xyz.*xyz", splitter.Options{}},
		{"aa.{3,}bb", splitter.Options{}},
		{"aa.{2,20}bb", splitter.Options{}},
	} {
		srules := []splitter.Rule{{Pattern: mustRules(t, tc.rule)[0].Pattern, RuleID: 1}}
		res, err := splitter.Split(srules, tc.split)
		if err != nil {
			t.Fatal(err)
		}
		refused := 0
		for id, a := range res.Actions[1:] {
			var unsupported *filter.UnsupportedActionError
			if _, err := compileAction(int32(id+1), a); errors.As(err, &unsupported) {
				refused++
			}
		}
		if refused == 0 {
			t.Errorf("%s under %+v: no action refused: %v", tc.rule, tc.split, res.Actions[1:])
		}
	}
}

func TestStatsAndImage(t *testing.T) {
	rules := mustRules(t, "alpha.*omega", "plain")
	x, err := Compile(rules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := x.Stats()
	if st.NumStates != x.NumStates() || st.NumStates == 0 {
		t.Errorf("stats: %+v", st)
	}
	if st.NumInstrs == 0 || st.MemBits != 1 {
		t.Errorf("stats: %+v", st)
	}
	if x.MemoryImageBytes() < x.NumStates()*256*4 {
		t.Errorf("image below table floor")
	}
}

func TestStreamingRunner(t *testing.T) {
	rules := mustRules(t, "aa.*bb")
	x, err := Compile(rules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := x.NewRunner()
	var got []event
	r.Feed([]byte("a"), func(id int32, pos int64) { got = append(got, event{id, pos}) })
	r.Feed([]byte("a.b"), func(id int32, pos int64) { got = append(got, event{id, pos}) })
	r.Feed([]byte("b"), func(id int32, pos int64) { got = append(got, event{id, pos}) })
	if len(got) != 1 || got[0].pos != 4 {
		t.Fatalf("streaming: %v", got)
	}
	r.Reset()
	if c := r.FeedCount([]byte("aabb aabb")); c != 2 {
		t.Errorf("FeedCount = %d", c)
	}
}
