package patterns

import (
	"errors"
	"strings"
	"testing"

	"matchfilter/internal/core"
	"matchfilter/internal/dfa"
	"matchfilter/internal/nfa"
	"matchfilter/internal/splitter"
)

func TestNamesAndDescribe(t *testing.T) {
	names := Names()
	if len(names) != 7 {
		t.Fatalf("want 7 sets, got %v", names)
	}
	infos := Describe()
	if len(infos) != len(names) {
		t.Fatalf("Describe length %d", len(infos))
	}
	for i, info := range infos {
		if info.Name != names[i] || info.NumRules == 0 || info.Description == "" {
			t.Errorf("info %+v", info)
		}
	}
}

func TestUnknownSet(t *testing.T) {
	if _, err := Load("nope"); err == nil {
		t.Fatal("unknown set must error")
	}
}

func TestRuleCounts(t *testing.T) {
	want := map[string]int{
		"B217p": 224, "C7p": 11, "C8": 8, "C10": 10,
		"S24": 24, "S31p": 40, "S34": 34,
	}
	for name, n := range want {
		rules, err := Load(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rules) != n {
			t.Errorf("%s: %d rules, want %d (Table V)", name, len(rules), n)
		}
		for i, r := range rules {
			if r.ID != int32(i+1) {
				t.Fatalf("%s: rule %d has id %d", name, i, r.ID)
			}
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	for _, name := range Names() {
		a, err := Sources(name)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Sources(name)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Fatalf("%s: generation is not deterministic", name)
		}
	}
}

func TestWordScheme(t *testing.T) {
	seen := map[string]bool{}
	for n := 0; n < 300; n++ {
		w := word('x', n, n%4)
		if seen[w] {
			t.Fatalf("duplicate word %q at n=%d", w, n)
		}
		seen[w] = true
	}
}

func TestAllWords(t *testing.T) {
	words, err := AllWords("C7p")
	if err != nil {
		t.Fatal(err)
	}
	if len(words) < 10 {
		t.Fatalf("too few literals: %v", words)
	}
	for i := 1; i < len(words); i++ {
		if words[i] <= words[i-1] {
			t.Fatal("words not sorted/deduped")
		}
	}
}

// buildCounts compiles a set every way and returns (NFA Qs, DFA Qs or -1
// on budget failure, MFA Qs), reproducing a Table V row.
func buildCounts(t *testing.T, name string) (nfaQ, dfaQ, mfaQ int) {
	t.Helper()
	rules, err := Load(name)
	if err != nil {
		t.Fatal(err)
	}
	nfaRules := make([]nfa.Rule, len(rules))
	coreRules := make([]core.Rule, len(rules))
	for i, r := range rules {
		nfaRules[i] = nfa.Rule{Pattern: r.Pattern, MatchID: int(r.ID)}
		coreRules[i] = core.Rule{Pattern: r.Pattern, ID: r.ID}
	}
	n, err := nfa.Build(nfaRules)
	if err != nil {
		t.Fatal(err)
	}
	nfaQ = n.NumStates()

	d, err := dfa.FromNFA(n, dfa.Options{})
	switch {
	case errors.Is(err, dfa.ErrTooManyStates):
		dfaQ = -1
	case err != nil:
		t.Fatal(err)
	default:
		dfaQ = d.NumStates()
	}

	m, err := core.Compile(coreRules, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mfaQ = m.Stats().DFAStates
	return nfaQ, dfaQ, mfaQ
}

// TestTableVShape verifies the qualitative Table V claims on every set:
// the MFA stays NFA-scale while the DFA explodes (or fails outright for
// B217p).
func TestTableVShape(t *testing.T) {
	if testing.Short() {
		t.Skip("constructs every automaton")
	}
	for _, name := range Names() {
		nfaQ, dfaQ, mfaQ := buildCounts(t, name)
		t.Logf("%-6s NFA=%6d DFA=%8d MFA=%6d", name, nfaQ, dfaQ, mfaQ)
		if name == "B217p" {
			if dfaQ != -1 {
				t.Errorf("B217p: DFA should exceed its budget, got %d states", dfaQ)
			}
			continue
		}
		if dfaQ <= 0 {
			t.Errorf("%s: DFA should construct", name)
			continue
		}
		if mfaQ*2 > dfaQ {
			t.Errorf("%s: MFA (%d) should be far smaller than DFA (%d)", name, mfaQ, dfaQ)
		}
		if mfaQ > 12*nfaQ {
			t.Errorf("%s: MFA (%d) should stay NFA-scale (NFA=%d)", name, mfaQ, nfaQ)
		}
	}
}

// TestCSetsExplosive checks the C-set characterization: C7p's DFA is
// dramatically larger relative to its rule count.
func TestCSetsExplosive(t *testing.T) {
	if testing.Short() {
		t.Skip("constructs large automata")
	}
	_, dfaQ, mfaQ := buildCounts(t, "C7p")
	if dfaQ < 50*mfaQ {
		t.Errorf("C7p should explode: DFA=%d MFA=%d", dfaQ, mfaQ)
	}
}

// TestCounterSets verifies the bounded-repeat sets' defining claims:
// CTR8 builds under both encodings (and counters shrink it); CTR24 is
// expansion-infeasible — subset construction exceeds its state budget —
// while the counter-register path compiles it at NFA scale.
func TestCounterSets(t *testing.T) {
	if testing.Short() {
		t.Skip("constructs large automata")
	}
	load := func(name string) []core.Rule {
		rules, err := Load(name)
		if err != nil {
			t.Fatal(err)
		}
		coreRules := make([]core.Rule, len(rules))
		for i, r := range rules {
			coreRules[i] = core.Rule{Pattern: r.Pattern, ID: r.ID}
		}
		return coreRules
	}
	// The paper's conditions expand bounded repeats; the default counts them.
	expandedOpts := core.Options{Splitter: splitter.Options{Construction: splitter.Paper}}

	// CTR8: both encodings build; the counter build uses counters and is
	// smaller.
	expanded, err := core.Compile(load("CTR8"), expandedOpts)
	if err != nil {
		t.Fatalf("CTR8 expanded: %v", err)
	}
	counted, err := core.Compile(load("CTR8"), core.Options{})
	if err != nil {
		t.Fatalf("CTR8 counters: %v", err)
	}
	if counted.Stats().Counters != 8 || counted.Stats().Split.CounterSplits != 8 {
		t.Fatalf("CTR8 counter build stats: %+v", counted.Stats().Split)
	}
	t.Logf("CTR8 expanded=%d states, counters=%d states",
		expanded.Stats().DFAStates, counted.Stats().DFAStates)
	if counted.Stats().DFAStates*2 > expanded.Stats().DFAStates {
		t.Errorf("CTR8: counters should shrink the automaton: %d vs %d",
			counted.Stats().DFAStates, expanded.Stats().DFAStates)
	}

	// CTR24: expansion must fail on the state budget, counters must build.
	// The budget is capped below the default here so the doomed subset
	// construction fails in seconds instead of minutes (under -race the
	// full 2^17 walk alone blows the package test timeout); the
	// default-budget failure is the bench experiment's claim
	// (EXPERIMENTS.md "Bounded repeats") and CI's counter-report guard.
	capped := expandedOpts
	capped.DFA.MaxStates = 1 << 14
	if _, err := core.Compile(load("CTR24"), capped); !errors.Is(err, dfa.ErrTooManyStates) {
		t.Fatalf("CTR24 expanded build: want ErrTooManyStates, got %v", err)
	}
	big, err := core.Compile(load("CTR24"), core.Options{})
	if err != nil {
		t.Fatalf("CTR24 counters: %v", err)
	}
	st := big.Stats()
	if st.Counters != 24 || st.Split.CounterSplits != 24 {
		t.Fatalf("CTR24 counter build stats: Counters=%d %+v", st.Counters, st.Split)
	}
	t.Logf("CTR24 counters: %d states, %d counters, %d B image",
		st.DFAStates, st.Counters, st.MemoryImageBytes())
}
