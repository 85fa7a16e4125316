package dfa

import (
	"errors"
	"strings"
	"testing"

	"matchfilter/internal/nfa"
	"matchfilter/internal/patterns"
	"matchfilter/internal/regexparse"
)

// fuzzAtoms are the pieces FuzzFromNFA writes rules with: a small
// alphabet, so classes overlap and split it; dot-stars and
// almost-dot-stars, which put states in the core; loops through groups;
// and bounded repeats and alternation, which multiply states.
var fuzzAtoms = []string{"a", "b", "c", "(ab)*", ".*", "[^a]*", "[^\\n]*", "[ab]", "[^c]", "[a-c]{1,3}", "b{2}", "(a|bc)+", "(.|\\n)", "x?", "."}

// fuzzRules turns spec into one to four rules: each byte appends an atom,
// and a byte whose top two bits are set ends the rule. Bit 0 of a rule's
// first byte anchors it.
func fuzzRules(spec []byte) []string {
	var rules []string
	var sb strings.Builder
	for i, b := range spec {
		if sb.Len() == 0 && b&1 == 1 {
			sb.WriteByte('^')
		}
		if b>>6 == 3 || i == len(spec)-1 {
			sb.WriteString(fuzzAtoms[int(b)%len(fuzzAtoms)])
			rules = append(rules, sb.String())
			sb.Reset()
			if len(rules) == 4 {
				break
			}
			continue
		}
		sb.WriteString(fuzzAtoms[int(b>>1)%len(fuzzAtoms)])
	}
	return rules
}

// FuzzFromNFA holds the constructor to the per-byte reference on fuzzed
// rule sets: the same automaton bit for bit under every layout and
// minimization setting, or ErrTooManyStates from both at the same small
// budget. loopStart adds a consuming self-loop on the start state, the one
// shape nfa.Build never produces: it can put the whole core inside the
// start closure.
func FuzzFromNFA(f *testing.F) {
	f.Add([]byte("\x0a\x11\x06"), false, uint16(200))             // [^a]*[^c][^\n]*
	f.Add([]byte("\x5d\x8e\xc8\x51"), true, uint16(64))           // the start closure holds an accepting core
	f.Add([]byte("\xd4\x95\x82\xab"), false, uint16(100))         // c and ^.[^a]*[^\n]*: the core shrinks over two rounds
	f.Add([]byte("\x0e\x12\xc2\x00\x16\x0d"), false, uint16(300)) // [ab][a-c]{1,3}. and a(a|bc)+x?
	f.Add([]byte("\x13\x14\x14\x14\xd2"), false, uint16(8))       // 24 states over a budget of 9
	f.Add([]byte("\x00\x03"), false, uint16(100))                 // a(ab)*
	f.Fuzz(func(t *testing.T, spec []byte, loopStart bool, budget uint16) {
		if len(spec) == 0 || len(spec) > 24 {
			return
		}
		rules := fuzzRules(spec)
		direct := make([]nfa.Rule, len(rules))
		for i, src := range rules {
			p, err := regexparse.ParsePCRE(src)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			direct[i] = nfa.Rule{Pattern: p, MatchID: i + 1}
		}
		n, err := nfa.Build(direct)
		if err != nil {
			return // a bounded repeat over the expansion cap
		}
		if loopStart {
			s := &n.States[n.Start]
			s.Trans = append(s.Trans, nfa.Transition{Class: regexparse.AnyClass(), To: n.Start})
		}
		assertSameAsReference(t, strings.Join(rules, " ; "), n, 1+int(budget)%400)
	})
}

// BenchmarkFromNFAUndecomposed times the constructor where it does the
// most work: a pattern set built whole, without decomposition (C10,
// 14,689 states), and a refusal at the state budget (B217p whole against
// 2^14 states, where the reference needed 58 s to give up). The refusal
// reports the budget as its states.
func BenchmarkFromNFAUndecomposed(b *testing.B) {
	for _, bc := range []struct {
		name   string
		set    string
		budget int
	}{
		{"C10", "C10", 0},
		{"B217p-refused", "B217p", 1 << 14},
	} {
		loaded, err := patterns.Load(bc.set)
		if err != nil {
			b.Fatal(err)
		}
		rules := make([]nfa.Rule, len(loaded))
		for i, r := range loaded {
			rules[i] = nfa.Rule{Pattern: r.Pattern, MatchID: int(r.ID)}
		}
		n := mustBuild(b, rules)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := FromNFA(n, Options{MaxStates: bc.budget})
				switch {
				case bc.budget > 0 && errors.Is(err, ErrTooManyStates):
					b.ReportMetric(float64(bc.budget), "states")
				case bc.budget == 0 && err == nil:
					b.ReportMetric(float64(d.NumStates()), "states")
				default:
					b.Fatalf("budget %d: %v", bc.budget, err)
				}
			}
		})
	}
}
