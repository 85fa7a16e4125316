package nfa_test

import (
	"testing"

	"matchfilter/internal/nfa"
	"matchfilter/internal/patterns"
	"matchfilter/internal/splitter"
)

// BenchmarkBuild times nfa.Build on the fragments set-up builds from
// B217p and from S24 ∪ CTR24, with allocations; states is the NFA's size.
func BenchmarkBuild(b *testing.B) {
	for _, bc := range []struct {
		name string
		sets []string
	}{{"B217p", []string{"B217p"}}, {"S24+CTR24", []string{"S24", "CTR24"}}} {
		var rules []splitter.Rule
		for _, set := range bc.sets {
			loaded, err := patterns.Load(set)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range loaded {
				rules = append(rules, splitter.Rule{Pattern: r.Pattern, RuleID: int32(len(rules) + 1)})
			}
		}
		res, err := splitter.Split(rules, splitter.Options{})
		if err != nil {
			b.Fatal(err)
		}
		frags := make([]nfa.Rule, len(res.Fragments))
		for i, f := range res.Fragments {
			frags[i] = nfa.Rule{Pattern: f.Pattern, MatchID: int(f.InternalID)}
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n, err := nfa.Build(frags)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(n.NumStates()), "states")
			}
		})
	}
}
