package dfa_test

import (
	"fmt"

	"matchfilter/internal/dfa"
	"matchfilter/internal/nfa"
	"matchfilter/internal/regexparse"
)

// ExampleFromNFA compiles a small pattern set, scans a payload as one
// flow, and shows the byte-class table: one column per byte equivalence
// class instead of one per byte value.
func ExampleFromNFA() {
	n, err := buildExampleNFA("attack.*payload", "abc")
	if err != nil {
		fmt.Println(err)
		return
	}
	d, err := dfa.FromNFA(n, dfa.Options{})
	if err != nil {
		fmt.Println("dfa:", err)
		return
	}

	for _, m := range dfa.NewEngine(d).Run([]byte("xx abc attack with payload")) {
		fmt.Printf("match id %d at offset %d\n", m.ID, m.Pos)
	}
	fmt.Printf("%d states × %d classes\n", d.NumStates(), d.NumClasses())
	fmt.Println("smaller than 1 KiB a state:", d.TableBytes() < d.NumStates()*1024)
	// Output:
	// match id 2 at offset 5
	// match id 1 at offset 25
	// 26 states × 11 classes
	// smaller than 1 KiB a state: true
}

// ExampleRunner_SetState saves a flow's context mid-payload and finishes
// the scan on another runner: contexts are plain state numbers, so they
// restore into any runner of the same automaton.
func ExampleRunner_SetState() {
	n, err := buildExampleNFA("attack.*payload", "abc")
	if err != nil {
		fmt.Println(err)
		return
	}
	d, err := dfa.FromNFA(n, dfa.Options{})
	if err != nil {
		fmt.Println("dfa:", err)
		return
	}

	payload := []byte("xx abc attack with payload!")
	e := dfa.NewEngine(d)
	r := e.NewRunner()
	r.Feed(payload[:9], func(id int32, pos int64) { fmt.Printf("match id %d at offset %d\n", id, pos) })
	r2 := e.NewRunner()
	r2.SetState(r.State(), r.Pos())
	r2.Feed(payload[9:], func(id int32, pos int64) { fmt.Printf("match id %d at offset %d\n", id, pos) })
	// Output:
	// match id 2 at offset 5
	// match id 1 at offset 25
}

// buildExampleNFA parses sources, rule i+1 for the i-th, into one NFA.
func buildExampleNFA(sources ...string) (*nfa.NFA, error) {
	rules := make([]nfa.Rule, len(sources))
	for i, src := range sources {
		p, err := regexparse.ParsePCRE(src)
		if err != nil {
			return nil, fmt.Errorf("parse: %w", err)
		}
		rules[i] = nfa.Rule{Pattern: p, MatchID: i + 1}
	}
	return nfa.Build(rules)
}
