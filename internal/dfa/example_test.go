package dfa_test

import (
	"fmt"

	"matchfilter/internal/dfa"
	"matchfilter/internal/nfa"
	"matchfilter/internal/regexparse"
)

// ExampleFromNFA compiles a small pattern set, scans a payload as one
// flow, and shows the effect of the byte-class table layout: the classed
// automaton matches identically while its transition table stores one
// column per byte equivalence class instead of one per byte value.
func ExampleFromNFA() {
	sources := []string{"attack.*payload", "abc"}
	rules := make([]nfa.Rule, len(sources))
	for i, src := range sources {
		p, err := regexparse.ParsePCRE(src)
		if err != nil {
			fmt.Println("parse:", err)
			return
		}
		rules[i] = nfa.Rule{Pattern: p, MatchID: i + 1}
	}
	n, err := nfa.Build(rules)
	if err != nil {
		fmt.Println("nfa:", err)
		return
	}

	flat, err := dfa.FromNFA(n, dfa.Options{Layout: dfa.LayoutFlat})
	if err != nil {
		fmt.Println("dfa:", err)
		return
	}
	classed, err := dfa.FromNFA(n, dfa.Options{}) // LayoutAuto compresses
	if err != nil {
		fmt.Println("dfa:", err)
		return
	}

	for _, m := range dfa.NewEngine(classed).Run([]byte("xx abc attack with payload")) {
		fmt.Printf("match id %d at offset %d\n", m.ID, m.Pos)
	}
	fmt.Println("layouts:", flat.Layout(), "vs", classed.Layout())
	fmt.Println("classed table smaller:", classed.TableBytes() < flat.TableBytes())
	// Output:
	// match id 2 at offset 5
	// match id 1 at offset 25
	// layouts: flat vs classed
	// classed table smaller: true
}

// ExampleRunner_SetState shows the layout-independence invariant in
// action: the classed engine reports the identical (id, pos) match stream
// as the flat one, and a context saved from it restores into the flat
// engine built from the same NFA, because both layouts speak plain state
// numbers at their API boundary.
func ExampleRunner_SetState() {
	sources := []string{"attack.*payload", "abc"}
	rules := make([]nfa.Rule, len(sources))
	for i, src := range sources {
		p, err := regexparse.ParsePCRE(src)
		if err != nil {
			fmt.Println("parse:", err)
			return
		}
		rules[i] = nfa.Rule{Pattern: p, MatchID: i + 1}
	}
	n, err := nfa.Build(rules)
	if err != nil {
		fmt.Println("nfa:", err)
		return
	}

	flat, err := dfa.FromNFA(n, dfa.Options{Layout: dfa.LayoutFlat})
	if err != nil {
		fmt.Println("dfa:", err)
		return
	}
	classed, err := dfa.FromNFA(n, dfa.Options{Layout: dfa.LayoutClassed})
	if err != nil {
		fmt.Println("dfa:", err)
		return
	}

	payload := []byte("xx abc attack with payload!")
	fmt.Println("layout:", classed.Layout())
	fmt.Println("streams equal:",
		fmt.Sprint(dfa.NewEngine(classed).Run(payload)) == fmt.Sprint(dfa.NewEngine(flat).Run(payload)))

	// Save a context mid-flow from the classed engine, restore it into
	// the flat one, and finish the scan there.
	r := dfa.NewEngine(classed).NewRunner()
	r.Feed(payload[:9], func(id int32, pos int64) { fmt.Printf("match id %d at offset %d\n", id, pos) })
	r2 := dfa.NewEngine(flat).NewRunner()
	r2.SetState(r.State(), r.Pos())
	r2.Feed(payload[9:], func(id int32, pos int64) { fmt.Printf("match id %d at offset %d\n", id, pos) })
	// Output:
	// layout: classed
	// streams equal: true
	// match id 2 at offset 5
	// match id 1 at offset 25
}
