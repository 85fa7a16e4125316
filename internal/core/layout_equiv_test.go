package core

import (
	"fmt"
	"math/rand"
	"testing"

	"matchfilter/internal/dfa"
	"matchfilter/internal/patterns"
	"matchfilter/internal/trace"
)

// TestLayoutEquivalence is the tentpole's end-to-end property test:
// for random subsets of the named pattern sets, flat- and classed-layout
// MFAs must emit byte-identical (id, pos) match streams on both
// uniform-random payloads and trace-generated (match-seeking) payloads,
// including when the payload arrives in arbitrary Feed chunks, odd
// lengths included. It runs under -race in CI.
func TestLayoutEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	sets := []string{"C7p", "C8", "C10", "S24"}
	trials := 3
	if testing.Short() {
		trials = 1
	}

	for _, set := range sets {
		all, err := patterns.Load(set)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < trials; trial++ {
			// Random non-empty subset of the set's rules, original ids kept.
			var rules []Rule
			for _, r := range all {
				if rng.Intn(2) == 0 {
					rules = append(rules, Rule{Pattern: r.Pattern, ID: r.ID})
				}
			}
			if len(rules) == 0 {
				rules = append(rules, Rule{Pattern: all[0].Pattern, ID: all[0].ID})
			}

			flat, err := Compile(rules, Options{DFA: dfa.Options{Layout: dfa.LayoutFlat}})
			if err != nil {
				t.Fatalf("%s/%d: flat compile: %v", set, trial, err)
			}
			classed, err := Compile(rules, Options{DFA: dfa.Options{Layout: dfa.LayoutClassed}})
			if err != nil {
				t.Fatalf("%s/%d: classed compile: %v", set, trial, err)
			}
			if got := classed.Stats().DFALayout; got != "classed" {
				t.Fatalf("%s/%d: classed build reports layout %q", set, trial, got)
			}
			variants := []*MFA{classed}
			names := []string{"classed"}

			seed := int64(set[0])*1000 + int64(trial)
			gen := trace.NewGenerator(flat.DFA(), seed)
			inputs := [][]byte{
				trace.Random(4095, seed),      // odd length
				gen.Generate(nil, 4096, 0.35), // drives the automaton toward accepts
				gen.Generate(nil, 4096, 0.95), // near-adversarial: maximal match density
			}
			for ii, input := range inputs {
				want := fmt.Sprint(flat.Run(input))
				for vi, m := range variants {
					if got := fmt.Sprint(m.Run(input)); got != want {
						t.Fatalf("%s/%d input %d: match streams differ\nflat:    %s\n%s: %s",
							set, trial, ii, want, names[vi], got)
					}
				}

				// Same payload delivered in random chunks — odd lengths
				// forced on half the chunks: per-flow context must carry
				// across Feed calls identically in every layout.
				runners := []*Runner{flat.NewRunner(), classed.NewRunner()}
				streams := make([][]MatchEvent, len(runners))
				for off := 0; off < len(input); {
					n := 1 + rng.Intn(700)
					if rng.Intn(2) == 0 {
						n |= 1
					}
					if off+n > len(input) {
						n = len(input) - off
					}
					for ri, r := range runners {
						ri := ri
						r.Feed(input[off:off+n], func(id int32, pos int64) {
							streams[ri] = append(streams[ri], MatchEvent{RuleID: id, Pos: pos})
						})
					}
					off += n
				}
				for ri := range runners {
					if got := fmt.Sprint(streams[ri]); got != want {
						t.Fatalf("%s/%d input %d: chunked stream %d differs from whole-payload stream",
							set, trial, ii, ri)
					}
				}
			}

			// Batched lockstep: each input becomes two concurrent flows,
			// chunked apart, through one FlowBatcher per layout; every flow's
			// stream must equal its flat sequential reference, for every batch
			// width including K=1 (degenerate, exercises the full-batch
			// self-flush in Add), K=4 (one quad through the lane kernel) and
			// K=6 (a quad and two leftover lanes).
			flows := append(append([][]byte(nil), inputs...), inputs...)
			for _, k := range []int{1, 2, 3, 4, 6, MaxBatchFlows} {
				for vi, m := range append([]*MFA{flat}, variants...) {
					name := append([]string{"flat"}, names...)[vi]
					b := NewFlowBatcher(k)
					frs := make([]*Runner, len(flows))
					streams := make([][]MatchEvent, len(flows))
					offs := make([]int, len(flows))
					cbs := make([]MatchFunc, len(flows))
					for fi := range flows {
						frs[fi] = m.NewRunner()
						cbs[fi] = func(id int32, pos int64) {
							streams[fi] = append(streams[fi], MatchEvent{RuleID: id, Pos: pos})
						}
					}
					for done := false; !done; {
						done = true
						for fi, input := range flows {
							if offs[fi] >= len(input) {
								continue
							}
							done = false
							n := 1 + rng.Intn(1200)
							if rng.Intn(2) == 0 {
								n |= 1
							}
							if offs[fi]+n > len(input) {
								n = len(input) - offs[fi]
							}
							if !b.Add(frs[fi], fi, input[offs[fi]:offs[fi]+n], cbs[fi]) {
								t.Fatalf("%s/%d: batcher refused a core runner", set, trial)
							}
							offs[fi] += n
						}
					}
					b.Flush()
					if b.Len() != 0 || len(b.TakeDead()) != 0 {
						t.Fatalf("%s/%d %s k=%d: batcher not empty after flush", set, trial, name, k)
					}
					for fi, input := range flows {
						if got, want := fmt.Sprint(streams[fi]), fmt.Sprint(flat.Run(input)); got != want {
							t.Fatalf("%s/%d %s k=%d flow %d: batched stream differs\nwant: %s\ngot:  %s",
								set, trial, name, k, fi, want, got)
						}
					}
				}
			}
		}
	}
}
