package core

import (
	"fmt"
	"math/rand"
	"testing"

	"matchfilter/internal/patterns"
	"matchfilter/internal/trace"
)

// TestLayoutEquivalence is the end-to-end property test of the scan paths:
// for random subsets of the named pattern sets, and for the 256-column
// table of everyByte, the MFA's whole-payload (id, pos) stream must be
// reproduced on both uniform-random payloads and trace-generated
// (match-seeking) payloads when the payload arrives in arbitrary Feed
// chunks, odd lengths included, and through batched lockstep at every
// width. It runs under -race in CI.
func TestLayoutEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	sets := []string{"C7p", "C8", "C10", "S24"}
	trials := 3
	if testing.Short() {
		trials = 1
	}

	type equivCase struct {
		name string
		m    *MFA
	}
	var cases []equivCase
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
			m, err := Compile(rules, Options{})
			if err != nil {
				t.Fatalf("%s/%d: compile: %v", set, trial, err)
			}
			cases = append(cases, equivCase{fmt.Sprintf("%s/%d", set, trial), m})
		}
	}
	cases = append(cases, equivCase{"everyByte", compileTest(t, everyByte()...)})

	for ci, c := range cases {
		seed := int64(ci) * 1000
		gen := trace.NewGenerator(c.m.DFA(), seed)
		inputs := [][]byte{
			trace.Random(4095, seed),      // odd length
			gen.Generate(nil, 4096, 0.35), // drives the automaton toward accepts
			gen.Generate(nil, 4096, 0.95), // near-adversarial: maximal match density
		}
		for ii, input := range inputs {
			want := fmt.Sprint(c.m.Run(input))

			// Same payload delivered in random chunks — odd lengths
			// forced on half the chunks: per-flow context must carry
			// across Feed calls.
			r := c.m.NewRunner()
			var stream []MatchEvent
			for off := 0; off < len(input); {
				n := 1 + rng.Intn(700)
				if rng.Intn(2) == 0 {
					n |= 1
				}
				if off+n > len(input) {
					n = len(input) - off
				}
				r.Feed(input[off:off+n], func(id int32, pos int64) {
					stream = append(stream, MatchEvent{RuleID: id, Pos: pos})
				})
				off += n
			}
			if got := fmt.Sprint(stream); got != want {
				t.Fatalf("%s input %d: chunked stream differs from whole-payload stream", c.name, ii)
			}
		}

		// Batched lockstep: each input becomes two concurrent flows,
		// chunked apart, through one FlowBatcher; every flow's stream must
		// equal its sequential reference, for every batch width including
		// K=1 (degenerate, exercises the full-batch self-flush in Add), K=4
		// (one quad through the lane kernel) and K=6 (a quad and two
		// leftover lanes).
		flows := append(append([][]byte(nil), inputs...), inputs...)
		for _, k := range []int{1, 2, 3, 4, 6, MaxBatchFlows} {
			b := NewFlowBatcher(k)
			frs := make([]*Runner, len(flows))
			streams := make([][]MatchEvent, len(flows))
			offs := make([]int, len(flows))
			cbs := make([]MatchFunc, len(flows))
			for fi := range flows {
				frs[fi] = c.m.NewRunner()
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
						t.Fatalf("%s: batcher refused a core runner", c.name)
					}
					offs[fi] += n
				}
			}
			b.Flush()
			if b.Len() != 0 || len(b.TakeDead()) != 0 {
				t.Fatalf("%s k=%d: batcher not empty after flush", c.name, k)
			}
			for fi, input := range flows {
				if got, want := fmt.Sprint(streams[fi]), fmt.Sprint(c.m.Run(input)); got != want {
					t.Fatalf("%s k=%d flow %d: batched stream differs\nwant: %s\ngot:  %s",
						c.name, k, fi, want, got)
				}
			}
		}
	}
}

// TestEveryByteMatchesOracle: the 256-column table — every byte value its
// own class, under the identity map — reproduces the oracle in every scan
// mode, lockstep included.
func TestEveryByteMatchesOracle(t *testing.T) {
	if classes := compileTest(t, everyByte()...).Stats().DFAClasses; classes != 256 {
		t.Fatalf("everyByte compiled to %d classes, want 256", classes)
	}
	inputs := [][]byte{trace.Random(257, 3), []byte("\x00\xff GET /a\r\n"), {}}
	if assertOracle(t, everyByte(), inputs) == 0 {
		t.Fatal("no input matched; the check is vacuous")
	}
}
