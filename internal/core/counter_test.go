package core

// Tests for the counter-register extension (DESIGN.md §19): bounded gaps
// of the form X{n,m} with m ≥ 8 decomposed via filter counters, part of
// the default construction. As with the .{n,} counting extension, the
// ground truth is the undecomposed DFA, which handles {n,m} by repeat
// expansion — so exact stream equivalence is checkable wherever the
// expanded automaton still builds.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"matchfilter/internal/dfa"
)

func TestCounterGapSplit(t *testing.T) {
	m := compileMFA(t, Options{}, "aa.{3,9}bb")
	st := m.Stats()
	if st.Split.CounterSplits != 1 {
		t.Fatalf("stats: %+v", st.Split)
	}
	if st.Counters != 1 {
		t.Fatalf("Counters = %d", st.Counters)
	}
	if st.NumFragments != 2 {
		t.Fatalf("fragments = %d", st.NumFragments)
	}
	// The decomposed automaton is far smaller than the expanded one.
	// (Much wider windows do not build at all by expansion — the subset
	// construction exceeds the state budget; see the heavy pattern sets.)
	plain := compileMFA(t, paperConditions, "aa.{10,14}bb")
	counted := compileMFA(t, Options{}, "aa.{10,14}bb")
	if counted.Stats().DFAStates*4 > plain.Stats().DFAStates {
		t.Errorf("counters should shrink the automaton: %d vs %d",
			counted.Stats().DFAStates, plain.Stats().DFAStates)
	}
}

func TestCounterGapSemantics(t *testing.T) {
	// aa.{3,8}bb: between 3 and 8 bytes strictly between aa and bb.
	m := compileMFA(t, Options{}, "aa.{3,8}bb")
	for input, want := range map[string]int{
		"aabb":            0, // gap 0
		"aa..bb":          0, // gap 2
		"aa...bb":         1, // gap 3 = n
		"aa....bb":        1,
		"aa........bb":    1, // gap 8 = m
		"aa.........bb":   0, // gap 9 > m
		"aa...bb......bb": 1, // second bb is at gap 11, outside the window
		"bb aa...bb":      1,
		"aaa..bb":         1, // the first aa-match end makes the gap exactly 3
	} {
		if got := m.Run([]byte(input)); len(got) != want {
			t.Errorf("%q: %d matches, want %d (%v)", input, len(got), want, got)
		}
	}
}

func TestCounterEquivalenceFixed(t *testing.T) {
	assertEquivalent(t,
		[]string{"aa.{3,8}bb"},
		[][]byte{
			[]byte("aabb"), []byte("aa..bb"), []byte("aa...bb"), []byte("aa.....bb"),
			[]byte("aa........bb"), []byte("aa.........bb"), []byte("aa...bb......bb"),
			[]byte("aa aa bb bb"), []byte("aaxbbyaa....bb"), []byte(strings.Repeat("aa..bb", 10)),
			[]byte("aaa..bb"), []byte("aaaa.bb"), []byte("aa...bbbb"),
		})
	// Witness-set property: with two A occurrences, position 5 is
	// satisfied only by the older witness and a later position only by
	// the newer — a scalar counter would fail one of them.
	assertEquivalent(t,
		[]string{"xy.{2,8}zw"},
		[][]byte{
			[]byte("xyxy..zw"),         // young witness at gap 2, old at 4: both qualify
			[]byte("xyxy.......zw"),    // old at gap 9: only the young witness qualifies
			[]byte("xy........xyzw"),   // neither (old expired, young gap 0)
			[]byte("xyxyxy...zw"),      // three witnesses
			[]byte("xy..zw........zw"), // second zw out of window
			[]byte("xy...zwzwzw"),      // overlapping zw
		})
}

func TestCounterClassedGap(t *testing.T) {
	// aa[^x]{2,8}bb: an x anywhere in the gap invalidates the witness.
	assertEquivalent(t,
		[]string{"aa[^x]{2,8}bb"},
		[][]byte{
			[]byte("aa..bb"), []byte("aa........bb"), []byte("aa.........bb"),
			[]byte("aa.x.bb"), // x in the gap kills it
			[]byte("aax..bb"), // x immediately after aa
			[]byte("aa..xbb"), // x immediately before bb
			[]byte("aa..bb aa.x..bb"),
			[]byte("aaxaa..bb"), // second aa unpoisoned
			[]byte("aa..aax.bb"),
			[]byte("xxaa..bbxx"),
		})
	// Forbidden byte that is also A's final byte: the witness recorded at
	// the same position must survive the reset.
	assertEquivalent(t,
		[]string{"ax[^x]{2,8}bb"},
		[][]byte{
			[]byte("ax..bb"), []byte("axx..bb"), []byte("ax.x.bb"),
			[]byte("axax..bb"), []byte("ax........bb"), []byte("ax.........bb"),
		})
}

func TestCounterDoubleGap(t *testing.T) {
	assertEquivalent(t,
		[]string{"aa.{2,8}bb.{3,9}cc"},
		[][]byte{
			[]byte("aa..bb...cc"),
			[]byte("aa..bb..cc"),         // second gap too small
			[]byte("aa.bb...cc"),         // first gap too small
			[]byte("aa.........bb...cc"), // first gap too large
			[]byte("aa..bb..........cc"), // second gap too large
			[]byte("bb aa..bb...cc"),
			[]byte("aa..bbbb...cc"),
			[]byte("cc aa...bb....cc cc"),
		})
	// Mixed chain: unbounded dot-star, bounded gap, counting gap.
	assertEquivalent(t,
		[]string{"hd.*aa.{2,8}bb"},
		[][]byte{
			[]byte("hd aa...bb"),
			[]byte("aa...bb hd"),
			[]byte("hd aabb"),
			[]byte("aa hd aa...bb"),
			[]byte("hd..aa..aa...bb"),
		})
}

func TestCounterXInBRefused(t *testing.T) {
	// The forbidden class contains b, which occurs in B = "bb": the gap
	// cannot take the counter path (a reset would fire inside B's own
	// bytes) and the rule must compile whole — and still match exactly.
	rules := mustRules(t, "aa[^b]{3,9}bb")
	m, err := Compile(rules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Split.CounterSplits != 0 || st.Split.RefusedCounterXInB != 1 {
		t.Fatalf("stats: %+v", st.Split)
	}
	assertEquivalent(t,
		[]string{"aa[^b]{3,9}bb"},
		[][]byte{
			[]byte("aa...bb"), []byte("aa.b.bb"), []byte("aabbbb"),
			[]byte("aa.........bb"), []byte("aa..........bb"),
		})
}

func TestCounterVariableLengthRefused(t *testing.T) {
	// B = b+c has variable length: the window arithmetic is undefined, so
	// the split is refused and the rule compiled whole (still correct).
	m := compileMFA(t, Options{}, "aa.{3,9}b+c")
	st := m.Stats()
	if st.Split.CounterSplits != 0 || st.Split.RefusedVarLength != 1 {
		t.Fatalf("stats: %+v", st.Split)
	}
	assertEquivalent(t,
		[]string{"aa.{3,9}b+c"},
		[][]byte{
			[]byte("aa...bc"), []byte("aa...bbbbc"), []byte("aa.bc"),
			[]byte("aabbbc"), []byte("aa.........bbc"),
		})
}

func TestCounterThresholdGate(t *testing.T) {
	// Below the threshold of 8 the gap stays on the expansion path.
	m := compileMFA(t, Options{}, "aa.{2,7}bb")
	if st := m.Stats(); st.Split.CounterSplits != 0 || st.Counters != 0 {
		t.Fatalf("{2,7} took the counter path: %+v", st.Split)
	}
	m = compileMFA(t, Options{}, "aa.{2,8}bb")
	if st := m.Stats(); st.Split.CounterSplits != 1 || st.Counters != 1 {
		t.Fatalf("{2,8} stayed on expansion: %+v", st.Split)
	}
}

func TestCounterOnByDefault(t *testing.T) {
	m := compileMFA(t, Options{}, "aa.{3,9}bb")
	if st := m.Stats(); st.Split.CounterSplits != 1 || st.Counters != 1 {
		t.Fatalf("the default construction must count: %+v", st.Split)
	}
	m = compileMFA(t, paperConditions, "aa.{3,9}bb")
	if st := m.Stats(); st.Split.CounterSplits != 0 || st.Counters != 0 {
		t.Fatalf("the paper's conditions must expand: %+v", st.Split)
	}
}

func TestCounterContextRoundTrip(t *testing.T) {
	// Counter state is part of the flow context: a witness recorded before
	// the save must satisfy the window after a restore into a fresh runner.
	m := compileMFA(t, Options{}, "aa.{3,8}bb")
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
	r2 := m.NewRunner()
	if err := r2.SetContext(state, mem, regs, ctrs, pos); err != nil {
		t.Fatal(err)
	}
	r2.Feed([]byte(".bb"), collect)
	if len(got) != 1 || got[0].pos != 6 {
		t.Fatalf("restored flow: %v", got)
	}

	// The saved context is a snapshot: mutating the donor runner after
	// Context() must not corrupt it.
	if len(ctrs) == 0 {
		t.Fatal("context carries no counter state")
	}
}

func TestCounterBadContext(t *testing.T) {
	m := compileMFA(t, Options{}, "aa.{3,8}bb")
	r := m.NewRunner()
	_, _, _, ctrs := r.Context()
	if len(ctrs) == 0 {
		t.Fatal("no counter state to corrupt")
	}
	bad := ctrs.Clone()
	bad[0] = 99 // base word beyond the restore position
	if err := m.NewRunner().SetContext(0, nil, nil, bad, 10); err == nil {
		t.Fatal("future-based counter context accepted")
	}
	// After a rejected restore the runner is reset and usable.
	r3 := m.NewRunner()
	_ = r3.SetContext(0, nil, nil, bad, 10)
	if evs := r3.Pos(); evs != 0 {
		t.Fatalf("runner not reset after bad context: pos %d", evs)
	}
	// A base at the restore position is legal.
	bad[0] = 10
	if err := m.NewRunner().SetContext(0, nil, nil, bad, 10); err != nil {
		t.Fatalf("base at pos rejected: %v", err)
	}
	// Truncated counter images are zero-extended, not rejected.
	if err := m.NewRunner().SetContext(0, nil, nil, ctrs[:1], 5); err != nil {
		t.Fatalf("truncated counter image rejected: %v", err)
	}
	// Oversized images are rejected.
	huge := make([]uint64, len(ctrs)+1)
	if err := m.NewRunner().SetContext(0, nil, nil, huge, 5); err == nil {
		t.Fatal("oversized counter image accepted")
	}
}

// TestCounterEquivalenceRandom is the satellite property test: random
// rules over bounded gaps (plain and classed), random rule subsets,
// random inputs — the counter-compiled MFA must emit a byte-identical
// (id, pos) match stream to the undecomposed expanded DFAs, whole-payload
// and under random chunking, and through the lockstep batcher. Runs under -race in CI.
func TestCounterEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	words := []string{"aa", "bb", "cc", "xy"}
	gaps := []string{".{2,8}", ".{3,9}", ".{5,12}", "[^x]{2,8}", "[^\n]{3,8}", ".{4,}", ".*"}
	trials := 25
	if testing.Short() {
		trials = 5
	}

	// Trial 0 is fixed: a line end that completes ab\n fires, in one
	// decision set, a reporter, the clear of cd's guard bit, the reset of
	// gh's counter and the guarded reporter of kl.*\n — every kind of op
	// an accept program composes, in one program.
	mixed := []string{"ab\n", "cd[^\n]*ef", "gh[^\n]{10,20}ij", "kl.*\n"}
	mixedWords := []string{"ab\n", "cd", "ef", "gh", "ij", "kl", ".........."}

	for trial := 0; trial < trials; trial++ {
		// 1–3 random rules, each word-gap-word[-gap-word].
		numRules := 1 + rng.Intn(3)
		var sources []string
		for ri := 0; ri < numRules; ri++ {
			var sb strings.Builder
			numSegs := 2 + rng.Intn(2)
			for si := 0; si < numSegs; si++ {
				if si > 0 {
					sb.WriteString(gaps[rng.Intn(len(gaps))])
				}
				sb.WriteString(words[rng.Intn(len(words))])
			}
			sources = append(sources, sb.String())
		}
		words := words
		if trial == 0 {
			sources, words = mixed, mixedWords
		}
		rules := mustRules(t, sources...)
		// One expanded DFA per rule: their streams merge into the union's,
		// and a union of several windows of 8 or more would not build.
		gts := make([]*dfa.Engine, len(rules))
		for i := range rules {
			gts[i] = groundTruth(t, rules[i:i+1])
		}
		truth := func(input []byte) []event {
			var out []event
			for _, gt := range gts {
				out = append(out, dfaEvents(gt, input)...)
			}
			sortEvents(out)
			return out
		}

		var inputs [][]byte
		for ii := 0; ii < 6; ii++ {
			var in strings.Builder
			for in.Len() < 20+rng.Intn(120) {
				switch rng.Intn(5) {
				case 0:
					in.WriteString(words[rng.Intn(len(words))])
				case 1:
					in.WriteByte('.')
				case 2:
					in.WriteByte('x')
				case 3:
					in.WriteByte('\n')
				default:
					in.WriteString("..")
				}
			}
			inputs = append(inputs, []byte(in.String()))
		}
		if trial == 0 { // all four rules match, two of them on one line end
			inputs = append(inputs, []byte("klab\ncdxxefgh..........ij\nab\ngh....\n......ij cd\nef"))
		}

		m, err := Compile(rules, Options{})
		if err != nil {
			t.Fatalf("trial %d rules %v: %v", trial, sources, err)
		}
		// The line end's program: report; live guard +1; reset gh's
		// counter; test kl's bit +1; report; clear cd's bit — and when
		// the counter is not live and the bit not set: report, the two
		// failing guards, the clear.
		if st := m.Stats(); trial == 0 && (st.AcceptWidest.IDs != 4 || st.AcceptWidest.Ops != 6 || st.AcceptWidestQuiet != 4) {
			t.Fatalf("mixed set: widest decision set %+v, %d ops when quiet, want 4 ids (report, reset, guarded report, clear group) in 6 ops, 4 when quiet",
				st.AcceptWidest, st.AcceptWidestQuiet)
		}
		for ii, input := range inputs {
			want := truth(input)
			if got := mfaEvents(m, input); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d rules %v input %q:\nMFA  %v\ntruth %v",
					trial, sources, input, got, want)
			}
			// Same payload in random odd-biased chunks: counter state
			// must carry across Feed boundaries identically.
			r := m.NewRunner()
			var stream []event
			for off := 0; off < len(input); {
				n := 1 + rng.Intn(9)
				if off+n > len(input) {
					n = len(input) - off
				}
				r.Feed(input[off:off+n], func(id int32, pos int64) {
					stream = append(stream, event{id, pos})
				})
				off += n
			}
			sortEvents(stream)
			if fmt.Sprint(stream) != fmt.Sprint(want) {
				t.Fatalf("trial %d input %d: chunked stream diverges from truth", trial, ii)
			}
			// Mid-stream context round trip through a second runner.
			r1 := m.NewRunner()
			var roundTrip []event
			cb := func(id int32, pos int64) { roundTrip = append(roundTrip, event{id, pos}) }
			half := len(input) / 2
			r1.Feed(input[:half], cb)
			state, mem, regs, ctrs := r1.Context()
			r2 := m.NewRunner()
			if err := r2.SetContext(state, mem, regs, ctrs, r1.Pos()); err != nil {
				t.Fatalf("trial %d: mid-stream restore: %v", trial, err)
			}
			r2.Feed(input[half:], cb)
			sortEvents(roundTrip)
			if fmt.Sprint(roundTrip) != fmt.Sprint(want) {
				t.Fatalf("trial %d input %d: context round trip diverges\ngot  %v\ntruth %v",
					trial, ii, roundTrip, want)
			}
		}

		// Batched lockstep: all inputs as concurrent flows through one
		// FlowBatcher must reproduce each flow's sequential stream.
		for _, k := range []int{1, 3, MaxBatchFlows} {
			b := NewFlowBatcher(k)
			frs := make([]*Runner, len(inputs))
			streams := make([][]event, len(inputs))
			offs := make([]int, len(inputs))
			cbs := make([]MatchFunc, len(inputs))
			for fi := range inputs {
				frs[fi] = m.NewRunner()
				fi := fi
				cbs[fi] = func(id int32, pos int64) {
					streams[fi] = append(streams[fi], event{id, pos})
				}
			}
			for done := false; !done; {
				done = true
				for fi, input := range inputs {
					if offs[fi] >= len(input) {
						continue
					}
					done = false
					n := 1 + rng.Intn(30)
					if offs[fi]+n > len(input) {
						n = len(input) - offs[fi]
					}
					if !b.Add(frs[fi], fi, input[offs[fi]:offs[fi]+n], cbs[fi]) {
						t.Fatalf("trial %d: batcher refused a runner", trial)
					}
					offs[fi] += n
				}
			}
			b.Flush()
			for fi, input := range inputs {
				want := truth(input)
				sortEvents(streams[fi])
				if fmt.Sprint(streams[fi]) != fmt.Sprint(want) {
					t.Fatalf("trial %d k=%d flow %d: batched stream diverges\ngot  %v\ntruth %v",
						trial, k, fi, streams[fi], want)
				}
			}
		}
	}
}
