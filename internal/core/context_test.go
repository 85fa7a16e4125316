package core

// Flow-context save/restore correctness: SetContext is the one door
// through which external state (a serialized flow table, a handoff
// between processes, a corrupted or hostile snapshot) re-enters the
// matcher, so it must validate what it is given and must never leave the
// runner with residue from its previous flow.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"testing"

	"matchfilter/internal/filter"
)

func feedEvents(r *Runner, data []byte) []event {
	var out []event
	r.Feed(data, func(id int32, pos int64) { out = append(out, event{id, pos}) })
	return out
}

// Corrupt contexts are rejected with ErrBadContext and leave the runner
// serviceable from the initial state.
func TestSetContextRejectsCorrupt(t *testing.T) {
	m := compileMFA(t, Options{}, "attack.*payload", "aa.{3,}bb")
	states := uint32(m.Stats().DFAStates)

	cases := []struct {
		name string
		call func(r *Runner) error
	}{
		{"state out of range", func(r *Runner) error {
			return r.SetContext(states, nil, nil, nil, 0)
		}},
		{"state far out of range", func(r *Runner) error {
			return r.SetContext(^uint32(0), nil, nil, nil, 0)
		}},
		{"negative position", func(r *Runner) error {
			return r.SetContext(0, nil, nil, nil, -1)
		}},
		{"oversized memory", func(r *Runner) error {
			_, mem, _, _ := r.Context()
			return r.SetContext(0, append(mem, 0), nil, nil, 0)
		}},
		{"oversized registers", func(r *Runner) error {
			_, _, regs, _ := r.Context()
			return r.SetContext(0, nil, append(regs, 0), nil, 0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := m.NewRunner()
			err := tc.call(r)
			if !errors.Is(err, ErrBadContext) {
				t.Fatalf("err = %v, want ErrBadContext", err)
			}
			// The runner was reset, not wedged: it still matches from q0.
			evs := feedEvents(r, []byte("attack ... payload"))
			if len(evs) != 1 || evs[0].id != 1 {
				t.Fatalf("runner unusable after rejected context: %v", evs)
			}
		})
	}

	// A context a runner actually produced is always accepted.
	r := m.NewRunner()
	r.Feed([]byte("attack at"), nil)
	state, mem, regs, ctrs := r.Context()
	if err := m.NewRunner().SetContext(state, mem, regs, ctrs, r.Pos()); err != nil {
		t.Fatalf("genuine context rejected: %v", err)
	}
}

// Restoring a context must REPLACE the runner's state, not merge with
// it: a short (or nil) memory image means "those bits are zero", so a
// runner that had progressed must forget that progress entirely.
func TestSetContextClearsStaleState(t *testing.T) {
	m := compileMFA(t, Options{}, "ab.*cd")

	// Advance past the prefix: the split's test-bit for "ab" is now set.
	r := m.NewRunner()
	r.Feed([]byte("ab"), nil)

	// Restore a start-of-flow context (fresh runner's own snapshot, with
	// nil mem — the sparse spelling of "all zero").
	fresh := m.NewRunner()
	state, _, _, _ := fresh.Context()
	if err := r.SetContext(state, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	if evs := feedEvents(r, []byte("cd")); len(evs) != 0 {
		t.Fatalf("stale prefix memory survived SetContext: %v", evs)
	}
	// The restored runner still works as a fresh flow.
	if evs := feedEvents(r, []byte("ab..cd")); len(evs) != 1 {
		t.Fatalf("restored runner broken: %v", evs)
	}
}

// Same property for counting state: position registers from the old flow
// must not leak through a restore that doesn't mention them.
func TestSetContextClearsStaleRegisters(t *testing.T) {
	m := compileMFA(t, Options{}, "aa.{3,}bb")

	r := m.NewRunner()
	r.Feed([]byte("aaxxxxx"), nil) // register armed, gap satisfied

	fresh := m.NewRunner()
	state, _, _, _ := fresh.Context()
	if err := r.SetContext(state, nil, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	if evs := feedEvents(r, []byte("bb")); len(evs) != 0 {
		t.Fatalf("stale position register survived SetContext: %v", evs)
	}
	if evs := feedEvents(r, []byte("aaxxxbb")); len(evs) != 1 {
		t.Fatalf("restored runner broken: %v", evs)
	}
}

// SelfCheck accepts healthy builds of both constructions and of a
// 256-column table (the reload gate must not reject good automata) and
// its trace is the pinned one.
func TestSelfCheckPasses(t *testing.T) {
	for _, opts := range []Options{{}, paperConditions} {
		m := compileMFA(t, opts, "attack.*payload", "evil", "aa.{3,}bb")
		if err := m.SelfCheck(); err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
	}
	if err := compileTest(t, everyByte()...).SelfCheck(); err != nil {
		t.Fatalf("256 classes: %v", err)
	}
	// The trace is pinned: every reload validates against these bytes, so
	// a change to them must change this hash too.
	const want = "61418f95d318fd367b94cfe5add855a61ba6fea95dd350c7dda2dccfaaf5b5cf"
	if got := fmt.Sprintf("%x", sha256.Sum256(selfCheckTrace())); got != want {
		t.Fatalf("self-check trace SHA-256 %s, want %s", got, want)
	}
}

// A restored counter witness must still die at the next line end. The
// counters' live summary is what lets a line end skip the reset of a
// counter that holds nothing, and it is not part of the context: SetContext
// rebuilds it from the blocks it is given. Were it left clear, the reset
// after a restore would be skipped and the stale witness would confirm a
// match across the line break. Checked for the runner's own context, for a
// context written out by hand in the layout every earlier commit saved (so
// old contexts keep restoring), and for truncated and absent counter images,
// under Feed and under lockstep at K ∈ {1, 4, 16}.
func TestRestoredWitnessDiesAtLineEnd(t *testing.T) {
	rules := mustRules(t, "gh[^\n]{10,20}ij", "kl[^\n]*mn")
	m, err := Compile(rules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gt := groundTruth(t, rules)
	head := []byte("klxgh") // cut right after the A-word: its witness (pos 4) is live
	donor := m.NewRunner()
	donor.Feed(head, nil)
	state, mem, regs, ctrs := donor.Context()
	// gh's counter: window [12, 22], so a base word and two bitmap words.
	literal := filter.Counters{0, 1 << 4, 0}
	if !slices.Equal(ctrs, literal) {
		t.Fatalf("saved counter image %v, want %v: the context layout changed", ctrs, literal)
	}
	broken := []byte("\n............ij") // B 16 bytes after A, a line end between them
	whole := []byte(".............ij")   // the same distance on one line
	var wantWhole []event
	for _, ev := range dfaEvents(gt, append(slices.Clone(head), whole...)) {
		if ev.pos >= int64(len(head)) {
			wantWhole = append(wantWhole, ev)
		}
	}
	if len(wantWhole) != 1 || len(dfaEvents(gt, append(slices.Clone(head), broken...))) != 0 {
		t.Fatalf("undecomposed DFA: %v on one line, want one match there and none across the line end", wantWhole)
	}
	for _, tc := range []struct {
		name    string
		ctrs    filter.Counters
		witness bool // the restored image still holds the witness
	}{
		{"the runner's own context", ctrs, true},
		{"a context literal in the saved layout", literal, true},
		{"counters cut mid-block, witness kept", literal[:2], true},
		{"counters cut mid-block, witness lost", literal[:1], false},
		{"no counters", nil, false},
	} {
		for _, k := range []int{0, 1, 4, 16} { // 0: plain Feed
			for _, tail := range [][]byte{broken, whole} {
				var want []event
				if tc.witness && &tail[0] == &whole[0] {
					want = wantWhole
				}
				const flows = 5
				streams := make([][]event, flows)
				b := NewFlowBatcher(max(k, 1))
				for fi := range streams {
					r := m.NewRunner()
					if err := r.SetContext(state, mem, regs, tc.ctrs, int64(len(head))); err != nil {
						t.Fatalf("%s: %v", tc.name, err)
					}
					fi := fi
					cb := func(id int32, pos int64) { streams[fi] = append(streams[fi], event{id, pos}) }
					if k == 0 {
						r.Feed(tail, cb)
					} else if !b.Add(r, fi, tail, cb) {
						t.Fatal("batcher refused a runner")
					}
				}
				b.Flush()
				for fi, got := range streams {
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("%s, k=%d, flow %d, tail %q: stream %v, want %v", tc.name, k, fi, tail, got, want)
					}
				}
			}
		}
	}
}
