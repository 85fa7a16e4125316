package core

import (
	"fmt"
	"strings"
	"testing"

	"matchfilter/internal/dfa"
	"matchfilter/internal/regexparse"
)

func compileTest(t testing.TB, layout dfa.Layout, sources ...string) *MFA {
	t.Helper()
	rules := make([]Rule, len(sources))
	for i, src := range sources {
		p, err := regexparse.ParsePCRE(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		rules[i] = Rule{Pattern: p, ID: int32(i + 1)}
	}
	m, err := Compile(rules, Options{DFA: dfa.Options{Layout: layout}})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBatcherSameRunnerChunkOrder checks that multiple Adds for one
// flow inside a single batch scan in arrival order: a match spanning
// the chunk boundary must be found exactly as in a sequential scan.
func TestBatcherSameRunnerChunkOrder(t *testing.T) {
	for _, layout := range []dfa.Layout{dfa.LayoutFlat, dfa.LayoutClassed} {
		m := compileTest(t, layout, "attack.*payload", "abc")
		input := []byte("xx abc attack with payload yy")
		want := fmt.Sprint(m.Run(input))

		b := NewFlowBatcher(8)
		r := m.NewRunner()
		var got []MatchEvent
		cb := func(id int32, pos int64) { got = append(got, MatchEvent{RuleID: id, Pos: pos}) }
		// Split mid-"attack" and mid-"payload": both chunks must land in
		// the same lane, in order. Add a second flow so Flush actually
		// locksteps rather than falling back to the single-lane path.
		r2 := m.NewRunner()
		b.Add(r, "f1", input[:9], cb)
		b.Add(r2, "f2", []byte("no matches here"), func(int32, int64) {})
		b.Add(r, "f1", input[9:23], cb)
		b.Add(r, "f1", input[23:], cb)
		if b.Len() != 2 {
			t.Fatalf("layout %v: Len = %d, want 2 lanes", layout, b.Len())
		}
		if !b.Contains(r) || b.Contains(m.NewRunner()) {
			t.Fatalf("layout %v: Contains misreports", layout)
		}
		b.Flush()
		if fmt.Sprint(got) != want {
			t.Fatalf("layout %v: batched %v, want %s", layout, got, want)
		}
	}
}

// TestBatcherMixedLayouts puts runners of both layouts (two distinct
// MFAs) into one batch — the multi-tenant shard case — and checks every
// flow's stream against its own sequential reference.
func TestBatcherMixedLayouts(t *testing.T) {
	sources := []string{"attack.*payload", "abc", "x[0-9]+y"}
	mfas := []*MFA{
		compileTest(t, dfa.LayoutFlat, sources...),
		compileTest(t, dfa.LayoutClassed, sources...),
	}
	inputs := [][]byte{
		[]byte("xx abc attack with payload x12y"),
		[]byte("abcabcabc x999y zz"),
		[]byte(strings.Repeat("attack payload ", 5)),
		[]byte("no hits at all......"),
		[]byte("x1y"),
		[]byte("attack abc payload"),
	}
	b := NewFlowBatcher(MaxBatchFlows)
	streams := make([][]MatchEvent, len(inputs))
	for fi, input := range inputs {
		m := mfas[fi%len(mfas)]
		fi := fi
		b.Add(m.NewRunner(), fi, input, func(id int32, pos int64) {
			streams[fi] = append(streams[fi], MatchEvent{RuleID: id, Pos: pos})
		})
	}
	b.Flush()
	for fi, input := range inputs {
		want := fmt.Sprint(mfas[fi%len(mfas)].Run(input))
		if got := fmt.Sprint(streams[fi]); got != want {
			t.Fatalf("flow %d: got %s, want %s", fi, got, want)
		}
	}
}

// TestBatcherMixedMFAsSameLayout puts runners of two *different* MFAs
// sharing one layout into a batch, so lanes walk different tables. Every
// flow's stream must still match its own sequential reference.
func TestBatcherMixedMFAsSameLayout(t *testing.T) {
	for _, layout := range []dfa.Layout{dfa.LayoutFlat, dfa.LayoutClassed} {
		mfas := []*MFA{
			compileTest(t, layout, "attack.*payload", "abc"),
			compileTest(t, layout, "x[0-9]+y", "payload"),
		}
		inputs := [][]byte{
			[]byte("xx abc attack with payload x12y"),
			[]byte("abc x999y payload zz"),
			[]byte(strings.Repeat("attack payload x1y ", 4)),
			[]byte("no hits at all. odd len"),
		}
		b := NewFlowBatcher(MaxBatchFlows)
		streams := make([][]MatchEvent, len(inputs))
		for fi, input := range inputs {
			fi := fi
			b.Add(mfas[fi%2].NewRunner(), fi, input, func(id int32, pos int64) {
				streams[fi] = append(streams[fi], MatchEvent{RuleID: id, Pos: pos})
			})
		}
		b.Flush()
		for fi, input := range inputs {
			want := fmt.Sprint(mfas[fi%2].Run(input))
			if got := fmt.Sprint(streams[fi]); got != want {
				t.Fatalf("layout %v flow %d: got %s, want %s", layout, fi, got, want)
			}
		}
	}
}

// TestBatcherRejectsForeignRunner checks the inline-fallback contract:
// a runner that is not a *core.Runner (e.g. a fault-injection
// decorator) is refused so the caller scans it inline.
func TestBatcherRejectsForeignRunner(t *testing.T) {
	b := NewFlowBatcher(4)
	if b.Add(struct{ any }{}, "tag", []byte("data"), func(int32, int64) {}) {
		t.Fatal("batcher accepted a non-core runner")
	}
	if b.Contains(struct{ any }{}) {
		t.Fatal("Contains true for a non-core runner")
	}
	if b.Len() != 0 {
		t.Fatal("refused Add left residue")
	}
}

// TestBatcherFullBatchSelfFlush checks that Add beyond the batch width
// flushes the pending lanes first — no silent eviction, no lost work.
func TestBatcherFullBatchSelfFlush(t *testing.T) {
	m := compileTest(t, dfa.LayoutClassed, "abc")
	b := NewFlowBatcher(2)
	var total int
	cb := func(int32, int64) { total++ }
	for i := 0; i < 5; i++ {
		b.Add(m.NewRunner(), i, []byte("xabcx"), cb)
	}
	if b.Len() != 1 { // 2+2 flushed, fifth pending
		t.Fatalf("Len = %d after 5 adds at width 2, want 1", b.Len())
	}
	b.Flush()
	if total != 5 {
		t.Fatalf("got %d matches across self-flushed batches, want 5", total)
	}
}

// TestBatcherPanicLeavesBatchEmpty checks the fault-isolation contract
// the shard depends on: a panic in one flow's match callback kills only
// that lane — sibling lanes still deliver all their matches and write
// back state — then the panic re-raises out of Flush with Scanning
// identifying the offending flow's tag, and the batcher is left empty.
func TestBatcherPanicLeavesBatchEmpty(t *testing.T) {
	m := compileTest(t, dfa.LayoutClassed, "abc")
	var ok1, ok2 int
	b := NewFlowBatcher(8)
	b.Add(m.NewRunner(), "ok-1", []byte("abc abc"), func(int32, int64) { ok1++ })
	b.Add(m.NewRunner(), "boom", []byte("xx abc"), func(int32, int64) { panic("hostile callback") })
	b.Add(m.NewRunner(), "ok-2", []byte("abc"), func(int32, int64) { ok2++ })

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
			if got := b.Scanning(); got != "boom" {
				t.Fatalf("Scanning() = %v mid-unwind, want \"boom\"", got)
			}
		}()
		b.Flush()
	}()
	if b.Len() != 0 {
		t.Fatalf("batcher holds %d lanes after panic, want 0", b.Len())
	}
	if ok1 != 2 || ok2 != 1 {
		t.Fatalf("sibling lanes lost matches to the panic: ok1=%d ok2=%d, want 2,1", ok1, ok2)
	}
	// The batcher must be reusable afterwards.
	var n int
	b.Add(m.NewRunner(), "after", []byte("abc"), func(int32, int64) { n++ })
	b.Flush()
	if n != 1 {
		t.Fatalf("post-panic batch scanned %d matches, want 1", n)
	}
}

// TestBatcherWriteBackState checks that after a flush every runner
// holds the same (state, pos) context it would after sequential Feeds —
// the property flow teardown and hot reload rely on when they capture
// contexts from recently batched runners.
func TestBatcherWriteBackState(t *testing.T) {
	for _, layout := range []dfa.Layout{dfa.LayoutFlat, dfa.LayoutClassed} {
		m := compileTest(t, layout, "attack.*payload", "abc")
		inputs := [][]byte{
			[]byte("xx abc attack wi"),   // even length
			[]byte("odd abc attack wi."), // odd length
			[]byte("attack with paylo"),
		}
		b := NewFlowBatcher(8)
		batched := make([]*Runner, len(inputs))
		for fi, input := range inputs {
			batched[fi] = m.NewRunner()
			b.Add(batched[fi], fi, input, func(int32, int64) {})
		}
		b.Flush()
		for fi, input := range inputs {
			seq := m.NewRunner()
			seq.Feed(input, func(int32, int64) {})
			bs, _, _, _ := batched[fi].Context()
			ss, _, _, _ := seq.Context()
			if bs != ss || batched[fi].Pos() != seq.Pos() {
				t.Fatalf("layout %v flow %d: batched context (%d,%d) != sequential (%d,%d)",
					layout, fi, bs, batched[fi].Pos(), ss, seq.Pos())
			}
			if bs >= uint32(m.Stats().DFAStates) {
				t.Fatalf("layout %v flow %d: written-back state %d is not a plain state number", layout, fi, bs)
			}
		}
	}
}

// TestBatcherMixedWindow is the case the single lockstep loop makes new:
// one flush window whose lanes walk a flat table, a classed table of a
// different rule set and a counter-bearing automaton — lanes that used to
// be partitioned into separate loops — with uneven chunk lengths, a
// second Add for a live lane, and one lane's callback panicking in the
// middle of a strip. Sibling streams and contexts must equal sequential
// Feed, the dead lane must not be written back, and Scanning must name it.
func TestBatcherMixedWindow(t *testing.T) {
	flat := compileTest(t, dfa.LayoutFlat, "attack.*payload", "abc")
	classed := compileTest(t, dfa.LayoutClassed, "x[0-9]+y", "payload")
	counted, err := Compile(mustRules(t, "gh[^\n]{10,20}ij", "ab\n"), counterOpts())
	if err != nil {
		t.Fatal(err)
	}
	if counted.Stats().Counters == 0 {
		t.Fatal("counter set compiled without counter registers")
	}

	type lane struct {
		m      *MFA
		chunks []string // the first goes in with Add, the rest queue behind it
	}
	lanes := []lane{
		{flat, []string{"xx abc attack with ", "payload abc"}},
		{classed, []string{"x12y payload x999y and a much longer tail: payload x1y"}},
		{counted, []string{"gh..........ij\nab\ngh.", "...\n......ij ab\n"}},
		{flat, []string{"abc"}},
		{classed, []string{"x7y"}},
	}
	// The hostile lane: its third match lands at offset 10, inside the
	// second strip, after two strips' worth of siblings have stepped.
	const boom = "abcabc  abc abc"

	b := NewFlowBatcher(MaxBatchFlows)
	runners := make([]*Runner, len(lanes))
	streams := make([][]MatchEvent, len(lanes))
	for li, la := range lanes {
		li := li
		runners[li] = la.m.NewRunner()
		b.Add(runners[li], li, []byte(la.chunks[0]), func(id int32, pos int64) {
			streams[li] = append(streams[li], MatchEvent{RuleID: id, Pos: pos})
		})
	}
	hostile := flat.NewRunner()
	hostile.Feed([]byte("zz"), func(int32, int64) {}) // a context to not write over
	var hits int
	b.Add(hostile, "boom", []byte(boom), func(int32, int64) {
		if hits++; hits == 3 {
			panic("hostile callback")
		}
	})
	for li, la := range lanes { // second Add for the live lanes
		for _, chunk := range la.chunks[1:] {
			li := li
			b.Add(runners[li], li, []byte(chunk), func(id int32, pos int64) {
				streams[li] = append(streams[li], MatchEvent{RuleID: id, Pos: pos})
			})
		}
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
			if got := b.Scanning(); got != "boom" {
				t.Fatalf("Scanning() = %v mid-unwind, want \"boom\"", got)
			}
		}()
		b.Flush()
	}()

	for li, la := range lanes {
		seq := la.m.NewRunner()
		var want []MatchEvent
		for _, chunk := range la.chunks {
			seq.Feed([]byte(chunk), func(id int32, pos int64) {
				want = append(want, MatchEvent{RuleID: id, Pos: pos})
			})
		}
		if fmt.Sprint(streams[li]) != fmt.Sprint(want) {
			t.Errorf("lane %d: batched %v, sequential %v", li, streams[li], want)
		}
		if got, want := fmt.Sprint(runners[li].Context()), fmt.Sprint(seq.Context()); got != want || runners[li].Pos() != seq.Pos() {
			t.Errorf("lane %d: context %s at %d, sequential %s at %d", li, got, runners[li].Pos(), want, seq.Pos())
		}
	}
	if len(streams[2]) == 0 {
		t.Error("the counter lane confirmed no match; the window did not exercise its accept path")
	}
	if st, _, _, _ := hostile.Context(); hostile.Pos() != 2 || st != flat.DFA().Next(flat.DFA().Next(flat.DFA().Start(), 'z'), 'z') {
		t.Errorf("dead lane was written back: state %d pos %d", st, hostile.Pos())
	}
}
