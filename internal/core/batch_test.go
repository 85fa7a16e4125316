package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"matchfilter/internal/dfa"
	"matchfilter/internal/regexparse"
	"matchfilter/internal/trace"
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
// back state — then the panic re-raises out of Flush with TakeDead
// naming the offending flow's tag, and the batcher is left empty.
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
			if got := fmt.Sprint(b.TakeDead()); got != "[boom]" {
				t.Fatalf("TakeDead() = %v mid-unwind, want [boom]", got)
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
// Feed, the dead lane must not be written back, and TakeDead must name it.
func TestBatcherMixedWindow(t *testing.T) {
	flat := compileTest(t, dfa.LayoutFlat, "attack.*payload", "abc")
	classed := compileTest(t, dfa.LayoutClassed, "x[0-9]+y", "payload")
	counted, err := Compile(mustRules(t, "gh[^\n]{10,20}ij", "ab\n"), Options{})
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
			if got := fmt.Sprint(b.TakeDead()); got != "[boom]" {
				t.Fatalf("TakeDead() = %v mid-unwind, want [boom]", got)
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

// sequential feeds chunks to a fresh runner of m and returns its stream,
// printed context and position: the reference every batched lane is held to.
func sequential(m *MFA, chunks ...[]byte) (stream []MatchEvent, ctx string, pos int64) {
	r := m.NewRunner()
	for _, chunk := range chunks {
		r.Feed(chunk, func(id int32, pos int64) { stream = append(stream, MatchEvent{RuleID: id, Pos: pos}) })
	}
	return stream, fmt.Sprint(r.Context()), r.Pos()
}

// flushDead flushes b, requires a re-raised panic exactly when want is
// non-empty, and requires TakeDead to name want (as printed tags, sorted).
func flushDead(t *testing.T, b *FlowBatcher, want ...string) {
	t.Helper()
	func() {
		defer func() {
			if (recover() != nil) != (len(want) > 0) {
				t.Fatalf("Flush panicked: %v, want dead lanes %v", len(want) == 0, want)
			}
		}()
		b.Flush()
	}()
	var got []string
	for _, tag := range b.TakeDead() {
		got = append(got, fmt.Sprint(tag))
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("TakeDead() = %v, want %v", got, want)
	}
	if b.Len() != 0 || b.TakeDead() != nil {
		t.Fatalf("batcher not empty after flush: %d lanes", b.Len())
	}
}

// TestBatcherResumeEveryOffset kills one lane of a K = 4 window at every
// (lane, byte offset) in turn — every byte is an accept visit, so every
// strip position of every round, and the lone-survivor tail, is a panic
// site — and requires what the one-recover-per-window design must give:
// the siblings' streams and contexts equal sequential Feed (no byte
// repeated or skipped by the re-entry), and the dead lane stops at its
// panic and is the one named.
func TestBatcherResumeEveryOffset(t *testing.T) {
	m := compileTest(t, dfa.LayoutClassed, "a", "aaa")
	// Uneven lengths: rounds of 9, 8, 3 and a 3-byte tail, with a second
	// chunk behind lane 1's first.
	inputs := [][][]byte{
		{[]byte(strings.Repeat("a", 20))},
		{[]byte(strings.Repeat("a", 9)), []byte(strings.Repeat("a", 8))},
		{[]byte("aaaaaaaaa")},
		{[]byte(strings.Repeat("a", 23))},
	}
	for victim := range inputs {
		total := 0
		for _, chunk := range inputs[victim] {
			total += len(chunk)
		}
		for at := 0; at < total; at++ {
			b := NewFlowBatcher(4)
			runners := make([]*Runner, len(inputs))
			streams := make([][]MatchEvent, len(inputs))
			for li, chunks := range inputs {
				li := li
				runners[li] = m.NewRunner()
				cb := func(id int32, pos int64) {
					if li == victim && pos == int64(at) {
						panic("hostile callback")
					}
					streams[li] = append(streams[li], MatchEvent{RuleID: id, Pos: pos})
				}
				for _, chunk := range chunks {
					b.Add(runners[li], li, chunk, cb)
				}
			}
			flushDead(t, b, fmt.Sprint(victim))
			for li, chunks := range inputs {
				if li == victim {
					// Not written back — or, dying as the lone survivor in
					// Feed, left where lockstep handed it over.
					if got := runners[li].Pos(); got > int64(at) || len(streams[li]) != 2*at-min(at, 2) {
						t.Fatalf("victim %d at %d: dead lane at %d with %d matches", victim, at, got, len(streams[li]))
					}
					continue
				}
				want, wantCtx, wantPos := sequential(m, chunks...)
				if fmt.Sprint(streams[li]) != fmt.Sprint(want) {
					t.Fatalf("victim %d at %d: lane %d stream %v, sequential %v", victim, at, li, streams[li], want)
				}
				if got := fmt.Sprint(runners[li].Context()); got != wantCtx || runners[li].Pos() != wantPos {
					t.Fatalf("victim %d at %d: lane %d context %s at %d, sequential %s at %d",
						victim, at, li, got, runners[li].Pos(), wantCtx, wantPos)
				}
			}
		}
	}
}

// TestBatcherEveryDeadLaneNamed fills one K = 16 window and lets three
// flows' callbacks panic in three different strips. All three must be
// named — a dead lane that goes unreported keeps its flow alive with a
// runner one window behind its bytes — the panic re-raises once, and the
// other thirteen streams and contexts equal sequential Feed.
func TestBatcherEveryDeadLaneNamed(t *testing.T) {
	m := compileTest(t, dfa.LayoutClassed, "attack.*payload", "abc")
	hostile := map[int]int64{2: 2, 7: 13, 11: 29} // lane → offset of its first "abc" match: strips 0, 1 and 3
	b := NewFlowBatcher(MaxBatchFlows)
	inputs := make([][]byte, MaxBatchFlows)
	runners := make([]*Runner, MaxBatchFlows)
	streams := make([][]MatchEvent, MaxBatchFlows)
	for li := range inputs {
		li := li
		text := fmt.Sprintf("%02d attack abc with payload abc %s", li, strings.Repeat(".", li))
		if at, ok := hostile[li]; ok {
			text = strings.Repeat(".", int(at)-2) + "abc attack payload abc"
		}
		inputs[li] = []byte(text)
		runners[li] = m.NewRunner()
		b.Add(runners[li], li, inputs[li], func(id int32, pos int64) {
			if at, ok := hostile[li]; ok {
				if pos != at {
					t.Errorf("lane %d: first match at %d, test expects %d", li, pos, at)
				}
				panic(fmt.Sprint("hostile callback ", li))
			}
			streams[li] = append(streams[li], MatchEvent{RuleID: id, Pos: pos})
		})
	}
	flushDead(t, b, "11", "2", "7")
	for li, input := range inputs {
		if _, ok := hostile[li]; ok {
			continue
		}
		want, wantCtx, wantPos := sequential(m, input)
		if fmt.Sprint(streams[li]) != fmt.Sprint(want) || len(want) == 0 {
			t.Errorf("lane %d: batched %v, sequential %v", li, streams[li], want)
		}
		if got := fmt.Sprint(runners[li].Context()); got != wantCtx || runners[li].Pos() != wantPos {
			t.Errorf("lane %d: context %s at %d, sequential %s at %d", li, got, runners[li].Pos(), wantCtx, wantPos)
		}
	}
}

// TestBatcherSelfFlushPanicKeepsChunk checks the Add that finds the batch
// full: the flush it runs may re-raise a sibling's panic, but the chunk
// being added belongs to an innocent flow whose reassembler has already
// counted it delivered, so it must be queued regardless.
func TestBatcherSelfFlushPanicKeepsChunk(t *testing.T) {
	m := compileTest(t, dfa.LayoutClassed, "abc")
	b := NewFlowBatcher(2)
	b.Add(m.NewRunner(), "boom", []byte("abc"), func(int32, int64) { panic("hostile callback") })
	b.Add(m.NewRunner(), "ok", []byte("abc"), func(int32, int64) {})
	var late int
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("self-flush swallowed the panic")
			}
		}()
		b.Add(m.NewRunner(), "late", []byte("xabc"), func(int32, int64) { late++ })
	}()
	if got := fmt.Sprint(b.TakeDead()); got != "[boom]" || b.Len() != 1 {
		t.Fatalf("after the panicking Add: dead %s, %d lanes pending; want [boom], 1", got, b.Len())
	}
	flushDead(t, b)
	if late != 1 {
		t.Fatalf("chunk of the Add that self-flushed scanned %d matches, want 1", late)
	}
}

// TestBatcherRouting runs windows that mix accept-dense and sparse flows:
// C8 over text with a newline every tenth byte (an accept visit each)
// beside B217p over text that almost never reaches an accept state, plus a
// C8 flow whose text turns from newline-free to newline-dense mid-stream.
// Dense flows must leave lockstep for Feed after their first window, the
// crossing flow when its density crosses, and whichever loop scanned a
// chunk, the flow's stream and context must equal sequential Feed.
func TestBatcherRouting(t *testing.T) {
	c8, c8words := compileSets(t, Options{}, "C8")
	b217, _ := compileSets(t, Options{}, "B217p")
	const windows, seg = 6, 1460
	noNL := func(seed int64) []byte {
		return bytes.ReplaceAll(trace.TextLike(windows*seg, seed, c8words, 0.008), []byte("\n"), []byte(" "))
	}
	type lane struct {
		m     *MFA
		data  []byte
		dense []bool // r.dense expected after each window
	}
	always := func(v bool) []bool { return []bool{v, v, v, v, v, v} }
	lanes := []lane{
		{c8, trace.TextLike(windows*seg, 1, c8words, 0.008), always(true)},
		{b217, trace.TextLike(windows*seg, 2, nil, 0), always(false)},
		{c8, trace.TextLike(windows*seg, 3, c8words, 0.008), always(true)},
		{b217, trace.TextLike(windows*seg, 4, nil, 0), always(false)},
		// Sparse for three windows, then dense.
		{c8, append(noNL(5)[:3*seg:3*seg], trace.TextLike(3*seg, 6, c8words, 0.008)...), []bool{false, false, false, true, true, true}},
	}
	b := NewFlowBatcher(MaxBatchFlows)
	runners := make([]*Runner, len(lanes))
	streams := make([][]MatchEvent, len(lanes))
	for li, la := range lanes {
		runners[li] = la.m.NewRunner()
	}
	for w := 0; w < windows; w++ {
		for li, la := range lanes {
			li := li
			b.Add(runners[li], li, la.data[w*seg:(w+1)*seg], func(id int32, pos int64) {
				streams[li] = append(streams[li], MatchEvent{RuleID: id, Pos: pos})
			})
		}
		flushDead(t, b)
		for li, la := range lanes {
			if runners[li].dense != la.dense[w] {
				t.Errorf("window %d lane %d: dense = %v, want %v (%d visits in %d bytes)",
					w, li, runners[li].dense, la.dense[w], runners[li].visits, runners[li].Pos())
			}
		}
	}
	for li, la := range lanes {
		want, wantCtx, wantPos := sequential(la.m, la.data)
		if fmt.Sprint(streams[li]) != fmt.Sprint(want) {
			t.Errorf("lane %d: routed stream differs from sequential (%d vs %d matches)", li, len(streams[li]), len(want))
		}
		if got := fmt.Sprint(runners[li].Context()); got != wantCtx || runners[li].Pos() != wantPos {
			t.Errorf("lane %d: context %s at %d, sequential %s at %d", li, got, runners[li].Pos(), wantCtx, wantPos)
		}
	}
	if len(streams[0]) == 0 {
		t.Error("the dense lanes confirmed no match")
	}
	// Window 0 steps all five in lockstep; after it Add feeds lanes 0 and
	// 2 on arrival, and from window 4 on lane 4 too.
	nLanes, visits, lockstep, sequentialBytes := b.Counts()
	if want := int64(5 + 3*3 + 2*2); nLanes != want || lockstep != want*seg || lockstep+sequentialBytes != int64(len(lanes)*windows*seg) {
		t.Errorf("Counts: %d lanes, %d + %d bytes; want %d lanes, %d of %d bytes in lockstep",
			nLanes, lockstep, sequentialBytes, want, want*seg, len(lanes)*windows*seg)
	}
	var allVisits int64
	for _, r := range runners {
		allVisits += r.visits
	}
	if visits != allVisits || visits == 0 {
		t.Errorf("Counts visits = %d, runners saw %d", visits, allVisits)
	}
}

// The routing benchmarks scan every flow's bytes in benchSeg-byte chunks,
// benchBurst chunks a lane per flush: a shard's window.
const benchSeg, benchBurst = 1460, 16

// benchSequential scans each flow from its start through Feed alone.
func benchSequential(runners []*Runner, data [][]byte, cb MatchFunc) {
	for f, r := range runners {
		r.Reset()
		for lo := 0; lo < len(data[f]); lo += benchSeg {
			r.Feed(data[f][lo:min(lo+benchSeg, len(data[f]))], cb)
		}
	}
}

// benchBatched scans the same flows (of one length) through fb. With
// routing off every chunk is deferred, whatever its flow's last scan looked
// like, so all bytes go through the lockstep loop.
func benchBatched(fb *FlowBatcher, runners []*Runner, data [][]byte, cb MatchFunc, routing bool) {
	for _, r := range runners {
		r.Reset()
	}
	per := len(data[0])
	for base := 0; base < per; base += benchBurst * benchSeg {
		for lo := base; lo < min(base+benchBurst*benchSeg, per); lo += benchSeg {
			for f, r := range runners {
				if !routing {
					r.dense = false
				}
				fb.Add(r, f, data[f][lo:min(lo+benchSeg, per)], cb)
			}
		}
		fb.Flush()
	}
}

func newRunners(m *MFA, n int) []*Runner {
	runners := make([]*Runner, n)
	for f := range runners {
		runners[f] = m.NewRunner()
	}
	return runners
}

// BenchmarkLockstepAcceptDense scans the same bytes through a K = 16
// FlowBatcher, in windows shaped like a shard's (16 segments a lane), and
// through sequential Feed, on the two kinds of flow the batcher routes
// apart: C8 over text with an accept visit every tenth byte, which it
// hands to Feed's block loop after the first window (so the two rows
// should be level; BenchmarkRoutingSweep says what the hand-over is worth),
// and B217p over text that never matches, which it steps in lockstep — its
// sequential row is what a lane left alone runs.
func BenchmarkLockstepAcceptDense(b *testing.B) {
	const flows, per = MaxBatchFlows, 256 << 10
	for _, bc := range []struct{ name, set string }{{"dense-C8", "C8"}, {"sparse-B217p", "B217p"}} {
		m, words := compileSets(b, Options{}, bc.set)
		if bc.set == "B217p" {
			words = nil
		}
		data := make([][]byte, flows)
		for f := range data {
			data[f] = trace.TextLike(per, int64(131+f), words, 0.008)
		}
		cb := func(int32, int64) {}
		runners := newRunners(m, flows)
		b.Run(bc.name+"/sequential", func(b *testing.B) {
			b.SetBytes(flows * per)
			for i := 0; i < b.N; i++ {
				benchSequential(runners, data, cb)
			}
		})
		b.Run(bc.name+"/batched", func(b *testing.B) {
			b.SetBytes(flows * per)
			fb := NewFlowBatcher(MaxBatchFlows)
			for i := 0; i < b.N; i++ {
				benchBatched(fb, runners, data, cb, true)
			}
			_, visits, lockstep, sequentialBytes := fb.Counts()
			b.ReportMetric(float64(visits)/float64(lockstep+sequentialBytes), "visits/B")
			b.ReportMetric(float64(lockstep)/float64(lockstep+sequentialBytes), "lockstep-frac")
		})
	}
}

// BenchmarkRoutingSweep is the measurement acceptDenseDiv is read off
// (DESIGN.md §18): the same bytes through sequential Feed and through the
// lockstep loop with routing held off, across accept densities, on a
// narrow-set automaton (C8) and a wide-set one (S24 ∪ CTR24). The text is word-free and its line breaks — each an accept
// visit on both sets — are planted at the density under test; 16 flows of
// 64 KiB. The constant belongs just on the lockstep side of the density
// where the two columns cross; re-run this after any change to either
// loop (-bench RoutingSweep -cpu 1 -count 3, alternating with the parent's
// binary when the question is whether the crossover moved).
func BenchmarkRoutingSweep(b *testing.B) {
	const flows, per = MaxBatchFlows, 64 << 10
	plain := make([][]byte, flows)
	for f := range plain {
		plain[f] = bytes.ReplaceAll(trace.TextLike(per, int64(131+f), nil, 0), []byte("\n"), []byte(" "))
	}
	for _, bc := range []struct {
		name string
		sets []string
	}{{"C8", []string{"C8"}}, {"S24+CTR24", []string{"S24", "CTR24"}}} {
		m, _ := compileSets(b, Options{}, bc.sets...)
		runners := newRunners(m, flows)
		cb := func(int32, int64) {}
		for _, density := range []float64{0, 0.003, 0.01, 0.02, 0.03, 0.05, 0.07, 0.1, 0.2} {
			data := make([][]byte, flows)
			for f := range data {
				data[f] = bytes.Clone(plain[f])
				rng := rand.New(rand.NewSource(int64(977 + f)))
				for i := range data[f] {
					if rng.Float64() < density {
						data[f][i] = '\n'
					}
				}
			}
			name := fmt.Sprintf("%s/%g", bc.name, density)
			b.Run(name+"/sequential", func(b *testing.B) {
				b.SetBytes(flows * per)
				for i := 0; i < b.N; i++ {
					benchSequential(runners, data, cb)
				}
			})
			b.Run(name+"/lockstep", func(b *testing.B) {
				b.SetBytes(flows * per)
				fb := NewFlowBatcher(MaxBatchFlows)
				for i := 0; i < b.N; i++ {
					benchBatched(fb, runners, data, cb, false)
				}
				_, visits, lockstep, sequentialBytes := fb.Counts()
				if sequentialBytes != 0 {
					b.Fatalf("%d bytes left the lockstep loop", sequentialBytes)
				}
				b.ReportMetric(float64(visits)/float64(lockstep), "visits/B")
			})
		}
	}
}

// TestBatcherDenseFlowPanicsInAdd checks the scan-on-arrival path's fault
// contract: once a flow is accept-dense Add feeds it directly, so a panic
// of its callback surfaces from Add itself, names nobody in TakeDead (the
// caller knows which flow it was adding) and leaves the lanes pending in
// the batch untouched.
func TestBatcherDenseFlowPanicsInAdd(t *testing.T) {
	m := compileTest(t, dfa.LayoutClassed, "a")
	b := NewFlowBatcher(4)
	hot, hostile := m.NewRunner(), false
	cb := func(int32, int64) {
		if hostile {
			panic("hostile callback")
		}
	}
	b.Add(hot, "hot", []byte("aaaa"), cb)
	flushDead(t, b)
	if !hot.dense {
		t.Fatal("a flow matching on every byte was not marked accept-dense")
	}
	var cold int
	b.Add(m.NewRunner(), "cold", []byte("xxax"), func(int32, int64) { cold++ })
	hostile = true
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the dense flow's panic did not surface from Add")
			}
		}()
		b.Add(hot, "hot", []byte("aa"), cb)
	}()
	if dead := b.TakeDead(); dead != nil || b.Len() != 1 {
		t.Fatalf("after the panic: TakeDead %v, %d lanes pending; want none, 1", dead, b.Len())
	}
	flushDead(t, b)
	if cold != 1 {
		t.Fatalf("pending lane scanned %d matches after a sibling's Add panicked, want 1", cold)
	}
}
