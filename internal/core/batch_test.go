package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"matchfilter/internal/regexparse"
	"matchfilter/internal/trace"
)

func compileTest(t testing.TB, sources ...string) *MFA {
	t.Helper()
	rules := make([]Rule, len(sources))
	for i, src := range sources {
		p, err := regexparse.ParsePCRE(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		rules[i] = Rule{Pattern: p, ID: int32(i + 1)}
	}
	m, err := Compile(rules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// everyByte is 256 one-byte rules, \x00 … \xff: every byte value is its
// own class, so the automaton walks 256 columns under the identity map.
func everyByte() []string {
	srcs := make([]string, 256)
	for b := range srcs {
		srcs[b] = fmt.Sprintf(`\x%02x`, b)
	}
	return srcs
}

// bothWidths returns the MFA of sources and that of everyByte: a class
// quotient and the 256 columns of the identity map.
func bothWidths(t testing.TB, sources ...string) []*MFA {
	return []*MFA{compileTest(t, sources...), compileTest(t, everyByte()...)}
}

// TestBatcherSameRunnerChunkOrder checks that multiple Adds for one
// flow inside a single batch scan in arrival order: a match spanning
// the chunk boundary must be found exactly as in a sequential scan.
func TestBatcherSameRunnerChunkOrder(t *testing.T) {
	for _, m := range bothWidths(t, "attack.*payload", "abc") {
		classes := m.Stats().DFAClasses
		input := []byte("xx abc attack with payload yy")
		want := fmt.Sprint(m.Run(input))

		b := NewFlowBatcher(8)
		r := m.NewRunner()
		var got []MatchEvent
		cb := func(id int32, pos int64) { got = append(got, MatchEvent{RuleID: id, Pos: pos}) }
		// Split mid-"attack" and mid-"payload": both chunks must land in
		// the same lane, in order. Add three more flows of the table so
		// Flush walks a quad rather than handing lanes no quad takes to
		// Feed.
		b.Add(r, "f1", input[:9], cb)
		for _, tag := range []string{"f2", "f3", "f4"} {
			b.Add(m.NewRunner(), tag, []byte("no matches here"), func(int32, int64) {})
		}
		b.Add(r, "f1", input[9:23], cb)
		b.Add(r, "f1", input[23:], cb)
		if b.Len() != 4 {
			t.Fatalf("%d classes: Len = %d, want 4 lanes", classes, b.Len())
		}
		if !b.Contains(r) || b.Contains(m.NewRunner()) {
			t.Fatalf("%d classes: Contains misreports", classes)
		}
		b.Flush()
		if fmt.Sprint(got) != want {
			t.Fatalf("%d classes: batched %v, want %s", classes, got, want)
		}
	}
}

// TestBatcherMixedLayouts puts runners of two MFAs whose tables differ in
// width — a class quotient and 256 columns — into one batch, the
// multi-tenant shard case, and checks every flow's stream against its own
// sequential reference.
func TestBatcherMixedLayouts(t *testing.T) {
	mfas := bothWidths(t, "attack.*payload", "abc", "x[0-9]+y")
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
// into a batch, so lanes walk different tables. Every flow's stream must
// still match its own sequential reference.
func TestBatcherMixedMFAsSameLayout(t *testing.T) {
	mfas := []*MFA{
		compileTest(t, "attack.*payload", "abc"),
		compileTest(t, "x[0-9]+y", "payload"),
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
			t.Fatalf("flow %d: got %s, want %s", fi, got, want)
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
	m := compileTest(t, "abc")
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
	m := compileTest(t, "abc")
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
	for _, m := range bothWidths(t, "attack.*payload", "abc") {
		classes := m.Stats().DFAClasses
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
				t.Fatalf("%d classes flow %d: batched context (%d,%d) != sequential (%d,%d)",
					classes, fi, bs, batched[fi].Pos(), ss, seq.Pos())
			}
			if bs >= uint32(m.Stats().DFAStates) {
				t.Fatalf("%d classes flow %d: written-back state %d is not a plain state number", classes, fi, bs)
			}
		}
	}
}

// TestBatcherMixedWindow: one flush window whose lanes walk a 256-column
// table, a class quotient of a different rule set and a counter-bearing
// automaton, arriving interleaved — the partition must gather five wide
// lanes into a quad and a leftover, four classed ones into a quad, and
// leave the two counter lanes over — with uneven chunk lengths and second
// Adds for live lanes. Two callbacks panic: a wide lane's in the middle of
// its quad's first drain, which breaks the quad (its survivors leave for
// Feed at the strip's end), and a counter lane's, which no quad took, in
// Feed. After the first round the classed quad's three survivors leave for
// Feed too. Sibling streams and contexts must equal sequential Feed, the
// lane that died in lockstep must not be written back, the one that died
// in Feed must be left where its last whole chunk took it (the lone-lane
// contract), and TakeDead must name both.
func TestBatcherMixedWindow(t *testing.T) {
	wide := compileTest(t, everyByte()...)
	classed := compileTest(t, "x[0-9]+y", "payload")
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
		{wide, []string{"xx abc attack with ", "payload abc"}},
		{classed, []string{"x12y payload x999y and a much longer tail: payload x1y"}},
		{counted, []string{"gh..........ij\nab\ngh.", "...\n......ij ab\n"}},
		{wide, []string{"abc"}},
		{classed, []string{"x7y"}},
		{wide, []string{strings.Repeat("attack abc ", 12), "payload"}},
		{classed, []string{strings.Repeat("x1y payload ", 10)}},
		{wide, []string{strings.Repeat("abc.", 30)}},
		{classed, []string{strings.Repeat("..x42y", 20)}},
	}
	// The hostile lanes, added after lane 2: a wide one whose first match
	// lands at offset 0, in the first round's one strip (three bytes, the
	// length of lanes 3 and 4), where it walks in a quad with lanes 0, 3 and
	// 5; and a counter lane, left over with lane 2, whose second match is in
	// its second chunk.
	const boom = "abcabc  abc abc"
	victim := []string{"ab\nab", "\ngh..........ij\n"}

	// The partition of the lanes as they arrive.
	arrival := make([]*batchLane, 0, len(lanes)+2)
	for li, la := range lanes {
		arrival = append(arrival, &batchLane{r: la.m.NewRunner()})
		if li == 2 {
			arrival = append(arrival, &batchLane{r: wide.NewRunner()}, &batchLane{r: counted.NewRunner()})
		}
	}
	if quads := partition(arrival); quads != 2 {
		t.Fatalf("partition made %d quads of 5 wide, 4 classed and 2 counter lanes, want 2", quads)
	}
	for x, la := range arrival {
		if x < 8 && la.r.mfa != arrival[x&^3].r.mfa {
			t.Fatalf("partition: lane %d of quad %d walks another table", x%4, x/4)
		}
	}
	var wides, counters int
	for _, la := range arrival[8:] {
		switch la.r.mfa {
		case wide:
			wides++
		case counted:
			counters++
		}
	}
	if wides != 1 || counters != 2 {
		t.Fatalf("partition: %d wide and %d counter lanes left over, want 1 and 2", wides, counters)
	}

	b := NewFlowBatcher(MaxBatchFlows)
	runners := make([]*Runner, len(lanes))
	streams := make([][]MatchEvent, len(lanes))
	hostile := wide.NewRunner()
	hostile.Feed([]byte("zz"), func(int32, int64) {}) // a context to not write over
	left := counted.NewRunner()
	var leftHits []int64
	leftCB := func(_ int32, pos int64) {
		if leftHits = append(leftHits, pos); len(leftHits) == 2 {
			panic("hostile callback")
		}
	}
	for li, la := range lanes {
		runners[li] = la.m.NewRunner()
		b.Add(runners[li], li, []byte(la.chunks[0]), func(id int32, pos int64) {
			streams[li] = append(streams[li], MatchEvent{RuleID: id, Pos: pos})
		})
		if li == 2 {
			b.Add(hostile, "boom", []byte(boom), func(int32, int64) { panic("hostile callback") })
			b.Add(left, "left", []byte(victim[0]), leftCB)
		}
	}
	b.Add(left, "left", []byte(victim[1]), leftCB)
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
			if got := fmt.Sprint(b.TakeDead()); got != "[left boom]" {
				t.Fatalf("TakeDead() = %v mid-unwind, want [left boom]", got)
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
	if st, _, _, _ := hostile.Context(); hostile.Pos() != 2 || st != wide.DFA().Next(wide.DFA().Next(wide.DFA().Start(), 'z'), 'z') {
		t.Errorf("dead lane was written back: state %d pos %d", st, hostile.Pos())
	}
	// Fed its first chunk whole, it died in its second: the first chunk's
	// state and position, and its visits up to the panic.
	want := counted.NewRunner()
	want.Feed([]byte(victim[0]), func(int32, int64) {})
	if got, wantCtx := fmt.Sprint(left.Context()), fmt.Sprint(want.Context()); got != wantCtx || left.Pos() != want.Pos() || fmt.Sprint(leftHits) != "[2 5]" {
		t.Errorf("lane dead in Feed: context %s at %d after matches %v, want %s at %d after [2 5]", got, left.Pos(), leftHits, wantCtx, want.Pos())
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

// TestBatcherResumeEveryOffset kills one lane of a window at every (lane,
// byte offset) in turn — every byte is an accept visit, so every strip
// position of every round, and the lone-survivor tail, is a panic site —
// and requires what the one-recover-per-window design must give: the
// siblings' streams and contexts equal sequential Feed (no byte repeated or
// skipped by the re-entry), and the dead lane stops at its panic and is
// the one named. At K = 4 the lanes are one quad, walked through the
// kernel and drained a strip at a time, and a death breaks the quad; at
// K = 6 two more lanes take the leftover interleave beside it.
func TestBatcherResumeEveryOffset(t *testing.T) {
	m := compileTest(t, "a", "aaa")
	as := func(n int) []byte { return []byte(strings.Repeat("a", n)) }
	// Uneven lengths, rounds longer than a strip and not a multiple of one,
	// and second chunks queued behind lanes 1 and 5.
	all := [][][]byte{
		{as(150)},
		{as(70), as(80)},
		{as(140)},
		{as(200)},
		{as(90)},
		{as(130), as(5)},
	}
	for _, k := range []int{4, 6} {
		inputs := all[:k]
		for victim := range inputs {
			total := 0
			for _, chunk := range inputs[victim] {
				total += len(chunk)
			}
			for at := 0; at < total; at++ {
				b := NewFlowBatcher(k)
				runners := make([]*Runner, len(inputs))
				streams := make([][]MatchEvent, len(inputs))
				for li, chunks := range inputs {
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
							t.Fatalf("K=%d victim %d at %d: dead lane at %d with %d matches", k, victim, at, got, len(streams[li]))
						}
						continue
					}
					want, wantCtx, wantPos := sequential(m, chunks...)
					if fmt.Sprint(streams[li]) != fmt.Sprint(want) {
						t.Fatalf("K=%d victim %d at %d: lane %d stream %v, sequential %v", k, victim, at, li, streams[li], want)
					}
					if got := fmt.Sprint(runners[li].Context()); got != wantCtx || runners[li].Pos() != wantPos {
						t.Fatalf("K=%d victim %d at %d: lane %d context %s at %d, sequential %s at %d",
							k, victim, at, li, got, runners[li].Pos(), wantCtx, wantPos)
					}
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
	m := compileTest(t, "attack.*payload", "abc")
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
	m := compileTest(t, "abc")
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
// Dense flows must be scanned on arrival after their first window, the
// crossing flow when its density crosses, and whichever path scanned a
// chunk, the flow's stream and context must equal sequential Feed. Its
// windows hold no quad, so the bytes Add defers are Feed's too (Counts).
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
	// Window 0 defers all five; after it Add feeds lanes 0 and 2 on
	// arrival, and from window 4 on lane 4 too. No window holds four lanes
	// of one table, so no quad forms and every deferred byte is scanned by
	// Feed as well: the lanes no quad takes leave lockstep.
	nLanes, visits, lockstep, sequentialBytes := b.Counts()
	if want := int64(5 + 3*3 + 2*2); nLanes != want || lockstep != 0 || sequentialBytes != int64(len(lanes)*windows*seg) {
		t.Errorf("Counts: %d lanes, %d + %d bytes; want %d lanes, all %d bytes in Feed",
			nLanes, lockstep, sequentialBytes, want, len(lanes)*windows*seg)
	}
	var allVisits int64
	for _, r := range runners {
		allVisits += r.visits
	}
	if visits != allVisits || visits == 0 {
		t.Errorf("Counts visits = %d, runners saw %d", visits, allVisits)
	}
}

// The routing benchmarks scan every flow's bytes in seg-byte chunks (a
// full-sized segment, benchSeg, unless a row says otherwise), benchBurst
// chunks a lane per flush: a shard's window.
const benchSeg, benchBurst = 1460, 16

// benchSequential scans each flow from its start through Feed alone.
func benchSequential(runners []*Runner, data [][]byte, seg int, cb MatchFunc) {
	for f, r := range runners {
		r.Reset()
		for lo := 0; lo < len(data[f]); lo += seg {
			r.Feed(data[f][lo:min(lo+seg, len(data[f]))], cb)
		}
	}
}

// benchBatched scans the same flows (of one length) through fb. With
// routing off every chunk is deferred, whatever its flow's last scan looked
// like, so all bytes go through the lockstep loop.
func benchBatched(fb *FlowBatcher, runners []*Runner, data [][]byte, seg int, cb MatchFunc, routing bool) {
	for _, r := range runners {
		r.Reset()
	}
	per := len(data[0])
	for base := 0; base < per; base += benchBurst * seg {
		for lo := base; lo < min(base+benchBurst*seg, per); lo += seg {
			for f, r := range runners {
				if !routing {
					r.dense = false
				}
				fb.Add(r, f, data[f][lo:min(lo+seg, per)], cb)
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
// through sequential Feed, on the kinds of flow the batcher routes apart: C8
// over text with an accept visit every tenth byte, which it hands to Feed's
// block loop after the first window (so the two rows should be level;
// BenchmarkRoutingSweep says what the hand-over is worth), and B217p over
// text that never matches, which it steps in lockstep as four quads — its
// sequential row is what a lane no quad takes runs. sparse-C10-96 is
// small_packets' shape: six C10 flows at its word density in 96-byte
// segments, so every window is one quad and two lanes no quad takes (Feed
// scans those), rounds are a strip and a half, and about two in five of the
// quad's strips hold an accept visit to drain.
func BenchmarkLockstepAcceptDense(b *testing.B) {
	const per = 256 << 10
	for _, bc := range []struct {
		name, set  string
		flows, seg int
		wordProb   float64
	}{
		{"dense-C8", "C8", MaxBatchFlows, benchSeg, 0.008},
		{"sparse-B217p", "B217p", MaxBatchFlows, benchSeg, 0},
		{"sparse-C10-96", "C10", 6, 96, 0.002},
	} {
		m, words := compileSets(b, Options{}, bc.set)
		if bc.wordProb == 0 {
			words = nil // no word, and no draw for one: plain text
		}
		data := make([][]byte, bc.flows)
		for f := range data {
			data[f] = trace.TextLike(per, int64(131+f), words, bc.wordProb)
		}
		cb := func(int32, int64) {}
		runners := newRunners(m, bc.flows)
		b.Run(bc.name+"/sequential", func(b *testing.B) {
			b.SetBytes(int64(bc.flows * per))
			for i := 0; i < b.N; i++ {
				benchSequential(runners, data, bc.seg, cb)
			}
		})
		b.Run(bc.name+"/batched", func(b *testing.B) {
			b.SetBytes(int64(bc.flows * per))
			fb := NewFlowBatcher(MaxBatchFlows)
			for i := 0; i < b.N; i++ {
				benchBatched(fb, runners, data, bc.seg, cb, true)
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
		for _, density := range []float64{0, 0.003, 0.005, 0.01, 0.015, 0.02, 0.03, 0.05, 0.07, 0.1, 0.2} {
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
					benchSequential(runners, data, benchSeg, cb)
				}
			})
			b.Run(name+"/lockstep", func(b *testing.B) {
				b.SetBytes(flows * per)
				fb := NewFlowBatcher(MaxBatchFlows)
				for i := 0; i < b.N; i++ {
					benchBatched(fb, runners, data, benchSeg, cb, false)
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
	m := compileTest(t, "a")
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
