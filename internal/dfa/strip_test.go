package dfa_test

import (
	"bytes"
	"fmt"
	"math/bits"
	"testing"

	"matchfilter/internal/dfa"
	"matchfilter/internal/nfa"
	"matchfilter/internal/patterns"
	"matchfilter/internal/regexparse"
	"matchfilter/internal/splitter"
	"matchfilter/internal/trace"
)

// The sequential loops walk a strip and then drain it (strip.go). These
// tests hold them to a byte-at-a-time walk over the plain-state API
// (Next/Matches) — the loop they replaced, kept here as the reference —
// at the places a strip can go wrong: its edges, a full accept mask, a
// callback that panics half-way through a drain.

func compileSources(tb testing.TB, sources ...string) *dfa.DFA {
	tb.Helper()
	rules := make([]nfa.Rule, len(sources))
	for i, src := range sources {
		p, err := regexparse.ParsePCRE(src)
		if err != nil {
			tb.Fatal(err)
		}
		rules[i] = nfa.Rule{Pattern: p, MatchID: i + 1}
	}
	return fromRules(tb, rules)
}

// compileFragments builds the automaton core.Compile would for a union of
// shipped pattern sets, and returns the sets' literal words with it.
func compileFragments(tb testing.TB, counters bool, sets ...string) (*dfa.DFA, []string) {
	tb.Helper()
	var rules []splitter.Rule
	var words []string
	for _, set := range sets {
		loaded, err := patterns.Load(set)
		if err != nil {
			tb.Fatal(err)
		}
		for _, r := range loaded {
			rules = append(rules, splitter.Rule{Pattern: r.Pattern, RuleID: int32(len(rules) + 1)})
		}
		w, err := patterns.AllWords(set)
		if err != nil {
			tb.Fatal(err)
		}
		words = append(words, w...)
	}
	res, err := splitter.Split(rules, splitter.Options{EnableCounters: counters})
	if err != nil {
		tb.Fatal(err)
	}
	frags := make([]nfa.Rule, len(res.Fragments))
	for i, f := range res.Fragments {
		frags[i] = nfa.Rule{Pattern: f.Pattern, MatchID: int(f.InternalID)}
	}
	return fromRules(tb, frags), words
}

func fromRules(tb testing.TB, rules []nfa.Rule) *dfa.DFA {
	tb.Helper()
	n, err := nfa.Build(rules)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := dfa.FromNFA(n, dfa.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// referenceEvents is the byte-at-a-time walk: a branch on every state, the
// decision set reported at once.
func referenceEvents(d *dfa.DFA, input []byte) []dfa.MatchEvent {
	var out []dfa.MatchEvent
	st := d.Start()
	for pos, c := range input {
		st = d.Next(st, c)
		for _, id := range d.Matches(st) {
			out = append(out, dfa.MatchEvent{ID: id, Pos: int64(pos)})
		}
	}
	return out
}

// stripInputs returns inputs over {a, x} whose a's (the accept visits of
// /a/) sit on the edges of strips and fill three whole strips.
func stripInputs() map[string][]byte {
	const L = dfa.StripLen
	quiet := func(n int) []byte { return bytes.Repeat([]byte("x"), n) }
	at := func(n int, hits ...int) []byte {
		b := quiet(n)
		for _, h := range hits {
			b[h] = 'a'
		}
		return b
	}
	return map[string][]byte{
		"empty":                      {},
		"one byte":                   []byte("a"),
		"last byte of a strip":       at(3*L, L-1),
		"first byte of the next":     at(3*L, L),
		"both sides of two edges":    at(3*L, L-1, L, 2*L-1, 2*L),
		"last byte of a short tail":  at(2*L+7, 2*L+6),
		"every byte of three strips": append(append(quiet(5), bytes.Repeat([]byte("a"), 3*L)...), quiet(5)...),
		"three strips exactly":       bytes.Repeat([]byte("a"), 3*L),
		"all but one byte of strips": bytes.Repeat(append(bytes.Repeat([]byte("a"), L-1), 'x'), 3),
	}
}

func TestFeedStripBoundaries(t *testing.T) {
	const L = dfa.StripLen
	d := compileSources(t, "a", "xa")
	e := dfa.NewEngine(d)
	for name, input := range stripInputs() {
		want := referenceEvents(d, input)
		for _, chunk := range []int{len(input) + 1, 1, L - 1, L, L + 1} {
			var got []dfa.MatchEvent
			r, counter := e.NewRunner(), e.NewRunner()
			var count int64
			for lo := 0; lo < len(input); lo += chunk {
				seg := input[lo:min(lo+chunk, len(input))]
				r.Feed(seg, func(id int32, pos int64) { got = append(got, dfa.MatchEvent{ID: id, Pos: pos}) })
				count += counter.FeedCount(seg)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s in %d-byte chunks: Feed reports %d events, the byte-at-a-time walk %d\n got %v\nwant %v",
					name, chunk, len(got), len(want), got, want)
			}
			if count != int64(len(want)) {
				t.Errorf("%s in %d-byte chunks: FeedCount = %d, want %d", name, chunk, count, len(want))
			}
			if r.Pos() != int64(len(input)) || counter.Pos() != r.Pos() || counter.State() != r.State() {
				t.Errorf("%s in %d-byte chunks: Feed ends at state %d pos %d, FeedCount at state %d pos %d, input %d bytes",
					name, chunk, r.State(), r.Pos(), counter.State(), counter.Pos(), len(input))
			}
		}
	}
}

// TestStripRecords calls the kernel itself: a strip whose every byte
// accepts sets every bit of the mask and fills every row, a longer input
// is cut at StripLen, a quiet strip returns an empty mask, and a short one
// names its visits by offset and leaves the rows past its end alone.
func TestStripRecords(t *testing.T) {
	const L = dfa.StripLen
	d := compileSources(t, "a")
	trans, classOf, stride := d.ScanTable()
	start, scaledAccept := d.Start()*uint32(stride), d.AcceptStart()*uint32(stride)
	var rows [L]uint32

	st, accepts := dfa.Strip(trans, classOf, start, scaledAccept, bytes.Repeat([]byte("a"), 2*L), &rows)
	if accepts != ^uint64(0) || st < scaledAccept {
		t.Fatalf("every-byte-accepts strip: mask %#x, row base %d (accepting from %d)", accepts, st, scaledAccept)
	}
	for i, row := range rows {
		if row != st {
			t.Fatalf("rows[%d] = %d, want %d", i, row, st)
		}
	}
	if st, accepts = dfa.Strip(trans, classOf, start, scaledAccept, bytes.Repeat([]byte("x"), L), &rows); accepts != 0 || st >= scaledAccept {
		t.Fatalf("quiet strip: mask %#x, row base %d (accepting from %d)", accepts, st, scaledAccept)
	}
	if st, accepts = dfa.Strip(trans, classOf, start, scaledAccept, nil, &rows); accepts != 0 || st != start {
		t.Fatalf("empty strip: mask %#x, row base %d; want 0, %d", accepts, st, start)
	}
	rows[5] = 12345
	if _, accepts = dfa.Strip(trans, classOf, start, scaledAccept, []byte("xxaxa"), &rows); accepts != 1<<2|1<<4 ||
		rows[2] < scaledAccept || rows[4] < scaledAccept || rows[3] >= scaledAccept || rows[5] != 12345 {
		t.Fatalf("xxaxa: mask %#b, rows %v (accepting from %d)", accepts, rows[:6], scaledAccept)
	}
}

// TestFeedPanicMidStrip: a callback that panics on the k-th visit of a
// strip has been handed visits 1…k-1 and is handed none after, and the
// runner still holds the state and position the call found — what the
// branchy loop did, which wrote neither back until it returned.
func TestFeedPanicMidStrip(t *testing.T) {
	const L, k = dfa.StripLen, 5
	e := dfa.NewEngine(compileSources(t, "a"))
	r := e.NewRunner()
	r.Feed([]byte("xxa"), func(int32, int64) {})
	state, pos := r.State(), r.Pos()
	var seen []int64
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the callback's panic did not surface from Feed")
			}
		}()
		r.Feed(bytes.Repeat([]byte("xa"), L), func(_ int32, at int64) {
			if len(seen) == k-1 {
				panic("hostile callback")
			}
			seen = append(seen, at)
		})
	}()
	if want := []int64{4, 6, 8, 10}; fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Errorf("visits delivered before the panic: %v, want %v", seen, want)
	}
	if r.State() != state || r.Pos() != pos {
		t.Errorf("after the panic the runner is at state %d pos %d; the call found it at %d, %d", r.State(), r.Pos(), state, pos)
	}
}

// TestFeedCountMatchesFeedOnPaperSets: the two drains agree, and agree with
// the byte-at-a-time walk, on the fragment automaton of each of the seven
// paper sets over text salted with the set's own words.
func TestFeedCountMatchesFeedOnPaperSets(t *testing.T) {
	for _, set := range patterns.Names() {
		d, words := compileFragments(t, false, set)
		e := dfa.NewEngine(d)
		input := trace.TextLike(1<<16, 131, words, 0.02)
		want := referenceEvents(d, input)
		if got := e.Run(input); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: Feed reports %d events, the byte-at-a-time walk %d", set, len(got), len(want))
		}
		if count := e.NewRunner().FeedCount(input); count != int64(len(want)) || count == 0 {
			t.Errorf("%s: FeedCount = %d, Feed reports %d events", set, count, len(want))
		}
	}
}

// BenchmarkStrip times the kernel alone — no drain — at the three accept
// densities that matter: C8 over text with a line break every tenth byte
// (a visit each: the accept flag goes both ways),
// B217p over text that never reaches an accept state (what the record
// costs a flow that does not need it), and /a/ over a's (every byte
// accepts, every bit of every mask set). CI runs it once and separately
// checks the kernel's disassembly for a jump on the accept compare.
func BenchmarkStrip(b *testing.B) {
	c8, c8words := compileFragments(b, false, "C8")
	b217, _ := compileFragments(b, false, "B217p")
	for _, bc := range []struct {
		name string
		d    *dfa.DFA
		data []byte
	}{
		{"C8-dense", c8, trace.TextLike(1<<20, 131, c8words, 0.008)},
		{"B217p-quiet", b217, trace.TextLike(1<<20, 131, nil, 0)},
		{"every-byte", compileSources(b, "a"), bytes.Repeat([]byte("a"), 1<<20)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			trans, classOf, stride := bc.d.ScanTable()
			scaledAccept := bc.d.AcceptStart() * uint32(stride)
			var rows [dfa.StripLen]uint32
			var total int
			b.SetBytes(int64(len(bc.data)))
			for i := 0; i < b.N; i++ {
				st := bc.d.Start() * uint32(stride)
				total = 0
				for data := bc.data; len(data) > 0; data = data[min(len(data), dfa.StripLen):] {
					var accepts uint64
					st, accepts = dfa.Strip(trans, classOf, st, scaledAccept, data, &rows)
					total += bits.OnesCount64(accepts)
				}
			}
			b.ReportMetric(float64(total)/float64(len(bc.data)), "visits/B")
		})
	}
}
