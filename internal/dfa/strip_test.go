package dfa_test

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"matchfilter/internal/dfa"
	"matchfilter/internal/nfa"
	"matchfilter/internal/patterns"
	"matchfilter/internal/regexparse"
	"matchfilter/internal/splitter"
	"matchfilter/internal/trace"
)

// The sequential loops walk a block and then drain it (strip.go). These
// tests hold them to a byte-at-a-time walk over the plain-state API
// (Next/Matches) — the loop they replaced, kept here as the reference —
// at the places a block can go wrong: the edges of its mask words and of
// its halves, a guess that misses, a full accept mask, a callback that
// panics half-way through a drain.

// half is the length of a block's half, the span of each of its chains.
const half = dfa.BlockLen / 2

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
func compileFragments(tb testing.TB, sets ...string) (*dfa.DFA, []string) {
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
	res, err := splitter.Split(rules, splitter.Options{})
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

// speculation replays WalkBlock's guess over data with the plain-state API,
// one whole block after another from the start state: how many blocks are
// walked as two chains, in how many the guess misses, and how many bytes
// the re-walks step before they meet the guessed chain.
func speculation(d *dfa.DFA, data []byte) (blocks, misses, rewalked int) {
	walk := func(s uint32, w []byte) uint32 {
		for _, c := range w {
			s = d.Next(s, c)
		}
		return s
	}
	st := d.Start()
	for ; len(data) >= dfa.BlockLen; data = data[dfa.BlockLen:] {
		blocks++
		x, y := walk(st, data[:half]), walk(st, data[half-dfa.GuessLen:half])
		if x != y {
			misses++
			for _, c := range data[half:dfa.BlockLen] {
				x, y = d.Next(x, c), d.Next(y, c)
				rewalked++
				if x == y {
					break
				}
			}
		}
		st = walk(st, data[:dfa.BlockLen])
	}
	return blocks, misses, rewalked
}

// Two automata whose state remembers more than the GuessLen bytes the block
// kernel guesses from, so that on their texts below most blocks miss.
// parityRule accepts at every odd-numbered a of a flow that has seen
// only a, b and c: its state never forgets, so a miss is re-walked to the
// end of the block and every accept flag of the guessed half is wrong.
// distanceRule remembers how far back the last x was, up to 41 bytes; a
// miss meets the guessed chain again at the next x.
const parityRule, distanceRule = "^(?:[bc]*a[bc]*a)*[bc]*a", "x[a-w]{40}y"

// parityText is b's and c's with an a at the start of every block — the
// guess misses every block — and a's salted after the first half's guess
// window, whose visits the re-walk must move.
func parityText(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	for i := range out {
		switch {
		case i%dfa.BlockLen == 0 || i%dfa.BlockLen >= half-dfa.GuessLen && rng.Intn(8) == 0:
			out[i] = 'a'
		default:
			out[i] = "bc"[rng.Intn(2)]
		}
	}
	return out
}

// distanceText is letters a–w with an x every 38–41 bytes, so that the
// guess window most often holds none, and a y 41 bytes after a third of
// them: a match.
func distanceText(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, n+48)
	for len(out) < n {
		out = append(out, 'x')
		gap := 37 + rng.Intn(4)
		if rng.Intn(3) == 0 {
			gap = 40
		}
		for range gap {
			out = append(out, byte('a'+rng.Intn(23)))
		}
		if gap == 40 {
			out = append(out, 'y')
		}
	}
	return out[:n]
}

// stripInputs returns inputs over {a, x} whose a's (the accept visits of
// /a/) sit on the edges of mask words, of halves and of blocks, on the
// edges of the guess window, and fill three whole blocks.
func stripInputs() map[string][]byte {
	const B, g = dfa.BlockLen, dfa.GuessLen
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
		"both sides of a word edge":  at(3*B, 63, 64, B+63, B+64),
		"both sides of the halves":   at(3*B, half-1, half, B-1, B, B+half-1, B+half),
		"the guess window's edges":   at(3*B, half-g-1, half-g, half-1),
		"last byte of a short tail":  at(2*B+7, 2*B+6),
		"every byte of three blocks": append(append(quiet(5), bytes.Repeat([]byte("a"), 3*B)...), quiet(5)...),
		"three blocks exactly":       bytes.Repeat([]byte("a"), 3*B),
		"all but one byte of words":  bytes.Repeat(append(bytes.Repeat([]byte("a"), 63), 'x'), 3*B/64),
	}
}

// stripChunks are the chunkings every Feed test cuts its inputs into: a
// byte at a time, and a byte short of, on and a byte past the edge of a
// mask word, a block's half and a whole block.
var stripChunks = []int{1, 63, 64, 65, half - 1, half, half + 1, 2*half - 1, 2 * half, 2*half + 1}

func TestFeedStripBoundaries(t *testing.T) {
	for _, c := range []struct {
		sources []string
		inputs  map[string][]byte
	}{
		{[]string{"a", "xa"}, stripInputs()},
		{[]string{parityRule}, map[string][]byte{"parity text": parityText(6*dfa.BlockLen+5, 1)}},
		{[]string{distanceRule}, map[string][]byte{"distance text": distanceText(32*dfa.BlockLen+5, 2)}},
	} {
		d := compileSources(t, c.sources...)
		e := dfa.NewEngine(d)
		for name, input := range c.inputs {
			want := referenceEvents(d, input)
			if c.sources[0] != "a" {
				// The never-synchronizing texts must do what they are for.
				if blocks, misses, _ := speculation(d, input); 2*misses <= blocks || len(want) == 0 {
					t.Fatalf("%s: the guess misses %d of %d blocks, %d visits; want most, and some", name, misses, blocks, len(want))
				}
			}
			for _, chunk := range append([]int{len(input) + 1}, stripChunks...) {
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
}

// record is what WalkBlock must leave in a Block when it walks w from state
// st (a state number), computed a byte at a time over the plain-state API,
// with the number of accept words it must write and the row base it must
// return.
func record(d *dfa.DFA, st uint32, w []byte) (want dfa.Block, words int, end uint32) {
	_, _, stride := d.ScanTable()
	w = w[:min(len(w), dfa.BlockLen)]
	for i, c := range w {
		st = d.Next(st, c)
		want.Rows[i] = st * uint32(stride)
		if st >= d.AcceptStart() {
			want.Accepts[i/64] |= 1 << (i % 64)
		}
	}
	return want, (len(w) + 63) / 64, st * uint32(stride)
}

// TestStripRecords calls the kernel itself, over a Block filled with
// garbage, and requires the record of a byte-at-a-time walk: every row and
// accept word the bytes walked cover, nothing past them, and the row base
// reached. The cases: a block whose every byte accepts, a quiet one, a
// longer input cut at BlockLen, short inputs, and guesses that miss — the
// re-walk meeting the guessed chain on the second half's first byte, in
// the middle of a word, on the last byte, and never — then whole texts of
// the never-synchronizing automata, a block at a time.
func TestStripRecords(t *testing.T) {
	const B = dfa.BlockLen
	check := func(name string, d *dfa.DFA, st uint32, w []byte) {
		t.Helper()
		trans, classOf, stride := d.ScanTable()
		want, words, end := record(d, st, w)
		var got dfa.Block
		for i := range got.Rows {
			got.Rows[i] = 0xdeadbeef
		}
		for i := range got.Accepts {
			got.Accepts[i] = 0xa5a5a5a5a5a5a5a5
		}
		if reached := dfa.WalkBlock(trans, classOf, st*uint32(stride), d.AcceptStart()*uint32(stride), w, &got); reached != end {
			t.Errorf("%s: WalkBlock reached row base %d, the byte-at-a-time walk %d", name, reached, end)
		}
		n := min(len(w), B)
		for i, row := range got.Rows {
			if i < n && row != want.Rows[i] || i >= n && row != 0xdeadbeef {
				t.Errorf("%s: Rows[%d] = %#x, want %#x (%d bytes walked)", name, i, row, want.Rows[i], n)
				break
			}
		}
		for i, word := range got.Accepts {
			if i < words && word != want.Accepts[i] || i >= words && word != 0xa5a5a5a5a5a5a5a5 {
				t.Errorf("%s: Accepts[%d] = %#x, want %#x (%d bytes walked)", name, i, word, want.Accepts[i], n)
			}
		}
	}

	a := compileSources(t, "a")
	check("every byte accepts", a, a.Start(), bytes.Repeat([]byte("a"), 2*B))
	check("quiet block", a, a.Start(), bytes.Repeat([]byte("x"), B))
	check("empty", a, a.Start(), nil)
	check("xxaxa", a, a.Start(), []byte("xxaxa"))
	check("a word and a byte", a, a.Start(), append(bytes.Repeat([]byte("xa"), 32), 'a'))
	check("a byte short of a block", a, a.Start(), bytes.Repeat([]byte("ax"), B/2)[:B-1])

	// A block with a single a at its start: the guess has the wrong parity,
	// and an x (the walks' common dead end) puts where they meet again.
	parity := compileSources(t, parityRule)
	block := func(xAt int) []byte {
		w := bytes.Repeat([]byte("b"), B)
		w[0] = 'a'
		for i := half; i < B; i += 3 {
			w[i] = 'a'
		}
		if xAt >= 0 {
			w[xAt] = 'x'
		}
		return w
	}
	check("missed, never met", parity, parity.Start(), block(-1))
	check("missed, met on the second half's first byte", parity, parity.Start(), block(half))
	check("missed, met mid-word", parity, parity.Start(), block(half+6))
	check("missed, met on the last byte", parity, parity.Start(), block(B-1))

	// Whole texts, a block at a time from wherever the last one ended.
	for _, c := range []struct {
		name string
		d    *dfa.DFA
		text []byte
	}{{"parity text", parity, parityText(8*B, 3)}, {"distance text", compileSources(t, distanceRule), distanceText(8*B, 4)}} {
		st := c.d.Start()
		for lo := 0; lo < len(c.text); lo += B {
			check(fmt.Sprintf("%s, block %d", c.name, lo/B), c.d, st, c.text[lo:])
			for _, ch := range c.text[lo:min(lo+B, len(c.text))] {
				st = c.d.Next(st, ch)
			}
		}
	}
}

// TestWalkLanesRecords calls the multi-flow kernel itself, over a Lanes
// record filled with garbage, and requires what four byte-at-a-time walks
// give: each lane's rows right-aligned in its record row and nothing before
// them touched, and the fold's bit 63 clear exactly when some lane visited
// an accept state. For every strip length 1…LaneLen the four lanes enter at
// four distinct states — one of them a byte short of accepting — and a
// quiet strip is walked, then one with an accept planted at every offset of
// each lane in turn; then C8's fragment automaton over word-salted text,
// strips taken from inside longer windows.
func TestWalkLanesRecords(t *testing.T) {
	const L = dfa.LaneLen
	check := func(name string, d *dfa.DFA, entry [4]uint32, w [4][]byte, at int) {
		t.Helper()
		trans, classOf, stride := d.ScanTable()
		scaled := entry
		for k := range scaled {
			scaled[k] *= uint32(stride)
		}
		var rec dfa.Lanes
		for k := range rec.Rows {
			for i := range rec.Rows[k] {
				rec.Rows[k][i] = 0xdeadbeef
			}
		}
		fold := dfa.WalkLanes(trans, classOf, d.AcceptStart()*uint32(stride), &scaled, &w, at, &rec)
		n := min(len(w[0])-at, L)
		accepted := false
		for k, st := range entry {
			for i, c := range w[k][at : at+n] {
				st = d.Next(st, c)
				accepted = accepted || st >= d.AcceptStart()
				if got := rec.Rows[k][L-n+i]; got != st*uint32(stride) {
					t.Fatalf("%s: lane %d byte %d of %d: row %#x, the byte-at-a-time walk %#x", name, k, i, n, got, st*uint32(stride))
				}
			}
			for i, row := range rec.Rows[k][:L-n] {
				if row != 0xdeadbeef {
					t.Fatalf("%s: lane %d: row %d before a %d-byte strip written (%#x)", name, k, i, n, row)
				}
			}
		}
		if got := fold>>63 == 0; got != accepted {
			t.Fatalf("%s: fold reports an accept visit: %v, the byte-at-a-time walk: %v", name, got, accepted)
		}
	}

	// Entry states: the start, and "b", "bc", "bcd" walked — the last is
	// one 'e' from accepting, and the strips below begin with a 'z', which
	// takes every lane back to the start without a visit.
	d := compileSources(t, "a", "bcde")
	var entry [4]uint32
	for k, prefix := range []string{"", "b", "bc", "bcd"} {
		entry[k] = d.Start()
		for _, c := range []byte(prefix) {
			entry[k] = d.Next(entry[k], c)
		}
	}
	if entry[0] == entry[1] || entry[1] == entry[2] || entry[2] == entry[3] || entry[0] == entry[3] {
		t.Fatalf("entry states %v are not distinct", entry)
	}
	strip := func(n, lane, at int) [4][]byte {
		var w [4][]byte
		for k := range w {
			w[k] = bytes.Repeat([]byte("z"), n)
			if k == lane {
				w[k][at] = 'a'
			}
		}
		return w
	}
	for n := 1; n <= L; n++ {
		check(fmt.Sprintf("quiet %d-byte strip", n), d, entry, strip(n, -1, 0), 0)
		for lane := range 4 {
			for at := range n {
				check(fmt.Sprintf("%d-byte strip, lane %d accepts at %d", n, lane, at), d, entry, strip(n, lane, at), 0)
			}
		}
	}
	// The lane one byte from accepting, accepting on its first byte.
	w := strip(L, -1, 0)
	w[3][0] = 'e'
	check("an accept on a lane's first byte", d, entry, w, 0)

	c8, words := compileFragments(t, "C8")
	text := trace.TextLike(1<<14, 131, words, 0.05)
	rng := rand.New(rand.NewSource(7))
	for trial := range 200 {
		// Windows of up to three strips, walked from a strip edge or not;
		// a few of them leave more than a strip.
		n, at := 1+rng.Intn(3*L), 0
		if rng.Intn(2) == 0 {
			at = rng.Intn(n)
		}
		var w [4][]byte
		var entry [4]uint32
		for k := range w {
			lo := rng.Intn(len(text) - n)
			w[k] = text[lo : lo+n]
			entry[k] = c8.Start()
			for _, c := range text[max(0, lo+at-16) : lo+at] {
				entry[k] = c8.Next(entry[k], c)
			}
		}
		check(fmt.Sprintf("C8 trial %d, bytes %d…%d", trial, at, n), c8, entry, w, at)
	}
}

// TestFeedPanicMidStrip: a callback that panics on the k-th visit of a
// block has been handed visits 1…k-1 and is handed none after, and the
// runner still holds the state and position the call found — what the
// branchy loop did, which wrote neither back until it returned. The panic
// comes on the fifth visit, and on the first visit of a block's second
// half — after a guess that held, and after one that missed and was walked
// again — which must find every visit of the first half delivered.
func TestFeedPanicMidStrip(t *testing.T) {
	for _, c := range []struct {
		name          string
		d             *dfa.DFA
		prefix, input []byte
		secondHalf    bool
	}{
		{"fifth visit", compileSources(t, "a"), []byte("xxa"), bytes.Repeat([]byte("xa"), dfa.BlockLen), false},
		{"second half", compileSources(t, "a"), []byte("xxa"), bytes.Repeat([]byte("xa"), dfa.BlockLen), true},
		{"second half of a missed guess", compileSources(t, parityRule), nil, parityText(2*dfa.BlockLen, 5), true},
	} {
		r := dfa.NewEngine(c.d).NewRunner()
		r.Feed(c.prefix, func(int32, int64) {})
		state, pos := r.State(), r.Pos()
		// The byte-at-a-time walk's visits from pos on: the ones to deliver,
		// then the one whose callback panics.
		var want []int64
		panicAt := int64(-1)
		for _, ev := range referenceEvents(c.d, append(bytes.Clone(c.prefix), c.input...)) {
			switch {
			case ev.Pos < pos:
			case c.secondHalf && ev.Pos < pos+half || !c.secondHalf && len(want) < 4:
				want = append(want, ev.Pos)
			case panicAt < 0:
				panicAt = ev.Pos
			}
		}
		if len(want) == 0 || panicAt < 0 {
			t.Fatalf("%s: visits %v before the panic, the panic at %d", c.name, want, panicAt)
		}
		var seen []int64
		raised := int64(-1)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: the callback's panic did not surface from Feed", c.name)
				}
			}()
			r.Feed(c.input, func(_ int32, at int64) {
				if len(seen) == len(want) {
					raised = at
					panic("hostile callback")
				}
				seen = append(seen, at)
			})
		}()
		if fmt.Sprint(seen) != fmt.Sprint(want) || raised != panicAt {
			t.Errorf("%s: visits delivered before the panic: %v, then the panic at %d; want %v, then %d", c.name, seen, raised, want, panicAt)
		}
		if r.State() != state || r.Pos() != pos {
			t.Errorf("%s: after the panic the runner is at state %d pos %d; the call found it at %d, %d", c.name, r.State(), r.Pos(), state, pos)
		}
	}
}

// TestFeedCountMatchesFeedOnPaperSets: the two drains agree, and agree with
// the byte-at-a-time walk, on the fragment automaton of each of the seven
// paper sets over text salted with the set's own words.
func TestFeedCountMatchesFeedOnPaperSets(t *testing.T) {
	for _, set := range patterns.Names() {
		d, words := compileFragments(t, set)
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

// fuzzAtoms are the pieces FuzzStripSpeculation assembles patterns from,
// over the alphabet of its texts; the anchored parity loop is among them,
// so some automata never forget and most of their guesses miss.
var fuzzAtoms = []string{"a", "b", "c", "x", "[ab]", "[^a]", ".", "a*", "b+", "c?", "(?:ab|c)", "[bc]*",
	"(?:[bc]*a[bc]*a)*", "[abc]{3}", ".*", "[a-c]{2,4}", "x[a-c]{20}"}

// fuzzPattern makes a pattern of up to six atoms, anchored or not, ending
// in a literal so that it never matches the empty string.
func fuzzPattern(p []byte) string {
	if len(p) == 0 {
		return "a"
	}
	var sb strings.Builder
	if p[0]&1 == 1 {
		sb.WriteByte('^')
	}
	for _, c := range p[1:min(len(p), 7)] {
		sb.WriteString(fuzzAtoms[int(c)%len(fuzzAtoms)])
	}
	sb.WriteByte("abc"[int(p[0]>>1)%3])
	return sb.String()
}

// FuzzStripSpeculation holds Feed over the block kernel to the
// byte-at-a-time walk on fuzzed automata: two patterns assembled from
// atoms, a text over {a, b, c} or {a, b, c, x} (the fuzzed bytes, then
// random ones to at least eight blocks), and chunks cut at random: half of
// them at an edge of a mask word, of a half or of a block, half of them
// long enough to hold whole blocks.
func FuzzStripSpeculation(f *testing.F) {
	f.Add([]byte{1, 12}, []byte{0, 0}, []byte("abcabcxaab"), int64(2))          // ^(?:[bc]*a[bc]*a)*a over a, b, c: it never forgets
	f.Add([]byte{3, 12, 1}, []byte{4, 16, 2}, []byte("aaaabbbbcccc"), int64(5)) // x[a-c]{20}cc: it remembers 22 bytes
	f.Add([]byte{0, 14, 3, 0}, []byte{1, 11, 0}, []byte("xabcabcabcabcabcabcabcabcb"), int64(3))
	f.Fuzz(func(t *testing.T, p1, p2, text []byte, seed int64) {
		d := compileSources(t, fuzzPattern(p1), fuzzPattern(p2))
		rng := rand.New(rand.NewSource(seed))
		alphabet := "abcx"[:3+seed&1] // an even seed keeps the anchored atoms alive
		input := make([]byte, max(len(text), 8*dfa.BlockLen+rng.Intn(dfa.BlockLen)))
		for i := range input {
			if i < len(text) {
				input[i] = alphabet[int(text[i])%len(alphabet)]
			} else {
				input[i] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		want := referenceEvents(d, input)
		r := dfa.NewEngine(d).NewRunner()
		var got []dfa.MatchEvent
		var cuts []int
		for lo := 0; lo < len(input); {
			n := stripChunks[rng.Intn(len(stripChunks))]
			if rng.Intn(2) == 0 {
				n = 1 + rng.Intn(4*dfa.BlockLen) // mostly whole blocks and a tail
			}
			n = min(n, len(input)-lo)
			r.Feed(input[lo:lo+n], func(id int32, pos int64) { got = append(got, dfa.MatchEvent{ID: id, Pos: pos}) })
			lo += n
			cuts = append(cuts, n)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || r.Pos() != int64(len(input)) {
			t.Fatalf("%q, %q in chunks %v: Feed reports %v at pos %d, the byte-at-a-time walk %v",
				fuzzPattern(p1), fuzzPattern(p2), cuts, got, r.Pos(), want)
		}
	})
}

// BenchmarkStrip times the kernel alone — no drain — a block at a time,
// on the automata that matter: C8's and S24 ∪ CTR24's fragment automata
// over text with a visit every tenth byte (the tables paced_alert and
// filter_dense walk), B217p over text that never reaches an accept state
// (what the record costs a flow that does not need it), C8 undecomposed
// (its dot-star memory lives in the state), /a/ over a's (every bit of
// every mask set), and the two never-synchronizing automata above — the
// distance automaton over its live text, and the parity automaton on the
// worst case by construction: every block missed and walked again to its
// end. misses/block and rewalk/B are the guess's record on the row's input
// (replayed over the plain-state API, outside the timer). CI runs it once
// and separately checks the kernel's disassembly for a jump on the accept
// compare.
func BenchmarkStrip(b *testing.B) {
	c8, c8words := compileFragments(b, "C8")
	wide, wideWords := compileFragments(b, "S24", "CTR24")
	b217, _ := compileFragments(b, "B217p")
	loaded, err := patterns.Load("C8")
	if err != nil {
		b.Fatal(err)
	}
	whole := make([]nfa.Rule, len(loaded))
	for i, r := range loaded {
		whole[i] = nfa.Rule{Pattern: r.Pattern, MatchID: i + 1}
	}
	c8text := trace.TextLike(1<<20, 131, c8words, 0.008)
	for _, bc := range []struct {
		name string
		d    *dfa.DFA
		data []byte
	}{
		{"C8-dense", c8, c8text},
		{"S24+CTR24-dense", wide, trace.TextLike(1<<20, 131, wideWords, 0.008)},
		{"B217p-quiet", b217, trace.TextLike(1<<20, 131, nil, 0)},
		{"C8-undecomposed", fromRules(b, whole), c8text},
		{"every-byte", compileSources(b, "a"), bytes.Repeat([]byte("a"), 1<<20)},
		{"never-sync", compileSources(b, distanceRule), distanceText(1<<20, 131)},
		{"parity-worst", compileSources(b, parityRule), parityText(1<<20, 131)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			trans, classOf, stride := bc.d.ScanTable()
			scaledAccept := bc.d.AcceptStart() * uint32(stride)
			var blk dfa.Block
			var total int
			b.SetBytes(int64(len(bc.data)))
			for i := 0; i < b.N; i++ {
				st := bc.d.Start() * uint32(stride)
				total = 0
				for data := bc.data; len(data) > 0; data = data[min(len(data), dfa.BlockLen):] {
					st = dfa.WalkBlock(trans, classOf, st, scaledAccept, data, &blk)
					for _, w := range blk.Accepts[:(min(len(data), dfa.BlockLen)+63)/64] {
						total += bits.OnesCount64(w)
					}
				}
			}
			b.StopTimer()
			blocks, misses, rewalked := speculation(bc.d, bc.data)
			b.ReportMetric(float64(total)/float64(len(bc.data)), "visits/B")
			b.ReportMetric(float64(misses)/float64(blocks), "misses/block")
			b.ReportMetric(float64(rewalked)/float64(len(bc.data)), "rewalk/B")
		})
	}
}
