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
// at the places a block can go wrong: the edges of its quarters and of
// blocks, the guess windows, tails of every length, guesses that miss in
// any quarter and re-walks that meet the record anywhere, a full accept
// mask, a callback that panics half-way through a drain.

// quarter is the length of a whole block's quarter, the span of each of
// its chains.
const quarter = dfa.BlockLen / 4

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

func walk(d *dfa.DFA, st uint32, w []byte) uint32 {
	for _, c := range w {
		st = d.Next(st, c)
	}
	return st
}

// shape is how WalkQuarters splits an input of l bytes: n bytes walked, as
// four quarters of q bytes or (chains 1) as one chain of q = n.
func shape(l int) (n, q, chains int) {
	switch {
	case l >= dfa.BlockLen:
		return dfa.BlockLen, quarter, 4
	case l >= 4*dfa.MinQuarter:
		return l / 4 * 4, l / 4, 4
	}
	return l, l, 1
}

// replay replays the speculation of one call of WalkQuarters over w from
// state st (a state number) with the plain-state API. For quarters 1, 2
// and 3: whether the guess — the state the GuessLen bytes before the
// quarter reach from st — missed the true walk's state there, and if so
// how many bytes the re-walk stepped (the one it met the guessed chain on
// included, the whole quarter if it never met) and whether it met.
func replay(d *dfa.DFA, st uint32, w []byte) (missed [3]bool, steps [3]int, met [3]bool) {
	n, q, chains := shape(len(w))
	if chains == 1 {
		return
	}
	w = w[:n]
	for k := 1; k < 4; k++ {
		at := k * q
		x, y := walk(d, st, w[:at]), walk(d, st, w[at-dfa.GuessLen:at])
		if x == y {
			continue
		}
		missed[k-1] = true
		for _, c := range w[at : at+q] {
			x, y = d.Next(x, c), d.Next(y, c)
			steps[k-1]++
			if x == y {
				met[k-1] = true
				break
			}
		}
	}
	return missed, steps, met
}

// speculation replays WalkQuarters' guesses over data, one whole block
// after another from the start state: how many blocks are walked as four
// chains, in how many the guess of quarter 1, 2 and 3 misses, and how many
// bytes the re-walks step before they meet the guessed chains.
func speculation(d *dfa.DFA, data []byte) (blocks int, misses [3]int, rewalked int) {
	st := d.Start()
	for ; len(data) >= dfa.BlockLen; data = data[dfa.BlockLen:] {
		blocks++
		missed, steps, _ := replay(d, st, data)
		for k := range missed {
			if missed[k] {
				misses[k]++
			}
			rewalked += steps[k]
		}
		st = walk(d, st, data[:dfa.BlockLen])
	}
	return blocks, misses, rewalked
}

// Two automata whose state remembers more than the GuessLen bytes the block
// kernel guesses from, so that on their texts below most guesses miss.
// parityRule accepts at every odd-numbered a of a flow that has seen
// only a, b and c: its state never forgets, so a miss is re-walked to the
// end of its quarter and every accept flag of the guessed quarter is wrong.
// distanceRule remembers how far back the last x was, up to 41 bytes; a
// miss meets the guessed chain again at the next x.
const parityRule, distanceRule = "^(?:[bc]*a[bc]*a)*[bc]*a", "x[a-w]{40}y"

// parityText is b's and c's with an a at the start of every block, and
// pairs of a's salted after the first guess window, none of them across
// the start of a guess window: before every guess window of a whole block
// the a's are odd in number, so every guess misses, and the salted visits
// are the ones the re-walks must move.
func parityText(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	for i := range out {
		out[i] = "bc"[rng.Intn(2)]
	}
	for i := 0; i+1 < n; i++ {
		at := i % dfa.BlockLen
		switch {
		case at == 0:
			out[i] = 'a'
		case at >= quarter-dfa.GuessLen && at < dfa.BlockLen-1 && (at+1)%quarter != quarter-dfa.GuessLen && rng.Intn(16) == 0:
			out[i], out[i+1] = 'a', 'a'
			i++
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
// /a/) sit on the edges of quarters (the accept words) and of blocks, on
// the edges of the guess windows, at the end of tails of each shape, and
// fill three whole blocks.
func stripInputs() map[string][]byte {
	const B, q, g = dfa.BlockLen, quarter, dfa.GuessLen
	quiet := func(n int) []byte { return bytes.Repeat([]byte("x"), n) }
	at := func(n int, hits ...int) []byte {
		b := quiet(n)
		for _, h := range hits {
			b[h] = 'a'
		}
		return b
	}
	return map[string][]byte{
		"empty":                       {},
		"one byte":                    []byte("a"),
		"both sides of quarter edges": at(3*B, q-1, q, 2*q-1, 2*q, 3*q-1, 3*q, B+q-1, B+q),
		"both sides of block edges":   at(3*B, B-1, B, 2*B-1, 2*B),
		"the guess windows' edges":    at(3*B, q-g-1, q-g, q-1, 2*q-g-1, 2*q-g, 2*q-1, 3*q-g-1, 3*q-g, 3*q-1),
		"last byte of a short tail":   at(2*B+7, 2*B+6),
		"a four-quarter tail's edges": at(B+100, B, B+24, B+25, B+49, B+50, B+74, B+75, B+99),
		"a tail's leftover bytes":     at(B+103, B+99, B+100, B+101, B+102),
		"every byte of three blocks":  append(append(quiet(5), bytes.Repeat([]byte("a"), 3*B)...), quiet(5)...),
		"three blocks exactly":        bytes.Repeat([]byte("a"), 3*B),
		"all but one byte of words":   bytes.Repeat(append(bytes.Repeat([]byte("a"), 63), 'x'), 3*B/64),
	}
}

// stripChunks are the chunkings every Feed test cuts its inputs into: a
// byte at a time, the shortest four-chain call and a byte short of it, a
// byte short of, on and a byte past the edge of a quarter, of two quarters
// and of a block, two blocks but a byte, and a full-size Ethernet payload.
var stripChunks = []int{1, 4*dfa.MinQuarter - 1, 4 * dfa.MinQuarter, quarter - 1, quarter, quarter + 1,
	2*quarter - 1, 2 * quarter, 2*quarter + 1, dfa.BlockLen - 1, dfa.BlockLen, dfa.BlockLen + 1, 2*dfa.BlockLen - 1, 1460}

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
				blocks, misses, _ := speculation(d, input)
				for k, m := range misses {
					if 2*m <= blocks || len(want) == 0 {
						t.Fatalf("%s: the guess of quarter %d misses %d of %d blocks, %d visits; want most, and some", name, k+1, m, blocks, len(want))
					}
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

// checkRecord calls the kernel itself on w from state st (a state number),
// over a Quarters record filled with garbage, and requires the record of a
// byte-at-a-time walk: the shape Len reports, the row of every byte walked
// at its right-aligned index and no other row touched, the four accept
// words with each bit at its row's index, Offset mapping every row walked
// back to its byte, and the row base reached.
func checkRecord(t *testing.T, name string, d *dfa.DFA, st uint32, w []byte) {
	t.Helper()
	trans, classOf, stride := d.ScanTable()
	k := uint32(stride)
	n, q, _ := shape(len(w))
	var want dfa.Quarters
	for i := range want.Rows {
		want.Rows[i] = 0xdeadbeef
	}
	index := make([]int, n) // the row index of each byte walked
	end := st
	for b, c := range w[:n] {
		end = d.Next(end, c)
		j, i := b/q, quarter-q+b%q
		index[b] = j*quarter + i
		want.Rows[index[b]] = end * k
		if end >= d.AcceptStart() {
			want.Accepts[j] |= 1 << i
		}
	}
	var got dfa.Quarters
	for i := range got.Rows {
		got.Rows[i] = 0xdeadbeef
	}
	for j := range got.Accepts {
		got.Accepts[j] = 0xa5a5a5a5a5a5a5a5
	}
	if reached := dfa.WalkQuarters(trans, classOf, st*k, d.AcceptStart()*k, w, &got); reached != end*k {
		t.Errorf("%s: WalkQuarters reached row base %d, the byte-at-a-time walk %d", name, reached, end*k)
	}
	if got.Len() != n {
		t.Fatalf("%s: Len() = %d of %d bytes, want %d", name, got.Len(), len(w), n)
	}
	for i, row := range got.Rows {
		if row != want.Rows[i] {
			t.Errorf("%s: Rows[%d] = %#x, want %#x (%d bytes walked, quarters of %d)", name, i, row, want.Rows[i], n, q)
			break
		}
	}
	if got.Accepts != want.Accepts {
		t.Errorf("%s: Accepts = %#x, want %#x (%d bytes walked, quarters of %d)", name, got.Accepts, want.Accepts, n, q)
	}
	for b, i := range index {
		if off := got.Offset(i); off != b {
			t.Fatalf("%s: Offset(%d) = %d, want %d (%d bytes walked, quarters of %d)", name, i, off, b, n, q)
		}
	}
}

// TestStripRecords holds the kernel's record to checkRecord's: a block whose
// every byte accepts, a quiet one, a longer input cut at BlockLen, short
// inputs, every tail length from the shortest four-chain call to a byte
// short of a block, and whole texts of the never-synchronizing automata, a
// call at a time from wherever the last one ended, down to their tails.
func TestStripRecords(t *testing.T) {
	const B = dfa.BlockLen
	a := compileSources(t, "a")
	checkRecord(t, "every byte accepts", a, a.Start(), bytes.Repeat([]byte("a"), 2*B))
	checkRecord(t, "quiet block", a, a.Start(), bytes.Repeat([]byte("x"), B))
	checkRecord(t, "empty", a, a.Start(), nil)
	checkRecord(t, "xxaxa", a, a.Start(), []byte("xxaxa"))
	checkRecord(t, "a byte short of four chains", a, a.Start(), bytes.Repeat([]byte("ax"), 32)[:4*dfa.MinQuarter-1])
	rng := rand.New(rand.NewSource(9))
	for n := 4 * dfa.MinQuarter; n < B; n++ {
		w := make([]byte, n)
		for i := range w {
			w[i] = "ax"[rng.Intn(2)]
		}
		checkRecord(t, fmt.Sprintf("%d-byte tail", n), a, a.Start(), w)
	}

	for _, c := range []struct {
		name string
		d    *dfa.DFA
		text []byte
	}{
		{"parity text", compileSources(t, parityRule), parityText(8*B+103, 3)},
		{"distance text", compileSources(t, distanceRule), distanceText(8*B+103, 4)},
	} {
		st := c.d.Start()
		for lo := 0; lo < len(c.text); {
			checkRecord(t, fmt.Sprintf("%s, bytes %d…", c.name, lo), c.d, st, c.text[lo:])
			n, _, _ := shape(len(c.text) - lo)
			st = walk(c.d, st, c.text[lo:lo+n])
			lo += n
		}
	}
}

// TestQuartersMiss drives the parity automaton through blocks built to
// make each guess miss or hold — a miss in quarter 1, 2 or 3 alone, all
// three in one block, in a whole block and in a tail — and re-walks that
// meet the guessed chain on a quarter's first byte, in its middle, on its
// last byte and never. An a before a guess window flips the parity the
// guess cannot see; an x sends both walks to the dead state, where they
// meet. Each case first checks, by replay, that the speculation goes as
// named, then holds the record to checkRecord's.
func TestQuartersMiss(t *testing.T) {
	const B, q = dfa.BlockLen, quarter
	d := compileSources(t, parityRule)
	block := func(n int, as []int, x int) []byte {
		w := bytes.Repeat([]byte("b"), n)
		for _, i := range as {
			w[i] = 'a'
		}
		// a visit in every quarter, after its guess window: a pair, so
		// which guesses miss does not change
		for j := 0; j < 4; j++ {
			at := j*(n/4) + n/8
			w[at], w[at+1] = 'a', 'a'
		}
		if x >= 0 {
			w[x] = 'x'
		}
		return w
	}
	never := -1
	for _, c := range []struct {
		name   string
		w      []byte
		missed [3]bool
		meet   [3]int // the re-walk meets on the quarter's byte meet-1; 0: never, or no miss
	}{
		{"miss in quarter 1", block(B, []int{0, q + 36}, -1), [3]bool{true, false, false}, [3]int{}},
		{"miss in quarter 2", block(B, []int{q - 4, 2*q + 22}, -1), [3]bool{false, true, false}, [3]int{}},
		{"miss in quarter 3", block(B, []int{2*q + 2}, -1), [3]bool{false, false, true}, [3]int{}},
		{"all three missed", block(B, []int{0}, never), [3]bool{true, true, true}, [3]int{}},
		{"all three missed in a 160-byte tail", block(160, []int{0}, never), [3]bool{true, true, true}, [3]int{}},
		{"missed, met on the quarter's first byte", block(B, []int{0}, q), [3]bool{true, true, true}, [3]int{1, 0, 0}},
		{"missed, met mid-quarter", block(B, []int{0}, q+6), [3]bool{true, true, true}, [3]int{7, 0, 0}},
		{"missed, met on quarter 1's last byte", block(B, []int{0}, 2*q-1), [3]bool{true, false, true}, [3]int{q, 0, 0}},
		{"missed, met on quarter 2's last byte", block(B, []int{q - 4, 2*q + 22}, 3*q-1), [3]bool{false, true, false}, [3]int{0, q, 0}},
		{"missed, met on the block's last byte", block(B, []int{2*q + 2}, B-1), [3]bool{false, false, true}, [3]int{0, 0, q}},
	} {
		missed, steps, met := replay(d, d.Start(), c.w)
		for k := range missed {
			meet := 0
			if met[k] {
				meet = steps[k]
			}
			if missed[k] != c.missed[k] || meet != c.meet[k] {
				t.Fatalf("%s: quarter %d: the guess missed: %v, the re-walk met on byte %d; the case is built for %v, %d",
					c.name, k+1, missed[k], meet, c.missed[k], c.meet[k])
			}
		}
		checkRecord(t, c.name, d, d.Start(), c.w)
	}
}

// TestWalkLanesRecords calls the multi-flow kernel itself, over a Quarters
// record filled with garbage, and requires what four byte-at-a-time walks
// give: lane k's rows right-aligned in quarter k, Rows[64k+64−n, 64k+64),
// and nothing before them touched; the fold's bit 63 clear exactly when
// some lane visited an accept state; and, after the carry pass over the
// strip, each Accepts[k] the per-row compare of lane k's rows. For every
// strip length 1…64 the four lanes enter at four distinct states — one of
// them a byte short of accepting — and a quiet strip is walked, then one
// with an accept planted at every offset of each lane in turn; then C8's
// fragment automaton over word-salted text, strips taken from inside longer
// windows.
func TestWalkLanesRecords(t *testing.T) {
	const L = quarter
	check := func(name string, d *dfa.DFA, entry [4]uint32, w [4][]byte, at int) {
		t.Helper()
		trans, classOf, stride := d.ScanTable()
		sa := d.AcceptStart() * uint32(stride)
		scaled := entry
		for k := range scaled {
			scaled[k] *= uint32(stride)
		}
		var rec dfa.Quarters
		for i := range rec.Rows {
			rec.Rows[i] = 0xdeadbeef
		}
		fold := dfa.WalkLanes(trans, classOf, sa, &scaled, &w, at, &rec)
		n := min(len(w[0])-at, L)
		accepted := false
		for k, st := range entry {
			rows := rec.Rows[k*L : (k+1)*L]
			for i, c := range w[k][at : at+n] {
				st = d.Next(st, c)
				accepted = accepted || st >= d.AcceptStart()
				if got := rows[L-n+i]; got != st*uint32(stride) {
					t.Fatalf("%s: lane %d byte %d of %d: row %#x, the byte-at-a-time walk %#x", name, k, i, n, got, st*uint32(stride))
				}
			}
			for i, row := range rows[:L-n] {
				if row != 0xdeadbeef {
					t.Fatalf("%s: lane %d: row %d before a %d-byte strip written (%#x)", name, k, i, n, row)
				}
			}
		}
		if got := fold>>63 == 0; got != accepted {
			t.Fatalf("%s: fold reports an accept visit: %v, the byte-at-a-time walk: %v", name, got, accepted)
		}
		rec.Carry(n, sa)
		for k, word := range rec.Accepts {
			var want uint64
			for i := L - n; i < L; i++ {
				if rec.Rows[k*L+i] >= sa {
					want |= 1 << i
				}
			}
			if word != want {
				t.Fatalf("%s: lane %d: accept word %#x after the carry pass, the rows' compare %#x", name, k, word, want)
			}
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
// comes on the fifth visit, and on the first visit of a block's last
// quarter — after guesses that held, and after three that missed and were
// walked again — which must find every visit of the first three quarters
// delivered.
func TestFeedPanicMidStrip(t *testing.T) {
	for _, c := range []struct {
		name          string
		d             *dfa.DFA
		prefix, input []byte
		lastQuarter   bool
	}{
		{"fifth visit", compileSources(t, "a"), []byte("xxa"), bytes.Repeat([]byte("xa"), dfa.BlockLen), false},
		{"last quarter", compileSources(t, "a"), []byte("xxa"), bytes.Repeat([]byte("xa"), dfa.BlockLen), true},
		{"last quarter of missed guesses", compileSources(t, parityRule), nil, parityText(2*dfa.BlockLen, 5), true},
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
			case c.lastQuarter && ev.Pos < pos+3*quarter || !c.lastQuarter && len(want) < 4:
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
// them at an edge of a quarter or of a block, or of a four-chain call's
// shortest length, half of them long enough to hold whole blocks and a
// four-quarter tail. The kernel's record of each chunk's first call, from
// the state the flow is in, is held to checkRecord's.
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
		st := d.Start()
		for lo := 0; lo < len(input); {
			n := stripChunks[rng.Intn(len(stripChunks))]
			if rng.Intn(2) == 0 {
				n = 1 + rng.Intn(4*dfa.BlockLen) // mostly whole blocks and a tail
			}
			n = min(n, len(input)-lo)
			checkRecord(t, fmt.Sprintf("the call at byte %d", lo), d, st, input[lo:lo+n])
			r.Feed(input[lo:lo+n], func(id int32, pos int64) { got = append(got, dfa.MatchEvent{ID: id, Pos: pos}) })
			st = walk(d, st, input[lo:lo+n])
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
// every accept word set), and the two never-synchronizing automata above —
// the distance automaton over its live text, and the parity automaton on
// the worst case by construction: every guess missed and its quarter walked
// again to the end. q1…q3-misses/block and rewalk/B are the guesses'
// record on the row's input (replayed over the plain-state API, outside the
// timer). CI runs it once and separately checks the kernel's disassembly.
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
			var rec dfa.Quarters
			var total int
			b.SetBytes(int64(len(bc.data)))
			for i := 0; i < b.N; i++ {
				st := bc.d.Start() * uint32(stride)
				total = 0
				for data := bc.data; len(data) > 0; data = data[rec.Len():] {
					st = dfa.WalkQuarters(trans, classOf, st, scaledAccept, data, &rec)
					for _, w := range rec.Accepts {
						total += bits.OnesCount64(w)
					}
				}
			}
			b.StopTimer()
			blocks, misses, rewalked := speculation(bc.d, bc.data)
			b.ReportMetric(float64(total)/float64(len(bc.data)), "visits/B")
			for k, m := range misses {
				b.ReportMetric(float64(m)/float64(blocks), fmt.Sprintf("q%d-misses/block", k+1))
			}
			b.ReportMetric(float64(rewalked)/float64(len(bc.data)), "rewalk/B")
		})
	}
}
