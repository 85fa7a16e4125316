package core

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"matchfilter/internal/filter"
	"matchfilter/internal/patterns"
	"matchfilter/internal/trace"
)

// withoutSkips returns a copy of m whose Feed runs every accept program:
// the reference a skipping Feed is held to.
func withoutSkips(m *MFA) *MFA {
	ref := *m
	ref.resetOnly = make([]bool, len(m.resetOnly))
	return &ref
}

// quietSkips replays Feed's skip rule on a fresh flow of m, one Feed call
// per chunk, stepping the plain DFA a byte at a time: quiet is read at a
// call's start, a reset-only visit is skipped while it holds, and after a
// program runs it holds only if the program was reset-only and left the
// flow quiet. (Feed reads it lazily, at the next reset-only visit; nothing
// runs in between, so the decisions are the same.) It returns the visits
// skipped and all visits.
func quietSkips(m *MFA, chunks ...[]byte) (skipped, visits int) {
	r, d := m.NewRunner(), m.DFA()
	q, pos := d.Start(), int64(0)
	for _, chunk := range chunks {
		quiet := m.quiet.Holds(r.mem, r.ctrs)
		for _, c := range chunk {
			if q = d.Next(q, c); d.Accepting(q) {
				visits++
				a := q - d.AcceptStart()
				if quiet && m.resetOnly[a] {
					skipped++
				} else {
					m.fires[a].Run(r.mem, r.regs, r.ctrs, pos, func(int32, int64) {})
					quiet = m.resetOnly[a] && m.quiet.Holds(r.mem, r.ctrs)
				}
			}
			pos++
		}
	}
	return skipped, visits
}

// flowCtx is a saved flow context, compared field by field.
type flowCtx struct {
	state uint32
	pos   int64
	mem   filter.Memory
	regs  filter.Registers
	ctrs  filter.Counters
}

func (a flowCtx) equal(b flowCtx) bool {
	return a.state == b.state && a.pos == b.pos && slices.Equal(a.mem, b.mem) &&
		slices.Equal(a.regs, b.regs) && slices.Equal(a.ctrs, b.ctrs)
}

// feedRoundTrips feeds data to a fresh flow of m in n-byte calls and, at
// every cut, saves the context and restores it into a new runner that
// carries on: the stream and every saved context.
func feedRoundTrips(t testing.TB, m *MFA, data []byte, n int) ([]event, []flowCtx) {
	t.Helper()
	var evs []event
	var ctxs []flowCtx
	r := m.NewRunner()
	for lo := 0; lo < len(data); lo += n {
		r.Feed(data[lo:min(lo+n, len(data))], func(id int32, pos int64) { evs = append(evs, event{id, pos}) })
		c := flowCtx{pos: r.Pos()}
		c.state, c.mem, c.regs, c.ctrs = r.Context()
		ctxs = append(ctxs, c)
		r = m.NewRunner()
		if err := r.SetContext(c.state, c.mem, c.regs, c.ctrs, c.pos); err != nil {
			t.Fatal(err)
		}
	}
	return evs, ctxs
}

// checkSameAsReference requires m and ref to produce the same stream and the
// same context at every cut over data in each chunking, and returns the
// stream's length.
func checkSameAsReference(t testing.TB, name string, m, ref *MFA, data []byte, chunkings []int) int {
	t.Helper()
	matches := 0
	for _, n := range chunkings {
		got, gotCtx := feedRoundTrips(t, m, data, n)
		want, wantCtx := feedRoundTrips(t, ref, data, n)
		if !sameEvents(got, want) {
			t.Fatalf("%s, %d-byte calls: %d matches with quiet visits skipped, %d with every program run\nfirst difference near %v / %v",
				name, n, len(got), len(want), firstDiff(got, want), firstDiff(want, got))
		}
		for i := range gotCtx {
			if !gotCtx[i].equal(wantCtx[i]) {
				t.Fatalf("%s, %d-byte calls: context at %d differs\nskipping %+v\nrunning  %+v", name, n, gotCtx[i].pos, gotCtx[i], wantCtx[i])
			}
		}
		matches = len(got)
	}
	return matches
}

// firstDiff is the first event of a that b does not have at the same index.
func firstDiff(a, b []event) any {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return a[i]
		}
	}
	return "none"
}

// quietChunkings are the call lengths TestQuietVisitsExact cuts at: a byte,
// and either side of a mask word's and a block's edge.
var quietChunkings = []int{1, 63, 64, 65, 127, 128, 129}

// TestQuietVisitsExact holds Feed's skip of reset-only visits on quiet flows
// (DESIGN.md §21) to the same automaton with every program run: the stream
// and the context at every cut, restored at every cut, in calls of every
// length in quietChunkings. The texts: plain text with words of the set
// (mostly quiet line ends); live-all and live-one, every line opening with
// recording words (no line end quiet); a recording word and a line end in
// one block, the line end a reset-only visit right behind a loud one; and
// a witness recorded and reset at one position (X the last byte of A),
// followed by a reset-only X that must run. The skip rule is replayed to
// show skips happened, and a copy that skips whatever the flow holds must
// lose the comparison.
func TestQuietVisitsExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		sets []string
	}{
		{"S24+CTR24", []string{"S24", "CTR24"}},
		{"C8", []string{"C8"}},
		{"CTR8", []string{"CTR8"}},
	} {
		m, words := compileSets(t, Options{}, tc.sets...)
		ref := withoutSkips(m)
		plain := trace.TextLike(4<<10, 131, words, 0.02)
		texts := map[string][]byte{"plain": plain}
		if rec := recordingWords(t, tc.sets...); len(rec) >= 8 {
			texts["live-all"] = bytes.ReplaceAll(plain, []byte("\n"), []byte("\n"+strings.Join(rec[:8], " ")))
			texts["live-one"] = bytes.ReplaceAll(plain, []byte("\n"), []byte("\n"+rec[0]))
		}
		var loud []byte
		for _, p := range gapPairs(t, tc.sets...) {
			loud = fmt.Appendf(loud, "x %s\n----%s x\n%s ----%s\n", p[0], p[1], p[0], p[1])
		}
		texts["loud-then-newline"] = loud
		matches := 0
		for name, data := range texts {
			matches += checkSameAsReference(t, tc.name+"/"+name, m, ref, data, quietChunkings)
		}
		if matches == 0 {
			t.Errorf("%s: no match in any text; the streams compared prove little", tc.name)
		}
		if skipped, visits := quietSkips(m, plain); skipped*2 < visits {
			t.Errorf("%s: %d of %d visits of the plain text skipped; most land on a quiet line end", tc.name, skipped, visits)
		}
		// A word in one call, the line end in the next: the flow is loud when
		// the second call reads whether it is quiet.
		loose := *m
		loose.quiet = filter.Quiet{} // holds on any flow
		got, _ := feedRoundTrips(t, &loose, loud, 1)
		if sortEvents(got); sameEvents(got, mfaEvents(ref, loud)) {
			t.Errorf("%s: skipping line ends whatever the flow holds changed nothing on %q", tc.name, loud)
		}
	}

	sources := []string{`ab:[^:]*ca`, `xy:[^:]{2,9}zw`}
	m := compileMFA(t, Options{}, sources...)
	inputs := [][]byte{[]byte("ab:ca"), []byte("ab::ca"), []byte("ab:-:ca"), []byte("xy:--zw"), []byte("xy::--zw"), []byte("xy:-:--zw-ab:ca:xy:--zw")}
	if matched := assertOracle(t, sources, inputs); matched == 0 || matched == len(inputs) {
		t.Errorf("X the last byte of A: %d of %d inputs match; want both kinds", matched, len(inputs))
	}
	var all []byte
	for _, in := range inputs {
		all = append(append(all, in...), '\n')
	}
	checkSameAsReference(t, "X the last byte of A", m, withoutSkips(m), bytes.Repeat(all, 8), quietChunkings)
}

// gapPairs returns the A and B words of the sets' A[^\n]*B and A[^\n]{n,m}B
// rules, anchors and windows stripped.
func gapPairs(tb testing.TB, sets ...string) [][2]string {
	tb.Helper()
	var out [][2]string
	for _, set := range sets {
		sources, err := patterns.Sources(set)
		if err != nil {
			tb.Fatal(err)
		}
		for _, src := range sources {
			a, b, ok := strings.Cut(src, `[^\n]`)
			if !ok {
				continue
			}
			if _, rest, win := strings.Cut(b, "}"); win && strings.HasPrefix(b, "{") {
				b = rest
			}
			out = append(out, [2]string{strings.TrimPrefix(a, "^"), strings.TrimPrefix(b, "*")})
		}
	}
	return out
}

// TestAcceptResetOnlyCounts pins BuildStats.AcceptResetOnly on the sets the
// benchmark's workloads scan: the line end of C8 and of S24 ∪ CTR24 (its
// two line-end states), and none on C10 and B217p, whose rules have no
// almost-dot-star.
func TestAcceptResetOnlyCounts(t *testing.T) {
	for _, tc := range []struct {
		sets             []string
		resetOnly, total int
	}{
		{[]string{"C8"}, 1, 15},
		{[]string{"S24", "CTR24"}, 2, 96},
		{[]string{"C10"}, 0, 20},
		{[]string{"B217p"}, 0, 256},
	} {
		m, _ := compileSets(t, Options{}, tc.sets...)
		if got, total := m.Stats().AcceptResetOnly, len(m.fires); got != tc.resetOnly || total != tc.total {
			t.Errorf("%v: %d of %d accepting states reset-only, want %d of %d", tc.sets, got, total, tc.resetOnly, tc.total)
		}
	}
}

// rotated is data rotated left by k quarters of its length.
func rotated(data []byte, k int) []byte {
	at := k * len(data) / 4
	return append(bytes.Clone(data[at:]), data[:at]...)
}

// quadFlows scans four flows of m through a K = 4 batcher, flow k over
// rotated(data, k), in n-byte chunks, one chunk of each flow a window, with
// the routing verdict held off: every byte goes through the quad's walk and
// lockstep's drain. It returns each flow's stream and final context, and
// the bytes the batcher scanned in lockstep.
func quadFlows(m *MFA, data []byte, n int) (evs [4][]event, ctxs [4]flowCtx, lockstep int64) {
	var runners [4]*Runner
	var flows [4][]byte
	for k := range runners {
		runners[k], flows[k] = m.NewRunner(), rotated(data, k)
	}
	b := NewFlowBatcher(4)
	for lo := 0; lo < len(data); lo += n {
		for k, r := range runners {
			r.dense = false
			b.Add(r, k, flows[k][lo:min(lo+n, len(data))], func(id int32, pos int64) { evs[k] = append(evs[k], event{id, pos}) })
		}
		b.Flush()
	}
	for k, r := range runners {
		ctxs[k].pos = r.Pos()
		ctxs[k].state, ctxs[k].mem, ctxs[k].regs, ctxs[k].ctrs = r.Context()
	}
	_, _, lockstep, _ = b.Counts()
	return evs, ctxs, lockstep
}

// FuzzQuietVisits: fuzzed A, B and X make A[^X]*B and A[^X]{n,m}B, scanned
// over fuzzed text on the words' alphabet, X and a filler byte, in fuzzed
// call lengths with a context round trip at every cut; skipping quiet
// visits must give the stream and contexts of running every program. The
// same text, rotated, is scanned as four flows of one quad (quadFlows), each
// held to the reference's Feed over its rotation.
func FuzzQuietVisits(f *testing.F) {
	f.Add("ab", "cd", uint8(0), uint8(2), uint8(9), []byte{0, 1, 4, 2, 3, 4, 0, 1, 5, 2, 3}, uint8(3))
	f.Add("abc", "ca", uint8(1), uint8(1), uint8(12), []byte{0, 1, 2, 4, 5, 4, 2, 0, 5, 2, 0}, uint8(0))
	f.Add("ab", "d", uint8(3), uint8(3), uint8(8), []byte{0, 1, 5, 5, 5, 3, 0, 1, 4, 5, 5, 5, 3}, uint8(127))
	f.Add("\x00\x01", "\x02\x03", uint8(0), uint8(2), uint8(9), []byte{0, 1, 4, 2, 3, 4, 0, 1, 5, 2, 3}, uint8(3)) // ab\ncd: the line end must run
	f.Fuzz(func(t *testing.T, a, b string, x, lo, hi uint8, text []byte, chunk uint8) {
		a, b = fuzzWord(a, 5), fuzzWord(b, 4)
		if a == "" || b == "" {
			return
		}
		gap := fuzzGapBytes[int(x)%len(fuzzGapBytes)]
		n := int(lo) % 8
		sources := []string{a + "[^" + gap.src + "]*" + b, fmt.Sprintf("%s[^%s]{%d,%d}%s", a, gap.src, n, n+8+int(hi)%24, b)}
		m, err := Compile(mustRules(t, sources...), Options{})
		if err != nil {
			t.Skip(err)
		}
		alphabet := []byte{'a', 'b', 'c', 'd', gap.b, '-'}
		data := make([]byte, min(len(text), 1024))
		for i := range data {
			data[i] = alphabet[int(text[i])%len(alphabet)]
		}
		name, ref := fmt.Sprintf("%q on %q", sources, data), withoutSkips(m)
		checkSameAsReference(t, name, m, ref, data, []int{1 + int(chunk)%130, len(data) + 1})

		got, gotCtx, lockstep := quadFlows(m, data, 1+int(chunk)%130)
		for k := range got {
			want, wantCtx := feedRoundTrips(t, ref, rotated(data, k), len(data)+1)
			if !sameEvents(got[k], want) || len(data) > 0 && !gotCtx[k].equal(wantCtx[0]) {
				t.Fatalf("%s, flow %d of a quad: %v at %+v with quiet visits skipped, %v at %+v with every program run",
					name, k, got[k], gotCtx[k], want, wantCtx)
			}
		}
		if lockstep != 4*int64(len(data)) {
			t.Fatalf("%s: %d of %d bytes scanned in lockstep", name, lockstep, 4*len(data))
		}
	})
}
