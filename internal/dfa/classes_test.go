package dfa

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestClassMapIsExactQuotient checks the defining property of the byte
// equivalence classes against the flat table: two bytes share a class
// iff every state maps them to the same successor — no over-merging
// (which would corrupt matching) and no under-splitting (which would
// waste table space).
func TestClassMapIsExactQuotient(t *testing.T) {
	sources := [][]string{
		{"abc"},
		{"a|b|c", "ca"},
		{`/^GET[^\n]*passwd/i`, "attack.*payload"},
		{"vi.*emacs", "bsd.*gnu", "abc.*mm?o.*xyz"},
		{"[0-9]+[a-f]*xyz", "zz.*[^q]*end"},
	}
	for _, srcs := range sources {
		flat, err := FromNFA(buildNFA(t, srcs...), Options{Layout: LayoutFlat})
		if err != nil {
			t.Fatal(err)
		}
		classOf, k := computeClasses(flat.trans, 256)
		if k < 1 || k > 256 {
			t.Fatalf("%v: %d classes", srcs, k)
		}
		for b1 := 0; b1 < 256; b1++ {
			for b2 := b1 + 1; b2 < 256; b2++ {
				same := true
				for s := 0; s < flat.numStates && same; s++ {
					same = flat.trans[s*256+b1] == flat.trans[s*256+b2]
				}
				if got := classOf[b1] == classOf[b2]; got != same {
					t.Fatalf("%v: bytes %#x,%#x: same class %v, same columns %v",
						srcs, b1, b2, got, same)
				}
			}
		}
	}
}

// TestClassedNextMatchesFlat checks the repacked table pointwise: for
// every (state, byte), the classed automaton's successor equals the flat
// one's.
func TestClassedNextMatchesFlat(t *testing.T) {
	srcs := []string{"attack.*payload", `/^get[^\n]*passwd/i`, "[0-9]{2}x"}
	flat, err := FromNFA(buildNFA(t, srcs...), Options{Layout: LayoutFlat})
	if err != nil {
		t.Fatal(err)
	}
	classed, err := FromNFA(buildNFA(t, srcs...), Options{Layout: LayoutClassed})
	if err != nil {
		t.Fatal(err)
	}
	if classed.Layout() != LayoutClassed || flat.Layout() != LayoutFlat {
		t.Fatalf("layouts: flat=%v classed=%v", flat.Layout(), classed.Layout())
	}
	if classed.NumStates() != flat.NumStates() {
		t.Fatalf("state counts differ: %d vs %d", classed.NumStates(), flat.NumStates())
	}
	for s := uint32(0); s < uint32(flat.NumStates()); s++ {
		for b := 0; b < 256; b++ {
			if f, c := flat.Next(s, byte(b)), classed.Next(s, byte(b)); f != c {
				t.Fatalf("state %d byte %#x: flat→%d classed→%d", s, b, f, c)
			}
		}
	}
	// The expansion path must reproduce the flat table exactly.
	ft, ct := flat.TransitionTable(), classed.TransitionTable()
	for i := range ft {
		if ft[i] != ct[i] {
			t.Fatalf("expanded table differs at %d: %d vs %d", i, ft[i], ct[i])
		}
	}
}

// TestLayoutEquivalenceRandom property-checks the tentpole invariant at
// the dfa level: flat and classed engines built from the same NFA
// produce identical (id, pos) match streams on random inputs, across
// random rule sets, with and without minimization — whole, and fed in
// random chunks with the context moved to the other layout's runner at
// every chunk boundary (State/SetState speak plain state numbers).
func TestLayoutEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	words := []string{"ab", "abc", "bc", "ca", "aab", "cc", "GET", "pass"}

	for trial := 0; trial < 40; trial++ {
		var sources []string
		for ri := 0; ri < 1+rng.Intn(4); ri++ {
			var sb strings.Builder
			if rng.Intn(4) == 0 {
				sb.WriteByte('^')
			}
			sb.WriteString(words[rng.Intn(len(words))])
			switch rng.Intn(4) {
			case 0:
				sb.WriteString("|" + words[rng.Intn(len(words))])
			case 1:
				sb.WriteString("?" + words[rng.Intn(len(words))])
			case 2:
				sb.WriteString(".*" + words[rng.Intn(len(words))])
			}
			sources = append(sources, sb.String())
		}
		minimize := trial%2 == 0

		n := buildNFA(t, sources...)
		flat, err := FromNFA(n, Options{Layout: LayoutFlat, Minimize: minimize})
		if err != nil {
			t.Fatal(err)
		}
		classed, err := FromNFA(n, Options{Layout: LayoutClassed, Minimize: minimize})
		if err != nil {
			t.Fatal(err)
		}
		flatE, classedE := NewEngine(flat), NewEngine(classed)
		for ii := 0; ii < 5; ii++ {
			input := make([]byte, 10+rng.Intn(120))
			for i := range input {
				input[i] = "abcGETps "[rng.Intn(9)]
			}
			want := flatE.Run(input)
			if fmt.Sprint(want) != fmt.Sprint(classedE.Run(input)) {
				t.Fatalf("rules %v input %q: flat %v vs classed %v",
					sources, input, want, classedE.Run(input))
			}
			var got []MatchEvent
			cb := func(id int32, pos int64) { got = append(got, MatchEvent{ID: id, Pos: pos}) }
			r, other := classedE.NewRunner(), flatE.NewRunner()
			for rest := input; len(rest) > 0; r, other = other, r {
				n := 1 + rng.Intn(len(rest))
				r.Feed(rest[:n], cb)
				if st := r.State(); st >= uint32(flat.NumStates()) {
					t.Fatalf("rules %v: saved state %d is not a plain state number", sources, st)
				}
				other.SetState(r.State(), r.Pos())
				rest = rest[n:]
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("rules %v input %q chunked across layouts: %v, want %v", sources, input, got, want)
			}
		}
	}
}

// TestLayoutAutoPicksClassed checks the Auto policy: pattern sets with
// few distinct byte behaviours compress and Auto keeps the classed form.
func TestLayoutAutoPicksClassed(t *testing.T) {
	d, err := FromNFA(buildNFA(t, "abc.*def", "xy?z"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Layout() != LayoutClassed {
		t.Fatalf("auto layout = %v, want classed", d.Layout())
	}
	if d.NumClasses() > autoClassThreshold {
		t.Fatalf("%d classes exceeds the auto threshold yet classed was kept", d.NumClasses())
	}
	if got := d.TableBytes(); got >= d.NumStates()*256*4 {
		t.Fatalf("classed table %d B not smaller than flat %d B", got, d.NumStates()*256*4)
	}
}

// TestMarshalRoundTripBothLayouts checks WriteTo/ReadDFA over both
// layouts: the decoded automaton must preserve layout, class map and
// match behaviour exactly.
func TestMarshalRoundTripBothLayouts(t *testing.T) {
	for _, layout := range []Layout{LayoutFlat, LayoutClassed} {
		d, err := FromNFA(buildNFA(t, "attack.*payload", "x[0-9]+y"), Options{Layout: layout})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			t.Fatalf("%v: write: %v", layout, err)
		}
		got, err := ReadDFA(&buf)
		if err != nil {
			t.Fatalf("%v: read: %v", layout, err)
		}
		if got.Layout() != layout || got.NumClasses() != d.NumClasses() {
			t.Fatalf("%v: round-trip layout=%v classes=%d, want classes=%d",
				layout, got.Layout(), got.NumClasses(), d.NumClasses())
		}
		if !bytes.Equal(got.ClassMap(), d.ClassMap()) {
			t.Fatalf("%v: class map changed across round trip", layout)
		}
		input := []byte("zz attack with payload x129y zz")
		if fmt.Sprint(NewEngine(got).Run(input)) != fmt.Sprint(NewEngine(d).Run(input)) {
			t.Fatalf("%v: decoded engine disagrees with original", layout)
		}
	}
}

// TestMarshalTableSizeValidated is the regression test for the silent
// table-length acceptance: a v2 stream whose declared table length
// disagrees with numStates × numClasses must fail with ErrTableSize
// (and ErrBadFormat for callers matching the broader class), not decode
// shifted.
func TestMarshalTableSizeValidated(t *testing.T) {
	d, err := FromNFA(buildNFA(t, "abc"), Options{Layout: LayoutClassed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// The u32 table length sits after magic(7) + 3×u32 header + layout
	// byte + u32 numClasses + 256-byte class map.
	off := len(dfaMagicV2) + 12 + 1 + 4 + 256
	corrupt := bytes.Clone(raw)
	corrupt[off]++ // declare one extra entry
	_, err = ReadDFA(bytes.NewReader(corrupt))
	if !errors.Is(err, ErrTableSize) {
		t.Fatalf("length mismatch: got %v, want ErrTableSize", err)
	}
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("ErrTableSize must also match ErrBadFormat, got %v", err)
	}

	// The encoder guards the same invariant: an inconsistent in-memory
	// automaton is refused rather than written undecodably.
	bad := &DFA{numStates: 2, numClasses: 7, trans: make([]uint32, 13), accepts: nil}
	if _, err := bad.WriteTo(&bytes.Buffer{}); !errors.Is(err, ErrTableSize) {
		t.Fatalf("encode of inconsistent table: got %v, want ErrTableSize", err)
	}
}

// TestMarshalRejectsBadClassMap checks that a class map referencing a
// class beyond numClasses — which would index past the table rows at
// scan time — is rejected at decode.
func TestMarshalRejectsBadClassMap(t *testing.T) {
	d, err := FromNFA(buildNFA(t, "abc"), Options{Layout: LayoutClassed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	mapOff := len(dfaMagicV2) + 12 + 1 + 4
	raw[mapOff] = byte(d.NumClasses()) // class id == numClasses: out of range
	if _, err := ReadDFA(bytes.NewReader(raw)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("bad class map: got %v, want ErrBadFormat", err)
	}
}

// TestReadV1Format checks that flat v1 images written before the layout
// header keep decoding (the versioned-header compatibility contract).
func TestReadV1Format(t *testing.T) {
	d, err := FromNFA(buildNFA(t, "ab.*cd"), Options{Layout: LayoutFlat})
	if err != nil {
		t.Fatal(err)
	}
	// Re-frame the flat automaton in the v1 layout by hand.
	var buf bytes.Buffer
	buf.WriteString(dfaMagicV1)
	le := func(v uint32) { buf.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}) }
	le(uint32(d.numStates))
	le(d.start)
	le(d.acceptStart)
	for _, to := range d.plainTable() {
		le(to)
	}
	le(uint32(len(d.accepts)))
	for _, ids := range d.accepts {
		le(uint32(len(ids)))
		for _, id := range ids {
			le(uint32(id))
		}
	}
	got, err := ReadDFA(&buf)
	if err != nil {
		t.Fatalf("v1 decode: %v", err)
	}
	if got.Layout() != LayoutFlat || got.NumClasses() != 256 {
		t.Fatalf("v1 decode: layout=%v classes=%d", got.Layout(), got.NumClasses())
	}
	input := []byte("xx ab 123 cd yy")
	if fmt.Sprint(NewEngine(got).Run(input)) != fmt.Sprint(NewEngine(d).Run(input)) {
		t.Fatal("v1-decoded engine disagrees with original")
	}
}

// TestParseLayout pins the names the -layout flags accept, and that the
// removed layout is refused by name — with the reason, not as a typo.
func TestParseLayout(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    Layout
		errSays []string // nil = no error
	}{
		{"", LayoutAuto, nil},
		{"auto", LayoutAuto, nil},
		{"flat", LayoutFlat, nil},
		{"classed", LayoutClassed, nil},
		{"classed2", LayoutAuto, []string{"removed", "DESIGN.md §18"}},
		{"Classed", LayoutAuto, []string{"unknown layout"}},
	} {
		got, err := ParseLayout(tc.in)
		if got != tc.want || (err != nil) != (tc.errSays != nil) {
			t.Errorf("ParseLayout(%q) = %v, %v; want %v, error %v", tc.in, got, err, tc.want, tc.errSays != nil)
		}
		for _, say := range tc.errSays {
			if err != nil && !strings.Contains(err.Error(), say) {
				t.Errorf("ParseLayout(%q) error %q does not say %q", tc.in, err, say)
			}
		}
	}
	for _, l := range []Layout{LayoutAuto, LayoutFlat, LayoutClassed} {
		if got, err := ParseLayout(l.String()); err != nil || got != l {
			t.Errorf("ParseLayout(%v.String()) = %v, %v", l, got, err)
		}
	}
}

// TestPreScaleInvariant checks the one precondition of the scan kernel:
// row bases are next × k in a uint32, so a layout whose numStates × k
// reaches 2³² must be refused (wrapped ErrTooManyStates), not wrapped
// around. The rows are hand-assembled and carry no table — pack checks
// before it reads one, so no 16 GiB build is needed to get there.
func TestPreScaleInvariant(t *testing.T) {
	r := &rows{numStates: 1 << 24, k: 1, classOf: make([]uint8, 256), acceptStart: 1 << 24}
	if _, err := r.applyLayout(LayoutFlat); !errors.Is(err, ErrTooManyStates) { // 2²⁴ × 256 = 2³²
		t.Fatalf("2²⁴ states flat: got %v, want ErrTooManyStates", err)
	}
}
