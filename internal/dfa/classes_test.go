package dfa

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// everyByte is 256 one-byte rules, \x00 … \xff: every byte value is its
// own class, so the table is 256 columns under the identity map.
func everyByte() []string {
	srcs := make([]string, 256)
	for b := range srcs {
		srcs[b] = fmt.Sprintf(`\x%02x`, b)
	}
	return srcs
}

// TestClassMapIsExactQuotient checks the defining property of the byte
// equivalence classes against the 256-wide table: two bytes share a class
// iff every state maps them to the same successor — no over-merging
// (which would corrupt matching) and no under-splitting (which would
// waste table space) — for the class map a build keeps and for
// computeClasses over the 256-wide table.
func TestClassMapIsExactQuotient(t *testing.T) {
	sources := [][]string{
		{"abc"},
		{"a|b|c", "ca"},
		{`/^GET[^\n]*passwd/i`, "attack.*payload"},
		{"vi.*emacs", "bsd.*gnu", "abc.*mm?o.*xyz"},
		{"[0-9]+[a-f]*xyz", "zz.*[^q]*end"},
		everyByte(),
	}
	for _, srcs := range sources {
		d, err := FromNFA(buildNFA(t, srcs...), Options{})
		if err != nil {
			t.Fatal(err)
		}
		table := d.TransitionTable()
		classOf, k := computeClasses(table, 256)
		if k != d.NumClasses() || !bytes.Equal(classOf, d.ClassMap()) {
			t.Fatalf("%d rules: computeClasses found %d classes, the build keeps %d", len(srcs), k, d.NumClasses())
		}
		for b1 := 0; b1 < 256; b1++ {
			for b2 := b1 + 1; b2 < 256; b2++ {
				same := true
				for s := 0; s < d.numStates && same; s++ {
					same = table[s*256+b1] == table[s*256+b2]
				}
				if got := classOf[b1] == classOf[b2]; got != same {
					t.Fatalf("%d rules: bytes %#x,%#x: same class %v, same columns %v",
						len(srcs), b1, b2, got, same)
				}
			}
		}
	}
}

// TestEveryByteIsItsOwnClass: a set that tells every byte value apart
// builds the 256-column table under the identity map, the shape a flat
// image loads as, and scans like its rules say.
func TestEveryByteIsItsOwnClass(t *testing.T) {
	d, err := FromNFA(buildNFA(t, everyByte()...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumClasses() != 256 || !bytes.Equal(d.ClassMap(), identityClasses[:]) {
		t.Fatalf("%d classes, map %v; want 256 under the identity map", d.NumClasses(), d.ClassMap())
	}
	if got, want := d.TableBytes(), d.NumStates()*256*4+256; got != want {
		t.Fatalf("TableBytes = %d, want %d", got, want)
	}
	input := []byte("\x00a\xff")
	if got := fmt.Sprint(NewEngine(d).Run(input)); got != "[{1 0} {98 1} {256 2}]" {
		t.Fatalf("scan of %q: %s", input, got)
	}
}

// TestClassedNextMatchesFlat checks the two tables of C10's automaton
// pointwise: for every (state, byte), the classed image's successor
// equals that of the flat image, loaded under the identity map.
func TestClassedNextMatchesFlat(t *testing.T) {
	flat, err := ReadDFA(bytes.NewReader(golden(t, "c10_v2_flat.dfa")))
	if err != nil {
		t.Fatal(err)
	}
	classed, err := ReadDFA(bytes.NewReader(golden(t, "c10_v2_classed.dfa")))
	if err != nil {
		t.Fatal(err)
	}
	if flat.NumClasses() != 256 || classed.NumClasses() >= 256 {
		t.Fatalf("classes: flat=%d classed=%d", flat.NumClasses(), classed.NumClasses())
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

// TestMarshalRoundTripBothLayouts checks WriteTo/ReadDFA over both table
// widths a build can have, a class quotient and the 256 columns of the
// identity map: the decoded automaton must preserve class map and match
// behaviour exactly.
func TestMarshalRoundTripBothLayouts(t *testing.T) {
	for _, srcs := range [][]string{{"attack.*payload", "x[0-9]+y"}, everyByte()} {
		d, err := FromNFA(buildNFA(t, srcs...), Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			t.Fatalf("%d classes: write: %v", d.NumClasses(), err)
		}
		got, err := ReadDFA(&buf)
		if err != nil {
			t.Fatalf("%d classes: read: %v", d.NumClasses(), err)
		}
		if got.NumClasses() != d.NumClasses() || !bytes.Equal(got.ClassMap(), d.ClassMap()) {
			t.Fatalf("%d classes: round trip has %d classes or another class map", d.NumClasses(), got.NumClasses())
		}
		input := []byte("zz attack with payload x129y zz")
		if fmt.Sprint(NewEngine(got).Run(input)) != fmt.Sprint(NewEngine(d).Run(input)) {
			t.Fatalf("%d classes: decoded engine disagrees with original", d.NumClasses())
		}
	}
}

// TestMarshalTableSizeValidated is the regression test for the silent
// table-length acceptance: a v2 stream whose declared table length
// disagrees with numStates × numClasses must fail with ErrTableSize
// (and ErrBadFormat for callers matching the broader class), not decode
// shifted.
func TestMarshalTableSizeValidated(t *testing.T) {
	d, err := FromNFA(buildNFA(t, "abc"), Options{})
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
	d, err := FromNFA(buildNFA(t, "abc"), Options{})
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
// header keep decoding (the versioned-header compatibility contract), as
// the 256-class table under the identity map.
func TestReadV1Format(t *testing.T) {
	d, err := FromNFA(buildNFA(t, "ab.*cd"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Frame the automaton's 256-wide table in the v1 layout by hand.
	var buf bytes.Buffer
	buf.WriteString(dfaMagicV1)
	le := func(v uint32) { buf.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}) }
	le(uint32(d.numStates))
	le(d.start)
	le(d.acceptStart)
	for _, to := range d.TransitionTable() {
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
	if got.NumClasses() != 256 || !bytes.Equal(got.ClassMap(), identityClasses[:]) {
		t.Fatalf("v1 decode: %d classes, want 256 under the identity map", got.NumClasses())
	}
	input := []byte("xx ab 123 cd yy")
	if fmt.Sprint(NewEngine(got).Run(input)) != fmt.Sprint(NewEngine(d).Run(input)) {
		t.Fatal("v1-decoded engine disagrees with original")
	}
}

// TestPreScaleInvariant checks the one precondition of the scan kernel:
// row bases are next × k in a uint32, so a table whose numStates × k
// reaches 2³² must be refused (wrapped ErrTooManyStates), not wrapped
// around. The rows are hand-assembled and carry one row, which splits
// every column — classed checks before it reads another, so no 16 GiB
// build is needed to get there.
func TestPreScaleInvariant(t *testing.T) {
	r := &rows{numStates: 1 << 24, next: make([]uint32, 256), k: 256, classOf: identityClasses[:], acceptStart: 1 << 24}
	for c := range r.next {
		r.next[c] = uint32(c)
	}
	if _, err := r.classed(); !errors.Is(err, ErrTooManyStates) { // 2²⁴ × 256 = 2³²
		t.Fatalf("2²⁴ states × 256 classes: got %v, want ErrTooManyStates", err)
	}
}
