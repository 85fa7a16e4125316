package dfa

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"matchfilter/internal/splitter"
)

// goldenImages are C10's fragment automaton as earlier releases wrote it
// (testdata/, generated once by the last release that could write v3;
// v1 was framed by hand, as no writer has existed since v2), with the v2
// image each must re-serialize to: "" for a flat image, which re-encodes
// as the identity-class table it loads as (flatAsClassed).
var goldenImages = []struct{ file, rewrites string }{
	{"c10_v1_flat.dfa", ""},
	{"c10_v2_flat.dfa", ""},
	{"c10_v2_classed.dfa", "c10_v2_classed.dfa"},
	{"c10_v3_classed2.dfa", "c10_v2_classed.dfa"},
}

func golden(tb testing.TB, name string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// flatAsClassed returns what WriteTo makes of a flat v2 image: the same
// bytes with layout code 1 and the 256-byte identity map after the class
// count.
func flatAsClassed(flat []byte) []byte {
	const code = len(dfaMagicV2) + 12 // after the magic and three u32
	out := bytes.Clone(flat[:code+5])
	out[code] = wireClassed
	out = append(out, identityClasses[:]...)
	return append(out, flat[code+5:]...)
}

// TestReadGoldenImages is the wire-compatibility contract: every image an
// earlier release wrote still loads — a flat one as the 256-class table
// under the identity map — scans the recorded payload to the recorded
// (id, pos) stream, and re-serializes as classed v2.
func TestReadGoldenImages(t *testing.T) {
	payload := golden(t, "c10_payload.bin")
	want := string(golden(t, "c10_matches.txt"))
	for _, g := range goldenImages {
		d, err := ReadDFA(bytes.NewReader(golden(t, g.file)))
		if err != nil {
			t.Fatalf("%s: %v", g.file, err)
		}
		var rewrites []byte
		if g.rewrites == "" {
			if d.NumClasses() != 256 || !bytes.Equal(d.ClassMap(), identityClasses[:]) {
				t.Errorf("%s: loaded with %d classes, want 256 under the identity map", g.file, d.NumClasses())
			}
			rewrites = flatAsClassed(golden(t, "c10_v2_flat.dfa"))
		} else {
			rewrites = golden(t, g.rewrites)
		}
		var got strings.Builder
		for _, ev := range NewEngine(d).Run(payload) {
			fmt.Fprintf(&got, "%d %d\n", ev.ID, ev.Pos)
		}
		if got.String() != want {
			t.Errorf("%s: match stream differs from the recorded one", g.file)
		}
		var out bytes.Buffer
		if _, err := d.WriteTo(&out); err != nil {
			t.Fatalf("%s: %v", g.file, err)
		}
		if !bytes.Equal(out.Bytes(), rewrites) {
			t.Errorf("%s: re-serialized image differs from the expected classed v2 bytes", g.file)
		}
	}
}

// TestFlatImageContextRoundTrip: a state saved from the table a flat image
// loads as restores into a freshly built C10 automaton, and back, at every
// cut of the recorded payload, with the (id, pos) stream unchanged — state
// numbering is a property of the automaton, not of its table.
func TestFlatImageContextRoundTrip(t *testing.T) {
	flat, err := ReadDFA(bytes.NewReader(golden(t, "c10_v2_flat.dfa")))
	if err != nil {
		t.Fatal(err)
	}
	fragments, _ := patternNFAs(t, "C10", splitter.Options{})
	built, err := FromNFA(fragments, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var image bytes.Buffer
	if _, err := built.WriteTo(&image); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image.Bytes(), golden(t, "c10_v2_classed.dfa")) {
		t.Fatal("a fresh C10 build no longer writes c10_v2_classed.dfa")
	}
	payload := golden(t, "c10_payload.bin")
	want := NewEngine(flat).Run(payload) // the recorded stream (TestReadGoldenImages)
	for _, dir := range []struct {
		name     string
		src, dst *DFA
	}{{"flat_to_classed", flat, built}, {"classed_to_flat", built, flat}} {
		t.Run(dir.name, func(t *testing.T) {
			src, dst := NewEngine(dir.src), NewEngine(dir.dst)
			var got []MatchEvent
			cb := func(id int32, pos int64) { got = append(got, MatchEvent{ID: id, Pos: pos}) }
			for cut := 1; cut < len(payload); cut++ {
				got = got[:0]
				head := src.NewRunner()
				head.Feed(payload[:cut], cb)
				tail := dst.NewRunner()
				tail.SetState(head.State(), head.Pos())
				tail.Feed(payload[cut:], cb)
				if !slices.Equal(got, want) {
					t.Fatalf("cut at %d: the stream differs from the recorded one", cut)
				}
			}
		})
	}
}

// TestReadV3CorruptStreams drives the v3 shim with targeted corruptions:
// layout code 2 inside a v2 frame, truncation at every section boundary,
// and bad class maps and table entries must all fail with ErrBadFormat —
// never panic, never yield an automaton that scans out of bounds.
func TestReadV3CorruptStreams(t *testing.T) {
	raw := golden(t, "c10_v3_classed2.dfa")

	// Layout code 2 demoted into a v2 frame: no v2 writer ever emitted it.
	demoted := bytes.Clone(raw)
	copy(demoted, dfaMagicV2)
	if _, err := ReadDFA(bytes.NewReader(demoted)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("layout code 2 in v2 frame: got %v, want ErrBadFormat", err)
	}

	// Truncations at a spread of offsets, including mid-header,
	// mid-class-map, mid-table and mid-accept-sets.
	for _, cut := range []int{0, 3, 7, 11, 19, 20, 24, 150, 24 + 256 + 4, len(raw) / 2, len(raw) - 1} {
		if _, err := ReadDFA(bytes.NewReader(raw[:cut])); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("truncated at %d: got %v, want ErrBadFormat", cut, err)
		}
	}

	// Class map entry out of range (the class count is the u32 before it).
	mapOff := len(dfaMagicV3) + 12 + 1 + 4
	badMap := bytes.Clone(raw)
	badMap[mapOff] = raw[mapOff-4]
	if _, err := ReadDFA(bytes.NewReader(badMap)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("bad class map: got %v, want ErrBadFormat", err)
	}

	// Transition entry out of range (first table word, after the map and
	// length field).
	badTrans := bytes.Clone(raw)
	copy(badTrans[mapOff+256+4:], []byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadDFA(bytes.NewReader(badTrans)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("out-of-range transition: got %v, want ErrBadFormat", err)
	}
}

// FuzzReadDFA fuzzes the decoder from the four golden images, one per
// wire version and layout code: any mutation must either decode to a
// structurally valid automaton (probed by a short scan and a
// re-serialization) or fail with a typed error — no panics, no out-of-range state visits. Run by the CI
// fuzz-smoke job.
func FuzzReadDFA(f *testing.F) {
	for _, g := range goldenImages {
		f.Add(golden(f, g.file))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadDFA(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("non-typed decode error: %v", err)
			}
			return
		}
		// Whatever decoded must scan and write without panicking.
		NewEngine(got).Run([]byte("xx abc attack with payload yy"))
		if _, err := got.WriteTo(&bytes.Buffer{}); err != nil {
			t.Fatalf("decoded automaton does not re-serialize: %v", err)
		}
	})
}
