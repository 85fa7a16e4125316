package dfa

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenImages are C10's fragment automaton as earlier releases wrote it
// (testdata/, generated once by the last release that could write v3;
// v1 was framed by hand, as no writer has existed since v2), with the v2
// image each must re-serialize to.
var goldenImages = []struct {
	file, rewrites string
	layout         Layout
}{
	{"c10_v1_flat.dfa", "c10_v2_flat.dfa", LayoutFlat},
	{"c10_v2_flat.dfa", "c10_v2_flat.dfa", LayoutFlat},
	{"c10_v2_classed.dfa", "c10_v2_classed.dfa", LayoutClassed},
	{"c10_v3_classed2.dfa", "c10_v2_classed.dfa", LayoutClassed},
}

func golden(tb testing.TB, name string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestReadGoldenImages is the wire-compatibility contract: every image an
// earlier release wrote still loads, scans the recorded payload to the
// recorded (id, pos) stream, and re-serializes as v2 — a v3 image as the
// classed automaton it always carried.
func TestReadGoldenImages(t *testing.T) {
	payload := golden(t, "c10_payload.bin")
	want := string(golden(t, "c10_matches.txt"))
	for _, g := range goldenImages {
		d, err := ReadDFA(bytes.NewReader(golden(t, g.file)))
		if err != nil {
			t.Fatalf("%s: %v", g.file, err)
		}
		if d.Layout() != g.layout {
			t.Errorf("%s: loaded as %v, want %v", g.file, d.Layout(), g.layout)
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
		if !bytes.Equal(out.Bytes(), golden(t, g.rewrites)) {
			t.Errorf("%s: re-serialized image differs from %s", g.file, g.rewrites)
		}
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

// FuzzReadDFA fuzzes the decoder from one valid seed per wire version and
// layout: any mutation must either decode to a structurally valid
// automaton (probed by a short scan and a re-serialization) or fail with
// a typed error — no panics, no out-of-range state visits. Run by the CI
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
