package matchfilter

import (
	"bytes"
	"fmt"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	orig := MustCompile([]string{
		"attack.*payload",
		`/^get[^\n]*passwd/i`,
		"aa.{5,}bb",
		"plainword",
	})

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// Metadata round-trips.
	if loaded.NumPatterns() != orig.NumPatterns() {
		t.Fatalf("patterns: %d vs %d", loaded.NumPatterns(), orig.NumPatterns())
	}
	for i := 0; i < orig.NumPatterns(); i++ {
		if loaded.Pattern(i) != orig.Pattern(i) {
			t.Fatalf("pattern %d: %q vs %q", i, loaded.Pattern(i), orig.Pattern(i))
		}
	}
	if loaded.Stats().DFAStates != orig.Stats().DFAStates ||
		loaded.Stats().MemoryBits != orig.Stats().MemoryBits {
		t.Fatalf("stats: %+v vs %+v", loaded.Stats(), orig.Stats())
	}

	// Behaviour round-trips, including filter memory, shared gap clears
	// and the counting register.
	inputs := []string{
		"an attack with payload",
		"GET /x/PASSWD http",
		"GET /x\npasswd",
		"aa.....bb", "aa...bb",
		"plainword attack\npayload",
	}
	for _, input := range inputs {
		a := fmt.Sprint(orig.Scan([]byte(input)))
		b := fmt.Sprint(loaded.Scan([]byte(input)))
		if a != b {
			t.Fatalf("input %q: %s vs %s", input, a, b)
		}
	}
}

func TestSaveLoadDeterministic(t *testing.T) {
	e := MustCompile([]string{"ab.*cd", `x[^\n]*y`})
	var a, b bytes.Buffer
	if err := e.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := e.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("serialization must be deterministic")
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	e := MustCompile([]string{"abcdef"})
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Truncations at various depths.
	for _, cut := range []int{0, 3, 10, len(data) / 2, len(data) - 1} {
		if _, err := Load(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d should fail", cut)
		}
	}
	// Bad magic.
	bad := append([]byte{}, data...)
	bad[0] ^= 0xff
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Error("corrupt header should fail")
	}
	// Garbage.
	if _, err := Load(bytes.NewReader(bytes.Repeat([]byte{0xaa}, 4096))); err == nil {
		t.Error("garbage should fail")
	}
}

func TestLoadedEngineStreams(t *testing.T) {
	e := MustCompile([]string{"needle.*stack"})
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []Match
	s := loaded.NewStream(func(m Match) { got = append(got, m) })
	s.Write([]byte("need"))  //nolint:errcheck
	s.Write([]byte("le st")) //nolint:errcheck
	s.Write([]byte("ack"))   //nolint:errcheck
	if len(got) != 1 || got[0].End != 11 {
		t.Fatalf("streamed matches: %v", got)
	}
}
