package matchfilter

// Native fuzz targets. Under plain `go test` the seed corpus runs as
// regression tests; `go test -fuzz=FuzzX` explores further.

import (
	"bytes"
	"testing"

	"matchfilter/internal/regexparse"
)

// FuzzParse asserts the parser never panics and that accepted patterns
// re-render to sources that reparse.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"abc", ".*a.*b", `a[^\n]*b`, "^x(y|z)+w{2,5}", `/\d+[a-f]/i`,
		"(", "a{999999}", `\x4`, "[z-a]", "a(?:b)c", "", "|", "[^\xff]",
		".{5,}end", "((((a))))", "a**", `\Q`, "/abc/xyz",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := regexparse.ParsePCRE(src)
		if err != nil {
			return
		}
		rendered := p.String()
		if _, err := regexparse.Parse(rendered); err != nil {
			t.Fatalf("accepted %q but rendering %q does not reparse: %v", src, rendered, err)
		}
	})
}

// FuzzCompileScan asserts that any accepted pattern can be compiled under
// the default construction and scanned without panicking, and that a
// match's End offset is in range.
func FuzzCompileScan(f *testing.F) {
	f.Add("ab.*cd", "xx ab yy cd zz")
	f.Add(`a[^\n]*b`, "a...b\na\nb")
	f.Add("^hdr", "hdr payload")
	f.Add(".{3,}x", "....x")
	f.Add("ab.{3,9}cd", "ab....cd")
	f.Add(`ab[^x]{2,20}cd`, "ab....cd ab.x.cd")
	f.Fuzz(func(t *testing.T, pattern, input string) {
		e, err := Compile([]string{pattern}, WithMaxStates(2000))
		if err != nil {
			return
		}
		for _, m := range e.Scan([]byte(input)) {
			if m.End < 0 || m.End >= int64(len(input)) {
				t.Fatalf("pattern %q input %q: match end %d out of range", pattern, input, m.End)
			}
			if m.Pattern != 0 {
				t.Fatalf("unexpected pattern index %d", m.Pattern)
			}
		}
	})
}

// FuzzLoad asserts the engine loader never panics and never accepts
// mutations that break scanning.
func FuzzLoad(f *testing.F) {
	e := MustCompile([]string{"ab.*cd", `x[^\n]*y`})
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := Load(bytes.NewReader(data))
		if err != nil {
			if loaded != nil {
				t.Fatal("error with non-nil engine")
			}
			return
		}
		// Whatever loaded must scan without panicking.
		loaded.Scan([]byte("ab cd x y\nab"))
	})
}

// TestFuzzSeedsSanity keeps the deliberate-corruption cases meaningful:
// flipping any single byte of a valid engine file must either fail to
// load or still scan consistently (no panics). A bounded sweep here; the
// fuzzer explores the rest.
func TestFuzzSeedsSanity(t *testing.T) {
	e := MustCompile([]string{"needle"})
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	stride := len(valid)/64 + 1
	for i := 0; i < len(valid); i += stride {
		mut := append([]byte{}, valid...)
		mut[i] ^= 0x5a
		loaded, err := Load(bytes.NewReader(mut))
		if err != nil {
			continue // rejected, as corrupt data usually is
		}
		loaded.Scan([]byte("a needle in a haystack"))
	}
}
