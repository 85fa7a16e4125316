package rules

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"matchfilter/internal/core"
	"matchfilter/internal/patterns"
)

// The cases the four hand-copied scanners disagreed on, each with one
// answer now.
func TestParse(t *testing.T) {
	long := "a" + strings.Repeat("b", 200<<10) // between the old 64 KiB and the 1 MiB bound
	for _, tc := range []struct {
		name    string
		text    string
		sources []string
		errHas  string
	}{
		{name: "plain", text: "abc\nde+f\n", sources: []string{"abc", "de+f"}},
		{name: "no trailing newline", text: "abc", sources: []string{"abc"}},
		{name: "blank lines, comments, space and CRLF", text: "# head\n\n  abc  \r\n\t# indented comment\nx#y\n", sources: []string{"abc", "x#y"}},
		{name: "a 200 KiB line", text: long + "\n", sources: []string{long}},
		{name: "a line past the bound", text: "ok\n" + strings.Repeat("a", MaxLine+1) + "\n", errHas: "line 2: longer than"},
		{name: "a bad pattern names its line", text: "# c\nok\n(broken\n", errHas: "line 3: "},
		{name: "empty", text: "", errHas: ErrNoPatterns.Error()},
		{name: "only comments", text: "# a\n\n# b\n", errHas: ErrNoPatterns.Error()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rules, sources, err := Parse([]byte(tc.text))
			if tc.errHas != "" {
				if err == nil || !strings.Contains(err.Error(), tc.errHas) {
					t.Fatalf("err = %v, want one containing %q", err, tc.errHas)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sources, tc.sources) {
				t.Fatalf("sources = %.80q, want %.80q", sources, tc.sources)
			}
			for i, r := range rules {
				if r.ID != int32(i+1) || r.Pattern == nil {
					t.Fatalf("rule %d = %+v, want id %d and a pattern", i, r, i+1)
				}
			}
		})
	}
	if _, _, err := Parse(nil); !errors.Is(err, ErrNoPatterns) {
		t.Errorf("Parse(nil) = %v, want ErrNoPatterns", err)
	}
}

func TestSource(t *testing.T) {
	for _, tc := range []struct{ set, file, want string }{
		{"C8", "", "set:C8"},
		{"", "r.txt", "r.txt"},
		{"C8", "r.txt", ""},
		{"", "", ""},
	} {
		got, err := Source(tc.set, tc.file)
		if got != tc.want || (err == nil) != (tc.want != "") {
			t.Errorf("Source(%q, %q) = %q, %v; want %q", tc.set, tc.file, got, err, tc.want)
		}
	}
}

// A built-in set reads back through its text form exactly: same sources,
// same ids as patterns.Load.
func TestLoadBuiltinSets(t *testing.T) {
	for _, name := range append(patterns.Names(), patterns.CounterNames()...) {
		want, err := patterns.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		rules, sources, err := Load("set:" + name)
		if err != nil {
			t.Fatal(err)
		}
		if len(rules) != len(want) {
			t.Fatalf("%s: %d rules, want %d", name, len(rules), len(want))
		}
		for i, w := range want {
			if sources[i] != w.Source || rules[i].ID != w.ID {
				t.Fatalf("%s rule %d: (%d, %q), want (%d, %q)", name, i, rules[i].ID, sources[i], w.ID, w.Source)
			}
		}
	}
	if _, _, err := Load("set:nope"); err == nil || !strings.Contains(err.Error(), "unknown set") {
		t.Errorf("unknown set: %v", err)
	}
}

func TestLoadFileAndImage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.txt")
	if err := os.WriteFile(path, []byte("# two rules\nattack.*payload\nxmrig\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rules, sources, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sources, []string{"attack.*payload", "xmrig"}) {
		t.Fatalf("sources = %q", sources)
	}

	// Errors carry the source: the path for a parse error, the OS's own
	// text for a missing file.
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("ok\n(broken\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(bad); err == nil || !strings.HasPrefix(err.Error(), bad+": line 2: ") {
		t.Errorf("parse error = %v, want prefix %q", err, bad+": line 2: ")
	}
	empty := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(empty, []byte("# nothing\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(empty); !errors.Is(err, ErrNoPatterns) || !strings.HasPrefix(err.Error(), empty+": ") {
		t.Errorf("empty file = %v, want %q: ErrNoPatterns", err, empty)
	}
	if _, _, err := Load(filepath.Join(dir, "missing.txt")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file = %v, want ErrNotExist", err)
	}

	// The image reader is mfabuild -o's inverse.
	m, err := core.Compile(rules, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := core.WriteStrings(&img, sources); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteTo(&img); err != nil {
		t.Fatal(err)
	}
	imgPath := filepath.Join(dir, "r.eng")
	if err := os.WriteFile(imgPath, img.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	m2, sources2, err := ReadImage(imgPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sources2, sources) || m2.Stats().DFAStates != m.Stats().DFAStates {
		t.Fatalf("image round trip: sources %q, %d states; want %q, %d", sources2, m2.Stats().DFAStates, sources, m.Stats().DFAStates)
	}
	if err := os.WriteFile(imgPath, img.Bytes()[:img.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadImage(imgPath); err == nil || !strings.HasPrefix(err.Error(), imgPath+": ") {
		t.Errorf("truncated image = %v, want an error naming the file", err)
	}
}
