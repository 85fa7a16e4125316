package matchfilter

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocsResolve keeps the prose pointing at code that exists: every
// DESIGN.md section a .go file cites is a "## N." heading there, every
// flag README.md gives a command is in that command's flag set, and every
// metric family and /statsz key README.md names is in the daemon's
// goldens.
func TestDocsResolve(t *testing.T) {
	t.Run("design citations", func(t *testing.T) {
		design, err := os.ReadFile("DESIGN.md")
		if err != nil {
			t.Fatal(err)
		}
		headings := make(map[string]bool)
		for _, m := range regexp.MustCompile(`(?m)^## (\d+)\.`).FindAllSubmatch(design, -1) {
			headings[string(m[1])] = true
		}
		// A citation may wrap onto the next comment line and name several
		// sections: "DESIGN.md\n// §13/§18", "DESIGN.md §8, §19".
		wrap := regexp.MustCompile(`\n\s*//\s*`)
		cite := regexp.MustCompile(`DESIGN\.md ((?:§\d+[/, ]*)+)`)
		section := regexp.MustCompile(`§(\d+)`)
		cited := 0
		err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, c := range cite.FindAllSubmatch(wrap.ReplaceAll(src, []byte(" ")), -1) {
				for _, n := range section.FindAllSubmatch(c[1], -1) {
					cited++
					if !headings[string(n[1])] {
						t.Errorf("%s cites DESIGN.md §%s, which has no \"## %s.\" heading", path, n[1], n[1])
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if cited == 0 {
			t.Fatal("found no DESIGN.md citation; the check would be vacuous")
		}
	})

	t.Run("readme flags", func(t *testing.T) {
		readme, err := os.ReadFile("README.md")
		if err != nil {
			t.Fatal(err)
		}
		type use struct{ cmd, flag string }
		var uses []use
		// "mfabuild -o", "go run ./cmd/mfabench -exp all": the flag right
		// after the command's name, anywhere in the file.
		for _, m := range regexp.MustCompile(`\b(mfabuild|mfascan|mfabench|mfaserve|tracegen) +-([a-z][a-z0-9-]*)`).FindAllStringSubmatch(string(readme), -1) {
			uses = append(uses, use{m[1], m[2]})
		}
		// In the mfaserve sections, every inline code span that starts
		// with a flag.
		_, serve, ok := strings.Cut(string(readme), "\n### mfaserve")
		if !ok {
			t.Fatal("README.md has no mfaserve section")
		}
		serve, _, _ = strings.Cut(serve, "\n## ")
		for _, m := range regexp.MustCompile("`-([a-z][a-z0-9-]*)").FindAllStringSubmatch(serve, -1) {
			uses = append(uses, use{"mfaserve", m[1]})
		}
		flags := make(map[string]map[string]bool)
		for _, u := range uses {
			if flags[u.cmd] == nil {
				flags[u.cmd] = flagNames(t, filepath.Join("cmd", u.cmd, "main.go"))
			}
			if !flags[u.cmd][u.flag] {
				t.Errorf("README.md gives %s -%s, which %s does not define", u.cmd, u.flag, u.cmd)
			}
		}
	})

	t.Run("readme metrics and statsz keys", func(t *testing.T) {
		readme, err := os.ReadFile("README.md")
		if err != nil {
			t.Fatal(err)
		}
		metrics, err := os.ReadFile("cmd/mfaserve/testdata/metrics.golden")
		if err != nil {
			t.Fatal(err)
		}
		statsz, err := os.ReadFile("cmd/mfaserve/testdata/statsz.golden")
		if err != nil {
			t.Fatal(err)
		}
		// A family is named exactly ("mfa_generation") or by its prefix
		// ("mfa_engine_*"); either must match some "# TYPE" line.
		families := regexp.MustCompile(`\bmfa_[a-z0-9_]+\*?`).FindAllString(string(readme), -1)
		for _, name := range families {
			prefix, wild := strings.CutSuffix(name, "*")
			if !wild {
				prefix += " "
			}
			if !strings.Contains(string(metrics), "\n# TYPE "+prefix) {
				t.Errorf("README.md names %s, which metrics.golden has no # TYPE line for", name)
			}
		}
		// "`/statsz` `Engine`": a key path, a line of statsz.golden or the
		// prefix of one.
		keys := regexp.MustCompile("`/statsz` `([A-Za-z][A-Za-z0-9.]*)`").FindAllStringSubmatch(string(readme), -1)
		for _, m := range keys {
			if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m[1]) + `(\.|$)`).Match(statsz) {
				t.Errorf("README.md names /statsz key %s, which statsz.golden does not list", m[1])
			}
		}
		if len(families) == 0 || len(keys) == 0 {
			t.Fatalf("README.md names %d metric families and %d /statsz keys; the check would be vacuous", len(families), len(keys))
		}
	})
}

// flagNames returns the flags a command's main.go defines: the first
// string literal passed to each flag.X or fs.X definer.
func flagNames(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if recv, ok := sel.X.(*ast.Ident); !ok || (recv.Name != "flag" && recv.Name != "fs") {
			return true
		}
		switch sel.Sel.Name {
		case "String", "Bool", "Int", "Int64", "Uint", "Uint64", "Float64", "Duration", "Var", "Func", "BoolFunc", "TextVar":
		default:
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				names[name] = true
				break
			}
		}
		return true
	})
	if len(names) == 0 {
		t.Fatalf("%s defines no flags; the check would be vacuous", path)
	}
	return names
}
