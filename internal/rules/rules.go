// Package rules is the one loader between rule text and the compiler:
// every tool that takes -set/-rules/-engine, and every rule set a running
// daemon is handed (SIGHUP, POST /reload, -tenant specs, PUT
// /tenants/<id>/rules), resolves its source and parses it here, so line
// handling, ids, bounds and error text cannot drift between them.
package rules

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"

	"matchfilter/internal/core"
	"matchfilter/internal/patterns"
	"matchfilter/internal/regexparse"
)

// MaxLine bounds one rule line, in bytes.
const MaxLine = 1 << 20

// ErrNoPatterns rejects rule text with no pattern in it.
var ErrNoPatterns = errors.New("no patterns")

// Parse turns rule text into rules: one PCRE pattern per line, blank
// lines and lines starting with # skipped, surrounding space trimmed,
// ids 1-based in order of appearance. sources[id-1] is rule id's text.
// Errors name the 1-based line.
func Parse(text []byte) (rules []core.Rule, sources []string, err error) {
	for n := 1; len(text) > 0; n++ {
		var line []byte
		line, text, _ = bytes.Cut(text, []byte("\n"))
		if len(line) > MaxLine {
			return nil, nil, fmt.Errorf("line %d: longer than %d bytes", n, MaxLine)
		}
		src := string(bytes.TrimSpace(line))
		if src == "" || src[0] == '#' {
			continue
		}
		p, err := regexparse.ParsePCRE(src)
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: %w", n, err)
		}
		rules = append(rules, core.Rule{Pattern: p, ID: int32(len(rules) + 1)})
		sources = append(sources, src)
	}
	if len(rules) == 0 {
		return nil, nil, ErrNoPatterns
	}
	return rules, sources, nil
}

// Source folds the -set NAME / -rules FILE flag pair the tools share
// into one source spec for ReadText and Load.
func Source(set, file string) (string, error) {
	switch {
	case set != "" && file != "":
		return "", errors.New("use either -set or -rules, not both")
	case set != "":
		return "set:" + set, nil
	case file != "":
		return file, nil
	}
	return "", errors.New("one of -set or -rules is required")
}

// ReadText resolves a source spec to rule text: "set:NAME" is a built-in
// set (patterns.Sources), anything else a file path.
func ReadText(src string) ([]byte, error) {
	name, ok := strings.CutPrefix(src, "set:")
	if !ok {
		return os.ReadFile(src)
	}
	lines, err := patterns.Sources(name)
	if err != nil {
		return nil, err
	}
	return []byte(strings.Join(lines, "\n") + "\n"), nil
}

// Load is ReadText then Parse, parse errors prefixed with the source.
func Load(src string) ([]core.Rule, []string, error) {
	text, err := ReadText(src)
	if err != nil {
		return nil, nil, err
	}
	rules, sources, err := Parse(text)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", src, err)
	}
	return rules, sources, nil
}

// ReadImage reads a compiled engine image written by mfabuild -o: the
// rule sources, then the automaton.
func ReadImage(path string) (*core.MFA, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	sources, err := core.ReadStrings(br)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	m, err := core.ReadMFA(br)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, sources, nil
}
