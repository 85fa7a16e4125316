// Package matchfilter is a multi-pattern regular-expression matching
// library for network-security workloads, implementing Match Filtering
// Automata (Norige & Liu, "A De-compositional Approach to Regular
// Expression Matching for Network Security Applications", ICDCS 2016).
//
// Patterns containing state-exploding gap constructs (.*, [^X]*, .{n,}
// and wide X{n,m}) are decomposed into simple fragments matched by one
// shared DFA; a stateful filter engine with a few bits and registers of
// per-flow memory reconstructs exactly the matches of the original
// patterns. The result combines DFA-class scan speed with NFA-class
// memory:
//
//	engine, err := matchfilter.Compile([]string{
//		`attack.*payload`,
//		`/^GET[^\n]*passwd/i`,
//	})
//	if err != nil { ... }
//	for _, m := range engine.Scan(packet) {
//		fmt.Printf("pattern %d matched ending at %d\n", m.Pattern, m.End)
//	}
//
// For streaming and flow-multiplexed use, obtain one Stream per flow:
// each holds only the paper's (q, m) context — a DFA state and a small
// bit memory — so millions of concurrent flows are practical.
package matchfilter

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"matchfilter/internal/core"
	"matchfilter/internal/dfa"
	"matchfilter/internal/regexparse"
	"matchfilter/internal/splitter"
)

// ErrTooManyStates is returned when the automaton would exceed the
// configured state budget even after decomposition.
var ErrTooManyStates = dfa.ErrTooManyStates

// ErrUnsupported wraps pattern syntax the engine does not implement
// (back-references, look-around, $ anchors). Use errors.Is to detect it
// and skip such rules.
var ErrUnsupported = regexparse.ErrUnsupported

// Match is one confirmed pattern match.
type Match struct {
	// Pattern is the index of the matched pattern in the Compile slice.
	Pattern int
	// End is the 0-based offset of the last byte of the match within the
	// flow (cumulative across Stream writes).
	End int64
}

// Option configures Compile.
type Option func(*config)

type config struct {
	core core.Options
}

// WithMaxStates caps DFA construction at n states (default 2^17). The
// cap bounds worst-case memory; Compile returns ErrTooManyStates (wrapped)
// when exceeded.
func WithMaxStates(n int) Option {
	return func(c *config) { c.core.DFA.MaxStates = n }
}

// WithoutDecomposition disables match-filter decomposition entirely,
// compiling a plain multi-pattern DFA. Exposed for measurement and
// debugging; it reproduces exactly the state explosion the decomposition
// exists to avoid.
func WithoutDecomposition() Option {
	return func(c *config) { c.core.Splitter.Construction = splitter.Whole }
}

// WithMinimization enables DFA minimization after subset construction,
// trading compile time for a smaller table.
func WithMinimization() Option {
	return func(c *config) { c.core.DFA.Minimize = true }
}

// Engine is a compiled, immutable pattern set. It is safe for concurrent
// use; per-flow state lives in Stream.
type Engine struct {
	mfa      *core.MFA
	patterns []string
}

// Compile builds an engine for the given patterns. Each pattern is either
// a bare regex ("a.*b") or a slashed Snort-style form with flags
// ("/a[^\n]*b/i"). Matches report the pattern's index in this slice.
func Compile(patternSources []string, opts ...Option) (*Engine, error) {
	if len(patternSources) == 0 {
		return nil, errors.New("matchfilter: no patterns")
	}
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	rules := make([]core.Rule, len(patternSources))
	for i, src := range patternSources {
		p, err := regexparse.ParsePCRE(src)
		if err != nil {
			return nil, fmt.Errorf("matchfilter: pattern %d: %w", i, err)
		}
		rules[i] = core.Rule{Pattern: p, ID: int32(i + 1)}
	}
	m, err := core.Compile(rules, cfg.core)
	if err != nil {
		return nil, fmt.Errorf("matchfilter: %w", err)
	}
	return &Engine{mfa: m, patterns: append([]string(nil), patternSources...)}, nil
}

// MustCompile is Compile that panics on error, for static pattern sets.
func MustCompile(patternSources []string, opts ...Option) *Engine {
	e, err := Compile(patternSources, opts...)
	if err != nil {
		panic(err)
	}
	return e
}

// Pattern returns the source of the i-th pattern.
func (e *Engine) Pattern(i int) string { return e.patterns[i] }

// NumPatterns returns the number of compiled patterns.
func (e *Engine) NumPatterns() int { return len(e.patterns) }

// Scan matches data as one complete flow and returns every match in
// order of occurrence.
func (e *Engine) Scan(data []byte) []Match {
	var out []Match
	s := e.NewStream(func(m Match) { out = append(out, m) })
	_, _ = s.Write(data)
	return out
}

// Stats describes the compiled automaton.
type Stats struct {
	// Patterns is the number of input patterns; Fragments the number of
	// decomposed sub-patterns the DFA actually matches.
	Patterns  int
	Fragments int
	// DFAStates is the size of the character DFA; MemoryBits the per-flow
	// filter memory width w.
	DFAStates  int
	MemoryBits int
	// ImageBytes is the static memory image (transition table, decision
	// sets and filter program).
	ImageBytes int
	// Decomposed counts patterns that were split; the rest are matched
	// whole.
	Decomposed int
}

// Stats returns compilation statistics.
func (e *Engine) Stats() Stats {
	st := e.mfa.Stats()
	return Stats{
		Patterns:   st.NumRules,
		Fragments:  st.NumFragments,
		DFAStates:  st.DFAStates,
		MemoryBits: st.MemBits,
		ImageBytes: st.MemoryImageBytes(),
		Decomposed: st.Split.RulesDecomposed,
	}
}

// Stream is one flow's matching context. It implements io.Writer: bytes
// written are scanned incrementally and the handler receives matches as
// they complete, even across write boundaries. A Stream is not safe for
// concurrent use.
type Stream struct {
	runner  *core.Runner
	handler func(Match)
}

// NewStream returns a fresh flow context whose matches are delivered to
// handler (which may be nil to discard).
func (e *Engine) NewStream(handler func(Match)) *Stream {
	return &Stream{runner: e.mfa.NewRunner(), handler: handler}
}

// Write scans p as the next bytes of the flow. It never fails; the error
// is always nil and exists to satisfy io.Writer.
func (s *Stream) Write(p []byte) (int, error) {
	if s.handler == nil {
		s.runner.Feed(p, func(int32, int64) {})
		return len(p), nil
	}
	s.runner.Feed(p, func(id int32, pos int64) {
		s.handler(Match{Pattern: int(id) - 1, End: pos})
	})
	return len(p), nil
}

// Pos returns the total number of bytes scanned so far.
func (s *Stream) Pos() int64 { return s.runner.Pos() }

// Reset rewinds the stream for reuse on a new flow.
func (s *Stream) Reset() { s.runner.Reset() }

// Save serializes the compiled engine (automaton, filter program and
// pattern sources) so it can be loaded by Load without recompiling.
// Compile-time statistics other than sizes are not preserved.
func (e *Engine) Save(w io.Writer) error {
	if err := core.WriteStrings(w, e.patterns); err != nil {
		return fmt.Errorf("matchfilter: save: %w", err)
	}
	if _, err := e.mfa.WriteTo(w); err != nil {
		return fmt.Errorf("matchfilter: save: %w", err)
	}
	return nil
}

// Load deserializes an engine written by Save. The format is validated
// structurally, so a corrupt or truncated file returns an error rather
// than an engine that misbehaves.
func Load(r io.Reader) (*Engine, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	patterns, err := core.ReadStrings(br)
	if err != nil {
		return nil, fmt.Errorf("matchfilter: load: %w", err)
	}
	m, err := core.ReadMFA(br)
	if err != nil {
		return nil, fmt.Errorf("matchfilter: load: %w", err)
	}
	return &Engine{mfa: m, patterns: patterns}, nil
}
