// Package bench is the experiment harness: for every table and figure in
// the paper's evaluation (§V) it regenerates the corresponding rows or
// series — Table I (state-count ratio), Table V (set properties),
// Figure 2 (memory image sizes), Figure 3 (construction times), Figure 4
// (throughput on packet traces) and Figure 5 (throughput vs. synthetic
// maliciousness). Absolute numbers differ from the paper (synthetic
// pattern sets, Go implementation, wall-clock timing); EXPERIMENTS.md
// records the shape comparisons that are expected to hold.
package bench

import (
	"errors"
	"fmt"
	"time"

	"matchfilter/internal/core"
	"matchfilter/internal/dfa"
	"matchfilter/internal/hfa"
	"matchfilter/internal/nfa"
	"matchfilter/internal/patterns"
	"matchfilter/internal/splitter"
	"matchfilter/internal/xfa"
)

// NominalGHz converts measured ns/byte into the paper's cycles-per-byte
// unit. The paper measured rdtsc cycles on an i7-4500U; Go has no
// portable cycle counter, so CpB here is ns/byte × NominalGHz. Shape
// comparisons (ratios between engines) are unaffected by the constant.
const NominalGHz = 3.0

// EngineKind identifies one of the five compared algorithms.
type EngineKind int

// The five engines of the paper's evaluation.
const (
	EngineNFA EngineKind = iota + 1
	EngineDFA
	EngineHFA
	EngineXFA
	EngineMFA
)

// AllEngines lists the engines in the paper's presentation order.
var AllEngines = []EngineKind{EngineNFA, EngineDFA, EngineHFA, EngineXFA, EngineMFA}

func (k EngineKind) String() string {
	switch k {
	case EngineNFA:
		return "NFA"
	case EngineDFA:
		return "DFA"
	case EngineHFA:
		return "HFA"
	case EngineXFA:
		return "XFA"
	case EngineMFA:
		return "MFA"
	default:
		return fmt.Sprintf("Engine(%d)", int(k))
	}
}

// BuildResult records one (set, engine) construction outcome.
type BuildResult struct {
	Set        string
	Engine     EngineKind
	States     int
	ImageBytes int
	BuildTime  time.Duration
	// Failed is true when construction exceeded its state budget — the
	// Table V "—" entry for B217p's DFA.
	Failed bool
}

// Engines bundles every constructed engine for one pattern set. DFA is
// nil when its construction failed.
type Engines struct {
	Set   string
	Rules []patterns.Rule
	NFA   *nfa.Engine
	DFA   *dfa.Engine
	HFA   *hfa.HFA
	XFA   *xfa.XFA
	MFA   *core.MFA

	Results []BuildResult
}

// Build constructs all five engines for a named pattern set, recording
// per-engine states, image sizes and construction times.
func Build(set string) (*Engines, error) {
	rules, err := patterns.Load(set)
	if err != nil {
		return nil, err
	}
	e := &Engines{Set: set, Rules: rules}

	// NFA.
	nfaRules := make([]nfa.Rule, len(rules))
	for i, r := range rules {
		nfaRules[i] = nfa.Rule{Pattern: r.Pattern, MatchID: int(r.ID)}
	}
	start := time.Now()
	n, err := nfa.Build(nfaRules)
	if err != nil {
		return nil, fmt.Errorf("bench: %s NFA: %w", set, err)
	}
	e.NFA = nfa.NewEngine(n)
	e.Results = append(e.Results, BuildResult{
		Set: set, Engine: EngineNFA,
		States:     n.NumStates(),
		ImageBytes: n.MemoryImageBytes(),
		BuildTime:  time.Since(start),
	})

	// DFA (may exceed its budget). The baseline walks the same classed
	// table as the MFA, so Figure 4 compares automata, not tables; Figure
	// 2 reports the paper's flat image of it, computed.
	start = time.Now()
	d, err := dfa.FromNFA(n, dfa.Options{})
	switch {
	case errors.Is(err, dfa.ErrTooManyStates):
		e.Results = append(e.Results, BuildResult{
			Set: set, Engine: EngineDFA, Failed: true, BuildTime: time.Since(start),
		})
	case err != nil:
		return nil, fmt.Errorf("bench: %s DFA: %w", set, err)
	default:
		e.DFA = dfa.NewEngine(d)
		e.Results = append(e.Results, BuildResult{
			Set: set, Engine: EngineDFA,
			States:     d.NumStates(),
			ImageBytes: paperFlatTable(d.NumStates()) + d.MemoryImageBytes() - d.TableBytes(),
			BuildTime:  time.Since(start),
		})
	}

	// HFA.
	hfaRules := make([]hfa.Rule, len(rules))
	for i, r := range rules {
		hfaRules[i] = hfa.Rule{Pattern: r.Pattern, ID: r.ID}
	}
	h, err := hfa.Compile(hfaRules, hfa.Options{})
	if err != nil {
		return nil, fmt.Errorf("bench: %s HFA: %w", set, err)
	}
	e.HFA = h
	e.Results = append(e.Results, BuildResult{
		Set: set, Engine: EngineHFA,
		States:     h.NumStates(),
		ImageBytes: h.MemoryImageBytes(),
		BuildTime:  h.Stats().BuildTime,
	})

	// XFA.
	xfaRules := make([]xfa.Rule, len(rules))
	for i, r := range rules {
		xfaRules[i] = xfa.Rule{Pattern: r.Pattern, ID: r.ID}
	}
	x, err := xfa.Compile(xfaRules, xfa.Options{})
	if err != nil {
		return nil, fmt.Errorf("bench: %s XFA: %w", set, err)
	}
	e.XFA = x
	e.Results = append(e.Results, BuildResult{
		Set: set, Engine: EngineXFA,
		States:     x.NumStates(),
		ImageBytes: x.MemoryImageBytes(),
		BuildTime:  x.Stats().BuildTime,
	})

	// MFA.
	m, err := core.Compile(coreRules(rules), core.Options{})
	if err != nil {
		return nil, fmt.Errorf("bench: %s MFA: %w", set, err)
	}
	e.MFA = m
	e.Results = append(e.Results, mfaResult(set, m))
	return e, nil
}

func coreRules(rules []patterns.Rule) []core.Rule {
	out := make([]core.Rule, len(rules))
	for i, r := range rules {
		out[i] = core.Rule{Pattern: r.Pattern, ID: r.ID}
	}
	return out
}

func mfaResult(set string, m *core.MFA) BuildResult {
	return BuildResult{
		Set: set, Engine: EngineMFA,
		States:     m.Stats().DFAStates,
		ImageBytes: m.Stats().MemoryImageBytes(),
		BuildTime:  m.Stats().BuildTime,
	}
}

// paperConditionsMFA builds the set's MFA under the paper's conditions
// alone, for the second row Table V and Figure 2 print so the comparison
// with the published tables survives. ok is false — and nothing is built —
// when the default build already is the paper's construction: it split
// nothing on a position register or a counter.
func (e *Engines) paperConditionsMFA() (r BuildResult, ok bool, err error) {
	if st := e.MFA.Stats().Split; st.PositionSplits+st.AlmostPositionSplits+st.CountingSplits+st.CounterSplits == 0 {
		return BuildResult{}, false, nil
	}
	paper, err := core.Compile(coreRules(e.Rules), core.Options{
		Splitter: splitter.Options{Construction: splitter.Paper},
	})
	if err != nil {
		return BuildResult{}, false, fmt.Errorf("bench: %s MFA under the paper's conditions: %w", e.Set, err)
	}
	return mfaResult(e.Set, paper), true, nil
}

// Result returns the build result for one engine.
func (e *Engines) Result(k EngineKind) (BuildResult, bool) {
	for _, r := range e.Results {
		if r.Engine == k {
			return r, true
		}
	}
	return BuildResult{}, false
}

// Throughput is one measured scan.
type Throughput struct {
	Bytes         int64
	Elapsed       time.Duration
	MatchEvents   int64
	NsPerByte     float64
	CyclesPerByte float64
}

// FeedFunc scans one payload from a fresh context and returns the number
// of match events. Each engine exposes one through feeders().
type FeedFunc func(data []byte) int64

// Measure times fn over data with one untimed warmup pass.
func Measure(fn FeedFunc, data []byte) Throughput {
	fn(data) // warmup: page in tables, train branch predictors
	start := time.Now()
	events := fn(data)
	elapsed := time.Since(start)
	nsPerByte := float64(elapsed.Nanoseconds()) / float64(len(data))
	return Throughput{
		Bytes:         int64(len(data)),
		Elapsed:       elapsed,
		MatchEvents:   events,
		NsPerByte:     nsPerByte,
		CyclesPerByte: nsPerByte * NominalGHz,
	}
}

// Feeder returns a fresh-context scan function for the given engine, or
// nil when that engine is unavailable (failed DFA).
func (e *Engines) Feeder(k EngineKind) FeedFunc {
	switch k {
	case EngineNFA:
		return func(data []byte) int64 {
			r := e.NFA.NewRunner()
			var n int64
			r.Feed(data, func(int, int64) { n++ })
			return n
		}
	case EngineDFA:
		if e.DFA == nil {
			return nil
		}
		return func(data []byte) int64 {
			return e.DFA.NewRunner().FeedCount(data)
		}
	case EngineHFA:
		return func(data []byte) int64 {
			return e.HFA.NewRunner().FeedCount(data)
		}
	case EngineXFA:
		return func(data []byte) int64 {
			return e.XFA.NewRunner().FeedCount(data)
		}
	case EngineMFA:
		return func(data []byte) int64 {
			return e.MFA.NewRunner().FeedCount(data)
		}
	default:
		return nil
	}
}
