package bench

import (
	"errors"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"matchfilter/internal/core"
	"matchfilter/internal/dfa"
	"matchfilter/internal/patterns"
	"matchfilter/internal/splitter"
)

// CounterSets are the pattern sets of the counter-register experiment
// (DESIGN.md §19): CTR8 builds under both encodings, CTR24 only under
// counters.
var CounterSets = patterns.CounterNames()

// CounterResult is one (set, encoding) build-and-measure outcome of the
// bounded-repeat experiment. Mode is "expanded" (bounded repeats
// state-expanded into the automaton) or "counters" (compiled to filter
// counter registers). A Failed row records an expansion that exceeded
// the DFA state budget — the acalculia failure the counter machine
// exists to fix — and carries no sizes or throughput.
type CounterResult struct {
	Set        string
	Mode       string
	Failed     bool
	States     int
	ImageBytes int
	Counters   int
	BuildTime  time.Duration
	Throughput Throughput
}

// compileCounterMode builds one set's MFA with bounded repeats either
// expanded (the paper's conditions) or compiled to counters (the default).
func compileCounterMode(set string, counters bool) (*core.MFA, error) {
	rules, err := patterns.Load(set)
	if err != nil {
		return nil, err
	}
	coreRules := make([]core.Rule, len(rules))
	for i, r := range rules {
		coreRules[i] = core.Rule{Pattern: r.Pattern, ID: r.ID}
	}
	var opts core.Options
	if !counters {
		opts.Splitter.Construction = splitter.Paper
	}
	return core.Compile(coreRules, opts)
}

// MeasureCounters builds one set both ways and measures scan throughput
// over the set's text-like payload. An expansion that exceeds the state
// budget yields a Failed "expanded" row; any other build error aborts.
func MeasureCounters(set string, bytesN int, seed int64) ([]CounterResult, error) {
	payload, err := layoutPayload(set, bytesN, seed)
	if err != nil {
		return nil, err
	}
	var out []CounterResult
	for _, mode := range []string{"expanded", "counters"} {
		start := time.Now()
		m, err := compileCounterMode(set, mode == "counters")
		build := time.Since(start)
		if mode == "expanded" && errors.Is(err, dfa.ErrTooManyStates) {
			out = append(out, CounterResult{Set: set, Mode: mode, Failed: true, BuildTime: build})
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("bench: %s %s MFA: %w", set, mode, err)
		}
		st := m.Stats()
		out = append(out, CounterResult{
			Set:        set,
			Mode:       mode,
			States:     st.DFAStates,
			ImageBytes: st.MemoryImageBytes(),
			Counters:   st.Counters,
			BuildTime:  st.BuildTime,
			Throughput: Measure(func(data []byte) int64 { return m.NewRunner().FeedCount(data) }, payload),
		})
	}
	return out, nil
}

// CounterComparison runs the bounded-repeat experiment over the given
// sets (default CounterSets) and renders the size/throughput table that
// EXPERIMENTS.md discusses: counter registers vs state expansion for
// X{n,m} gaps.
func CounterComparison(w io.Writer, sets []string, bytesN int, seed int64) ([]CounterResult, error) {
	if len(sets) == 0 {
		sets = CounterSets
	}
	fmt.Fprintln(w, "Bounded repeats X{n,m}: counter registers vs state expansion")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Set\tencoding\tstates\timage\tcounters\tbuild\tMB/s")
	var all []CounterResult
	for _, set := range sets {
		rows, err := MeasureCounters(set, bytesN, seed)
		if err != nil {
			return nil, err
		}
		all = append(all, rows...)
		for _, r := range rows {
			if r.Failed {
				fmt.Fprintf(tw, "%s\t%s\t—\t—\t—\t—\t—\n", r.Set, r.Mode)
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%v\t%.0f\n",
				r.Set, r.Mode, r.States, r.ImageBytes, r.Counters,
				r.BuildTime.Round(time.Millisecond), r.Throughput.MBps())
		}
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "(— marks an expansion that exceeded the DFA state budget: the set is")
	fmt.Fprintln(w, " unbuildable without counter registers. Same match stream either way —")
	fmt.Fprintln(w, " see the counter equivalence tests in internal/core.)")
	return all, nil
}
