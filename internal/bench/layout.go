package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"matchfilter/internal/core"
	"matchfilter/internal/dfa"
	"matchfilter/internal/patterns"
	"matchfilter/internal/trace"
)

// LayoutSets are the pattern sets of the table-layout experiment: the
// vendor and Snort families plus B217p, whose plain DFA is infeasible
// but whose MFA fragment automaton is the largest table in the suite and
// therefore the most interesting compression subject.
var LayoutSets = []string{"C7p", "C8", "C10", "S24", "B217p"}

// BatchKs are the lockstep widths of the batching experiment
// (DESIGN.md §18): 1 is the degenerate single-lane baseline through the
// batcher, 16 is core.MaxBatchFlows.
var BatchKs = []int{1, 4, 8, 16}

// BatchThroughput is one batched lockstep measurement: the payload
// split into K equal sub-streams scanned as K concurrent flows by one
// core.FlowBatcher.
type BatchThroughput struct {
	Layout string // layout the lanes ran on ("flat" or "classed")
	K      int
	Throughput
}

// LayoutResult compares the transition-table layouts of one set's MFA:
// identical automaton, all 256 columns or the byte-class quotient.
type LayoutResult struct {
	Set     string
	States  int
	Classes int
	// FlatTableBytes and ClassedTableBytes are the transition-table image
	// sizes (the classed figure includes its 256-byte class map);
	// Reduction is flat divided by classed.
	FlatTableBytes    int
	ClassedTableBytes int
	Reduction         float64
	// Flat and Classed are single-flow scan throughputs over the same
	// payload: a text-like trace salted with the set's own literals, the
	// Figure 4 payload model.
	Flat    Throughput
	Classed Throughput
	// Batched holds the lockstep measurements: layout × K over the same
	// payload split into K concurrent flows.
	Batched []BatchThroughput
}

// compileLayout builds one set's MFA with an explicit table layout.
func compileLayout(set string, layout dfa.Layout) (*core.MFA, error) {
	rules, err := patterns.Load(set)
	if err != nil {
		return nil, err
	}
	coreRules := make([]core.Rule, len(rules))
	for i, r := range rules {
		coreRules[i] = core.Rule{Pattern: r.Pattern, ID: r.ID}
	}
	m, err := core.Compile(coreRules, core.Options{DFA: dfa.Options{Layout: layout}})
	if err != nil {
		return nil, fmt.Errorf("bench: %s %v MFA: %w", set, layout, err)
	}
	return m, nil
}

// layoutPayload synthesizes the scan payload for one set: text-like
// traffic salted with the set's literals so the automaton leaves its
// start-state neighbourhood (word density as the LL1 trace profile).
func layoutPayload(set string, n int, seed int64) ([]byte, error) {
	words, err := patterns.AllWords(set)
	if err != nil {
		return nil, err
	}
	return trace.TextLike(n, seed, words, 0.004), nil
}

// measureBatched scans the payload as k concurrent flows stepped in
// lockstep: k equal sub-streams, one fresh runner each, one flush
// window. This is the steady-state cost of the lockstep loop itself —
// the shard's drain/flush cadence is measured by the engine experiment.
// Match counts differ from the single-stream scans (splitting severs
// cross-boundary matches) and are not compared.
func measureBatched(m *core.MFA, payload []byte, k int) Throughput {
	return Measure(func(data []byte) int64 {
		var events int64
		cb := func(int32, int64) { events++ }
		b := core.NewFlowBatcher(k)
		n := len(data) / k
		if n == 0 {
			n = len(data)
		}
		for i := 0; i < k && i*n < len(data); i++ {
			end := (i + 1) * n
			if i == k-1 || end > len(data) {
				end = len(data)
			}
			b.Add(m.NewRunner(), i, data[i*n:end], cb)
		}
		b.Flush()
		return events
	}, payload)
}

// MeasureLayout builds both layouts of one set's MFA and measures them
// over the same payload, single-flow and batched.
func MeasureLayout(set string, bytesN int, seed int64) (LayoutResult, error) {
	flat, err := compileLayout(set, dfa.LayoutFlat)
	if err != nil {
		return LayoutResult{}, err
	}
	classed, err := compileLayout(set, dfa.LayoutClassed)
	if err != nil {
		return LayoutResult{}, err
	}
	payload, err := layoutPayload(set, bytesN, seed)
	if err != nil {
		return LayoutResult{}, err
	}
	fs, cs := flat.Stats(), classed.Stats()
	res := LayoutResult{
		Set:               set,
		States:            cs.DFAStates,
		Classes:           cs.DFAClasses,
		FlatTableBytes:    fs.DFATableBytes,
		ClassedTableBytes: cs.DFATableBytes,
		Flat:              Measure(func(data []byte) int64 { return flat.NewRunner().FeedCount(data) }, payload),
		Classed:           Measure(func(data []byte) int64 { return classed.NewRunner().FeedCount(data) }, payload),
	}
	if cs.DFATableBytes > 0 {
		res.Reduction = float64(fs.DFATableBytes) / float64(cs.DFATableBytes)
	}
	for _, k := range BatchKs {
		res.Batched = append(res.Batched,
			BatchThroughput{Layout: "flat", K: k, Throughput: measureBatched(flat, payload, k)},
			BatchThroughput{Layout: "classed", K: k, Throughput: measureBatched(classed, payload, k)},
		)
	}
	return res, nil
}

// LayoutComparison runs the layout-and-batching experiment over the
// given sets (default LayoutSets) and renders the size and throughput
// tables that DESIGN.md §13/§18 and EXPERIMENTS.md discuss.
func LayoutComparison(w io.Writer, sets []string, bytesN int, seed int64) ([]LayoutResult, error) {
	if len(sets) == 0 {
		sets = LayoutSets
	}
	fmt.Fprintln(w, "Transition-table layouts: flat (256-wide) vs byte-class compressed")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Set\tstates\tclasses\tflat table\tclassed table\treduction\tflat MB/s\tclassed MB/s")
	var all []LayoutResult
	for _, set := range sets {
		res, err := MeasureLayout(set, bytesN, seed)
		if err != nil {
			return nil, err
		}
		all = append(all, res)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.1fx\t%.0f\t%.0f\n",
			res.Set, res.States, res.Classes,
			res.FlatTableBytes, res.ClassedTableBytes, res.Reduction,
			res.Flat.MBps(), res.Classed.MBps())
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "(classed table bytes include the 256-byte class map.")
	fmt.Fprintln(w, " Same automaton, same match stream — see the layout equivalence tests.)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Batched lockstep: K concurrent flows per flush window (MB/s, aggregate)")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := "Set\tlayout"
	for _, k := range BatchKs {
		header += fmt.Sprintf("\tK=%d", k)
	}
	fmt.Fprintln(tw, header)
	for _, res := range all {
		byLayout := map[string][]BatchThroughput{}
		var order []string
		for _, bt := range res.Batched {
			if _, seen := byLayout[bt.Layout]; !seen {
				order = append(order, bt.Layout)
			}
			byLayout[bt.Layout] = append(byLayout[bt.Layout], bt)
		}
		for _, layout := range order {
			row := fmt.Sprintf("%s\t%s", res.Set, layout)
			for _, bt := range byLayout[layout] {
				row += fmt.Sprintf("\t%.0f", bt.MBps())
			}
			fmt.Fprintln(tw, row)
		}
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "(one core; K=1 is the single-lane path through the batcher)")
	return all, nil
}
