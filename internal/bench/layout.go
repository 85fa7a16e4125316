package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"matchfilter/internal/core"
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
	K int
	Throughput
}

// LayoutResult is one set's MFA table beside the paper's flat table of
// the same automaton, and its lockstep K-sweep.
type LayoutResult struct {
	Set     string
	States  int
	Classes int
	// TableBytes is the transition table with its 256-byte class map;
	// PaperFlatBytes is the paper's flat table, states × 1 KiB, computed;
	// Reduction is the second divided by the first.
	TableBytes     int
	PaperFlatBytes int
	Reduction      float64
	// Batched holds the lockstep measurements over one payload, a
	// text-like trace salted with the set's own literals (the Figure 4
	// payload model), split into K concurrent flows.
	Batched []BatchThroughput
}

// paperFlatTable is the size of the paper's flat table: 256 four-byte
// entries a state.
func paperFlatTable(states int) int { return states * 256 * 4 }

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

// MeasureLayout builds one set's MFA and measures its table and its
// lockstep K-sweep.
func MeasureLayout(set string, bytesN int, seed int64) (LayoutResult, error) {
	rules, err := patterns.Load(set)
	if err != nil {
		return LayoutResult{}, err
	}
	m, err := core.Compile(coreRules(rules), core.Options{})
	if err != nil {
		return LayoutResult{}, fmt.Errorf("bench: %s MFA: %w", set, err)
	}
	payload, err := layoutPayload(set, bytesN, seed)
	if err != nil {
		return LayoutResult{}, err
	}
	st := m.Stats()
	res := LayoutResult{
		Set:            set,
		States:         st.DFAStates,
		Classes:        st.DFAClasses,
		TableBytes:     st.DFATableBytes,
		PaperFlatBytes: paperFlatTable(st.DFAStates),
	}
	res.Reduction = float64(res.PaperFlatBytes) / float64(res.TableBytes)
	for _, k := range BatchKs {
		res.Batched = append(res.Batched, BatchThroughput{K: k, Throughput: measureBatched(m, payload, k)})
	}
	return res, nil
}

// LayoutComparison runs the table-and-batching experiment over the given
// sets (default LayoutSets) and renders the size and throughput tables
// that DESIGN.md §13/§18 and EXPERIMENTS.md discuss.
func LayoutComparison(w io.Writer, sets []string, bytesN int, seed int64) ([]LayoutResult, error) {
	if len(sets) == 0 {
		sets = LayoutSets
	}
	fmt.Fprintln(w, "Transition tables: byte-class table vs the paper's flat table (computed)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Set\tstates\tclasses\ttable bytes\tpaper flat bytes\treduction")
	var all []LayoutResult
	for _, set := range sets {
		res, err := MeasureLayout(set, bytesN, seed)
		if err != nil {
			return nil, err
		}
		all = append(all, res)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.1fx\n",
			res.Set, res.States, res.Classes, res.TableBytes, res.PaperFlatBytes, res.Reduction)
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "(table bytes include the 256-byte class map; paper flat bytes are states × 1 KiB)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Batched lockstep: K concurrent flows per flush window (MB/s, aggregate)")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := "Set"
	for _, k := range BatchKs {
		header += fmt.Sprintf("\tK=%d", k)
	}
	fmt.Fprintln(tw, header)
	for _, res := range all {
		row := res.Set
		for _, bt := range res.Batched {
			row += fmt.Sprintf("\t%.0f", bt.MBps())
		}
		fmt.Fprintln(tw, row)
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "(one core; K=1 is the single-lane path through the batcher)")
	return all, nil
}
