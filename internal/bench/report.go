package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"matchfilter/internal/dfa"
	"matchfilter/internal/nfa"
	"matchfilter/internal/patterns"
	"matchfilter/internal/regexparse"
)

// BuildAll constructs every engine for each named set (all seven Table V
// sets when sets is empty).
func BuildAll(sets []string) ([]*Engines, error) {
	if len(sets) == 0 {
		sets = patterns.Names()
	}
	out := make([]*Engines, 0, len(sets))
	for _, s := range sets {
		e, err := Build(s)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// TableI reproduces the paper's Table I: the DFA state counts of the
// related rule sets R1 (three dot-star regexes) and R2 (their seven split
// segments). The paper reports 106 vs 23.
func TableI(w io.Writer) error {
	r1 := []string{"vi.*emacs", "bsd.*gnu", "abc.*mm?o.*xyz"}
	r2 := []string{"emacs", "gnu", "xyz", "vi", "bsd", "abc", "mm?o"}
	count := func(sources []string) (int, error) {
		rules := make([]nfa.Rule, len(sources))
		for i, src := range sources {
			p, err := regexparse.Parse(src)
			if err != nil {
				return 0, err
			}
			rules[i] = nfa.Rule{Pattern: p, MatchID: i + 1}
		}
		n, err := nfa.Build(rules)
		if err != nil {
			return 0, err
		}
		d, err := dfa.FromNFA(n, dfa.Options{Minimize: true})
		if err != nil {
			return 0, err
		}
		return d.NumStates(), nil
	}
	q1, err := count(r1)
	if err != nil {
		return err
	}
	q2, err := count(r2)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table I: Related regular expressions and # DFA states")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Id\tRegex\t# Qs\tpaper")
	fmt.Fprintf(tw, "R1\tvi.*emacs | bsd.*gnu | abc.*mm?o.*xyz\t%d\t106\n", q1)
	fmt.Fprintf(tw, "R2\temacs | gnu | xyz | vi | bsd | abc | mm?o\t%d\t23\n", q2)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "ratio: %.1fx (paper: 4.6x)\n", float64(q1)/float64(q2))
	return nil
}

// paperConditions labels the second row of a set whose default MFA is not
// the paper's construction (Engines.paperConditionsMFA).
const paperConditions = " (paper conditions only)"

// TableV renders the pattern-set properties table: rule count, NFA
// states, DFA states (— on budget failure) and MFA states.
func TableV(w io.Writer, engines []*Engines) error {
	fmt.Fprintln(w, "Table V: RegEx set properties")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Set\tRegExes\tNFA Qs\tDFA Qs\tMFA Qs")
	for _, e := range engines {
		nfaR, _ := e.Result(EngineNFA)
		dfaR, _ := e.Result(EngineDFA)
		mfaR, _ := e.Result(EngineMFA)
		dfaCol := fmt.Sprintf("%d", dfaR.States)
		if dfaR.Failed {
			dfaCol = "—"
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%d\n",
			e.Set, len(e.Rules), nfaR.States, dfaCol, mfaR.States)
		paper, ok, err := e.paperConditionsMFA()
		if err != nil {
			return err
		}
		if ok {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%d\n",
				e.Set+paperConditions, len(e.Rules), nfaR.States, dfaCol, paper.States)
		}
	}
	return tw.Flush()
}

// Figure2 renders memory image sizes in MB per (set, engine), the
// paper's Fig. 2 matrix, plus the MFA filter fraction the paper reports
// as averaging under 0.2%.
func Figure2(w io.Writer, engines []*Engines) error {
	fmt.Fprintln(w, "Figure 2: Memory image sizes (MB)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Pattern\tNFA\tDFA\tHFA\tXFA\tMFA\tHFA/MFA")
	var ratioSum float64
	var ratioN int
	// row renders one set with mfaR in the MFA column and returns the
	// HFA/MFA ratio (0 when there is none to take).
	row := func(e *Engines, label string, mfaR BuildResult) float64 {
		line := label
		var hfaMB, mfaMB float64
		for _, k := range AllEngines {
			r, ok := e.Result(k)
			if k == EngineMFA {
				r = mfaR
			}
			switch {
			case !ok || r.Failed:
				line += "\t—"
			default:
				mb := float64(r.ImageBytes) / (1 << 20)
				line += fmt.Sprintf("\t%.2f", mb)
				if k == EngineHFA {
					hfaMB = mb
				}
				if k == EngineMFA {
					mfaMB = mb
				}
			}
		}
		var ratio float64
		if mfaMB > 0 {
			ratio = hfaMB / mfaMB
			line += fmt.Sprintf("\t%.1fx", ratio)
		}
		fmt.Fprintln(tw, line)
		return ratio
	}
	for _, e := range engines {
		mfaR, _ := e.Result(EngineMFA)
		if ratio := row(e, e.Set, mfaR); ratio > 0 {
			ratioSum += ratio
			ratioN++
		}
		paper, ok, err := e.paperConditionsMFA()
		if err != nil {
			return err
		}
		if ok {
			row(e, e.Set+paperConditions, paper) // outside the mean: one set, one vote
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if ratioN > 0 {
		fmt.Fprintf(w, "mean HFA/MFA image ratio: %.1fx (paper: ~30x)\n", ratioSum/float64(ratioN))
	}
	for _, e := range engines {
		st := e.MFA.Stats()
		frac := 100 * float64(st.FilterBytes) / float64(st.MemoryImageBytes())
		fmt.Fprintf(w, "  %s: MFA filters are %.3f%% of image (paper: <0.2%% avg)\n", e.Set, frac)
	}
	return nil
}

// Figure3 renders construction times in seconds per (set, engine).
func Figure3(w io.Writer, engines []*Engines) error {
	fmt.Fprintln(w, "Figure 3: Construction times (seconds)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Pattern\tNFA\tDFA\tHFA\tXFA\tMFA")
	for _, e := range engines {
		row := e.Set
		for _, k := range AllEngines {
			r, ok := e.Result(k)
			switch {
			case !ok:
				row += "\t—"
			case r.Failed:
				row += fmt.Sprintf("\tfail(%.1fs)", r.BuildTime.Seconds())
			default:
				row += fmt.Sprintf("\t%.3f", r.BuildTime.Seconds())
			}
		}
		fmt.Fprintln(tw, row)
	}
	return tw.Flush()
}
