// Command mfabuild compiles a pattern set into a Match Filtering
// Automaton and prints its construction statistics (the per-set numbers
// behind Table V and Figures 2-3).
//
// Usage:
//
//	mfabuild -set C7p                 # a built-in Table V set
//	mfabuild -rules rules.txt         # one pattern per line, # comments
//	mfabuild -set S24 -filters        # additionally dump the filter program
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"matchfilter/internal/core"
	"matchfilter/internal/patterns"
	"matchfilter/internal/rules"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mfabuild:", err)
		os.Exit(1)
	}
}

func run() error {
	set := flag.String("set", "", "built-in pattern set name ("+strings.Join(patterns.Names(), ", ")+")")
	rulesFile := flag.String("rules", "", "file with one pattern per line (# starts a comment)")
	showFilters := flag.Bool("filters", false, "dump the generated filter program")
	showFragments := flag.Bool("fragments", false, "list the decomposed fragments")
	maxStates := flag.Int("max-states", 0, "DFA state budget (0 = default)")
	output := flag.String("o", "", "write the compiled engine to this file for mfascan -engine")
	check := flag.Bool("check", true, "self-check the compiled automaton (scan a built-in trace, round-trip a flow context) before reporting or writing it")
	flag.Parse()

	src, err := rules.Source(*set, *rulesFile)
	if err != nil {
		return err
	}
	rs, sources, err := rules.Load(src)
	if err != nil {
		return err
	}

	opts := core.Options{}
	opts.DFA.MaxStates = *maxStates
	m, err := core.Compile(rs, opts)
	if err != nil {
		return err
	}
	if *check {
		if err := m.SelfCheck(); err != nil {
			return err
		}
	}

	st := m.Stats()
	fmt.Printf("patterns:        %d\n", st.NumRules)
	fmt.Printf("fragments:       %d (decomposed rules: %d)\n", st.NumFragments, st.Split.RulesDecomposed)
	fmt.Printf("  dot-star splits:        %d (+ %d position-checked: A and B overlap)\n",
		st.Split.DotStarSplits, st.Split.PositionSplits)
	fmt.Printf("  almost-dot-star splits: %d (+ %d position-checked: A and B overlap, or A ends in X)\n",
		st.Split.AlmostSplits, st.Split.AlmostPositionSplits)
	fmt.Printf("  refused (overlap/infix/class/X-in-B/X-final/var-length/structural/cascade): %d/%d/%d/%d/%d/%d/%d/%d\n",
		st.Split.RefusedOverlap, st.Split.RefusedInfix, st.Split.RefusedClassSize,
		st.Split.RefusedXInB, st.Split.RefusedXFinalInA, st.Split.RefusedVarLength,
		st.Split.RefusedStructural, st.Split.RefusedCascade)
	fmt.Printf("  counter splits: %d (refused X-in-B/span: %d/%d)\n",
		st.Split.CounterSplits, st.Split.RefusedCounterXInB, st.Split.RefusedCounterSpan)
	fmt.Printf("counters:        %d\n", st.Counters)
	fmt.Printf("NFA states:      %d\n", st.NFAStates)
	fmt.Printf("MFA states:      %d\n", st.DFAStates)
	fmt.Printf("table layout:    %s (%d classes, table %.3f MB)\n",
		st.DFALayout, st.DFAClasses, mb(st.DFATableBytes))
	fmt.Printf("memory bits (w): %d, position registers: %d, open-window counters: %d\n",
		st.MemBits, st.PosRegs, st.Split.AlmostPositionSplits)
	fmt.Printf("internal ids:    %d\n", st.InternalIDs)
	fmt.Printf("image:           %.3f MB (DFA %.3f MB + filters %.4f MB)\n",
		mb(st.MemoryImageBytes()), mb(st.DFABytes), mb(st.FilterBytes))
	fmt.Printf("accept programs: %d distinct, %.4f MB resident beside the image, %d live guards; widest decision set %d ids -> %d ops (%d when quiet) per visit; %d of %d accepting states reset-only (skipped on a quiet flow)\n",
		st.AcceptPrograms, mb(st.AcceptProgramBytes), st.AcceptLiveGuards, st.AcceptWidest.IDs, st.AcceptWidest.Ops, st.AcceptWidestQuiet,
		st.AcceptResetOnly, st.DFAStates-int(m.DFA().AcceptStart()))
	fmt.Printf("build time:      %v (split %v, subset construction %v)\n",
		st.BuildTime, st.SplitTime, st.DFATime)

	if *showFragments {
		fmt.Println("\nrules:")
		for i, src := range sources {
			fmt.Printf("  %3d: %s\n", i+1, src)
		}
	}
	if *showFilters {
		fmt.Println("\nfilter program:")
		fmt.Print(m.Program().String())
	}
	if *output != "" {
		if err := writeEngine(*output, m, sources); err != nil {
			return err
		}
		fmt.Printf("engine written to %s\n", *output)
	}
	return nil
}

// writeEngine writes the image mfascan -engine and mfaserve -engine
// load. Close's error is returned: a final write that fails there must
// not be reported as a written engine.
func writeEngine(path string, m *core.MFA, sources []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := core.WriteStrings(f, sources); err != nil {
		f.Close()
		return err
	}
	if _, err := m.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func mb(n int) float64 { return float64(n) / (1 << 20) }
