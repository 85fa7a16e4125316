// Command mfabench regenerates the paper's evaluation: Tables I and V
// and Figures 2-5. Each experiment prints the same rows or series the
// paper reports; EXPERIMENTS.md interprets the expected shapes.
//
// Usage:
//
//	mfabench -exp all
//	mfabench -exp table5 -sets C7p,C8
//	mfabench -exp fig4 -scale 0.25    # smaller traces, faster run
//	mfabench -exp fig5 -bytes 524288
//	mfabench -exp layout -json layout.json    # table sizes + K-sweep
//	mfabench -exp engine -json results.json   # machine-readable rows too
//
// -json writes the raw measurement rows of the row-producing experiments
// (fig4, fig5, active, layout, engine) as one JSON document ("-" for
// stdout) in addition to the printed tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"matchfilter/internal/bench"
	"matchfilter/internal/patterns"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mfabench:", err)
		os.Exit(1)
	}
}

// experiments are the names -exp accepts.
var experiments = []string{"table1", "table2", "table5", "fig2", "fig3", "fig4", "fig5", "active", "layout", "counters", "engine", "all"}

func run() error {
	exp := flag.String("exp", "all", "experiment: "+strings.Join(experiments, ", "))
	setsFlag := flag.String("sets", "", "comma-separated pattern sets (default: all seven)")
	scale := flag.Float64("scale", 0.25, "trace size scale for fig4 and engine")
	bytesN := flag.Int("bytes", 1<<20, "stream length per measurement for fig5")
	seed := flag.Int64("seed", 1, "seed for fig5 traffic")
	shardsFlag := flag.String("shards", "1,2,4,8", "shard counts for the engine experiment")
	jsonOut := flag.String("json", "", "also write raw measurement rows as JSON to this file (- for stdout)")
	flag.Parse()
	if !slices.Contains(experiments, *exp) {
		return fmt.Errorf("unknown -exp %q (want one of %s)", *exp, strings.Join(experiments, ", "))
	}

	var sets []string
	if *setsFlag != "" {
		sets = strings.Split(*setsFlag, ",")
	}

	wants := func(name string) bool { return *exp == "all" || *exp == name }
	out := os.Stdout
	var report bench.JSONReport

	if wants("table1") {
		if err := bench.TableI(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if wants("table2") {
		if err := bench.TablesIIToIV(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}

	if wants("layout") {
		rows, err := bench.LayoutComparison(out, sets, *bytesN, *seed)
		if err != nil {
			return err
		}
		report.AddLayout(rows)
		fmt.Fprintln(out)
	}

	if wants("counters") {
		// The counter experiment runs its own sets (the CTR family) —
		// the Table V sets carry no bounded repeats — so -sets only
		// applies when it names CTR sets explicitly.
		ctrSets := sets
		if *exp == "all" {
			ctrSets = nil
		}
		rows, err := bench.CounterComparison(out, ctrSets, *bytesN, *seed)
		if err != nil {
			return err
		}
		report.AddCounters(rows)
		fmt.Fprintln(out)
	}

	needsBuild := wants("table5") || wants("fig2") || wants("fig3") ||
		wants("fig4") || wants("fig5") || wants("active") || wants("engine")
	if !needsBuild {
		return writeJSONReport(*jsonOut, &report)
	}

	fmt.Fprintf(out, "building engines for %s...\n", setsOrAll(sets))
	start := time.Now()
	engines, err := bench.BuildAll(sets)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "built in %v\n\n", time.Since(start))

	if wants("table5") {
		if err := bench.TableV(out, engines); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if wants("fig2") {
		if err := bench.Figure2(out, engines); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if wants("fig3") {
		if err := bench.Figure3(out, engines); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if wants("fig4") {
		rows, err := bench.Figure4(out, engines, bench.DefaultTraces(*scale))
		if err != nil {
			return err
		}
		report.AddTraces(rows)
		fmt.Fprintln(out)
	}
	if wants("fig5") {
		rows, err := bench.Figure5(out, engines, *bytesN, *seed)
		if err != nil {
			return err
		}
		report.AddSynthetic(rows)
		fmt.Fprintln(out)
	}
	if wants("active") {
		rows, err := bench.ActiveStates(out, engines, *bytesN/4, *seed)
		if err != nil {
			return err
		}
		report.AddActiveStates(rows)
		fmt.Fprintln(out)
	}
	if wants("engine") {
		counts, err := parseShards(*shardsFlag)
		if err != nil {
			return err
		}
		rows, err := bench.EngineScaling(out, engines, bench.EngineTrace(*scale), counts)
		if err != nil {
			return err
		}
		report.AddEngineScaling(rows)
	}
	return writeJSONReport(*jsonOut, &report)
}

// writeJSONReport writes the accumulated rows when -json was given.
// path "" disables, "-" selects stdout.
func writeJSONReport(path string, report *bench.JSONReport) error {
	switch path {
	case "":
		return nil
	case "-":
		return report.Write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseShards(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -shards value %q", part)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

func setsOrAll(sets []string) string {
	if len(sets) == 0 {
		return strings.Join(patterns.Names(), ",")
	}
	return strings.Join(sets, ",")
}
