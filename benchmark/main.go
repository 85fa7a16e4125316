// Command benchmark is the repository's serving-path benchmark: four
// generated workloads driven through an in-process copy of the
// cmd/mfaserve wiring, reporting what a user of the daemon sees
// (set-up time, scan throughput, CPU per byte, image size, alert
// latency) and, in a separate traced run, what each layer costs.
// BENCHMARK.json at the repository root names the metrics and the bound
// each may worsen by; README.md in this directory explains them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// environment is recorded with every result so rows measured on
// different commits or hosts are not compared by accident.
type environment struct {
	Host       string `json:"host"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	env := environment{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	env.Host, _ = os.Hostname()                  // an empty host name is still a valid record
	if c := os.Getenv("BENCH_COMMIT"); c != "" { // set by run.sh
		env.Commit = c
	} else if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// result is one workload's run. The last line of standard output is its
// summary form; -json writes it whole.
type result struct {
	Workload  string      `json:"workload"`
	Seed      uint64      `json:"seed"`
	Scale     float64     `json:"scale"`
	Seconds   float64     `json:"seconds"`
	Traced    bool        `json:"traced"`
	Env       environment `json:"env"`
	SHA256    string      `json:"sha256"`
	Matches   int64       `json:"reference_matches"`
	Correct   bool        `json:"correct"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Errors    []string    `json:"errors,omitempty"`
	Metrics   metrics     `json:"metrics"`
}

// runWorkload does one complete run. With traced set the serving passes
// alternate traced and untraced and the per-layer ledger follows;
// end-to-end numbers are meant to be read from untraced runs.
func runWorkload(w *workload, seed uint64, scale, seconds float64, traced bool, spansPath string) (*result, error) {
	var sp *spans
	if traced {
		sp = newSpans(w.name)
	}
	root := sp.begin("run", 0)
	wd, err := buildWorld(w, seed, scale, sp, root)
	if err != nil {
		return nil, err
	}
	srv := newServer(wd)
	ms := measure(wd, srv, seconds, sp, root)
	res := &result{
		Workload: w.name, Seed: seed, Scale: scale, Seconds: seconds, Traced: traced, Env: currentEnvironment(),
		SHA256: wd.sha, Matches: wd.refMatches, Metrics: metrics{},
		Attempted: ms.attempted, Failed: ms.failed, Errors: ms.errs,
	}
	endToEnd(wd, ms, res.Metrics)
	if traced {
		id := sp.begin("ledger", root)
		l := &ledger{wd: wd, srv: srv, sp: sp, parent: id, out: res.Metrics}
		if err := l.run(); err != nil {
			return nil, fmt.Errorf("%s: ledger: %w", w.name, err)
		}
		sp.end(id)
	}
	sp.end(root)
	res.Correct = res.Failed == 0 && len(res.Errors) == 0
	if spansPath != "" {
		if err := sp.write(spansPath); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// summaryLine is the one-line form a driver reads: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func (r *result) summaryLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for name, m := range r.Metrics {
		if isEndToEnd(name) != r.Traced {
			out.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // only NaN or Inf can do this, and both mean a harness bug
	}
	return string(line)
}

// endToEndNames are the metrics with regression bounds in BENCHMARK.json.
var endToEndNames = []string{"setup_s", "scan_mbps", "cpu_ns_per_byte", "image_bytes", "alert_latency_p50_us_lo"}

func isEndToEnd(name string) bool {
	for _, n := range endToEndNames {
		if n == name {
			return true
		}
	}
	return false
}

func (r *result) print() {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("%s %s %.6g %s", r.Workload, name, m.Value, m.Unit)
		if m.N > 1 {
			fmt.Printf("  (%d samples, quartiles %.6g..%.6g)", m.N, m.Q1, m.Q3)
		}
		fmt.Println()
	}
	for _, e := range r.Errors {
		fmt.Printf("%s ERROR %s\n", r.Workload, e)
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	workloadFlag := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Uint64("seed", defaultSeed, "seed for every traffic generator")
	seconds := flag.Float64("seconds", 20, "time to spend measuring the serving path, per workload")
	scale := flag.Float64("scale", 1, "multiplier on per-flow bytes")
	trace := flag.String("trace", "0", "0: end-to-end run; 1: traced run with the per-layer ledger; any other value: traced, and write the spans to that file")
	jsonPath := flag.String("json", "", "write the full results (environment, samples) to this file")
	compare := flag.Bool("compare", false, "compare two -json files given as arguments against the bounds in BENCHMARK.json")
	spec := flag.String("spec", "BENCHMARK.json", "the benchmark's specification, for -compare")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files: parent.json change.json")
			return 2
		}
		return compareFiles(*spec, flag.Arg(0), flag.Arg(1))
	}

	var todo []*workload
	if *workloadFlag == "all" {
		todo = workloads
	} else if w := findWorkload(*workloadFlag); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *workloadFlag, strings.Join(workloadNames(), ", "))
		return 2
	}
	traced := *trace != "0" && *trace != ""
	spansPath := ""
	if traced && *trace != "1" {
		spansPath = *trace
	}

	code := 0
	var results []*result
	for _, w := range todo {
		path := spansPath
		if path != "" && len(todo) > 1 {
			path = w.name + "." + path
		}
		res, err := runWorkload(w, *seed, *scale, *seconds, traced, path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		res.print()
		results = append(results, res)
		if !res.Correct {
			code = 1
		}
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(results, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	for _, res := range results {
		fmt.Println(res.summaryLine())
	}
	return code
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
