package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// readRuns loads one side of a comparison: a comma-separated list of
// files written by -json, pooled by workload.
func readRuns(list string) (map[string][]*result, error) {
	runs := map[string][]*result{}
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rs []*result
		if err := json.Unmarshal(data, &rs); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range rs {
			runs[r.Workload] = append(runs[r.Workload], r)
		}
	}
	return runs, nil
}

// side summarises one metric of one workload on one side: the median
// over runs and the run-to-run spread. With a single run the spread is
// that of the run's own passes.
func side(runs []*result, name string) (med, spread float64, ok bool) {
	var vals []float64
	for _, r := range runs {
		if m, have := r.Metrics[name]; have {
			vals = append(vals, m.Value)
		}
	}
	switch {
	case len(vals) == 0:
		return 0, 0, false
	case len(vals) == 1:
		if m := runs[0].Metrics[name]; m.N > 1 && m.Value != 0 {
			spread = (m.Q3 - m.Q1) / m.Value
		}
		return vals[0], spread, true
	}
	return median(vals), iqrFrac(vals), true
}

func failedShare(runs []*result) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// compareFiles judges change against parent by the bounds in the spec:
// a metric whose parent spread exceeds its bound is unresolved, not
// unchanged; one that worsened by more than its bound is a regression.
// The exit code is non-zero on a regression or a larger failed share.
func compareFiles(specPath, parent, change string) int {
	spec, err := readSpec(specPath)
	if err == nil {
		var a, b map[string][]*result
		if a, err = readRuns(parent); err == nil {
			if b, err = readRuns(change); err == nil {
				return compareRuns(spec, a, b)
			}
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark: compare:", err)
	return 2
}

func compareRuns(spec *benchSpec, parent, change map[string][]*result) int {
	code := 0
	fmt.Printf("%-14s %-26s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "parent", "change", "worse", "spread", "bound", "verdict")
	for _, w := range spec.Workloads {
		a, b := parent[w.Name], change[w.Name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			pa, spread, okA := side(a, m.Name)
			pb, _, okB := side(b, m.Name)
			if !okA || !okB || pa == 0 {
				continue
			}
			worse := (pb - pa) / pa
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSION"
				code = 1
			}
			fmt.Printf("%-14s %-26s %12.5g %12.5g %+7.1f%% %7.1f%% %7.1f%%  %s\n",
				w.Name, m.Name, pa, pb, 100*worse, 100*spread, 100*m.Bound, verdict)
		}
		if fa, fb := failedShare(a), failedShare(b); fb > fa {
			fmt.Printf("%-14s failed share rose from %.4g to %.4g  REGRESSION\n", w.Name, fa, fb)
			code = 1
		}
	}
	return code
}
