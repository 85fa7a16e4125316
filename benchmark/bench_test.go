package main

import (
	"regexp"
	"testing"
)

// tinyRun is a whole run of the cheapest workload at a scale where it
// takes a fraction of a second. walk_sparse is left out: its B217p
// compile alone takes ten seconds.
func tinyRun(t *testing.T, traced bool) *result {
	t.Helper()
	res, err := runWorkload(findWorkload("small_packets"), defaultSeed, 0.02, 0.2, traced, "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("tiny run incorrect: attempted %d failed %d errors %v", res.Attempted, res.Failed, res.Errors)
	}
	return res
}

// TestSpecMatchesOutput holds BENCHMARK.json and the program to each
// other: every workload and metric the file names is one the program
// has or emits, in the run (traced or not) the file says, and the other
// way round.
func TestSpecMatchesOutput(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
		}
		if !name.MatchString(w.Name) {
			t.Errorf("workload name %q is outside the allowed characters", w.Name)
		}
	}

	plain, traced := tinyRun(t, false), tinyRun(t, true)
	want := map[string]string{}
	for _, m := range spec.EndToEnd {
		want[m.Name] = m.Unit
		if !isEndToEnd(m.Name) {
			t.Errorf("BENCHMARK.json lists %q as end-to-end, the program does not", m.Name)
		}
		if got, ok := plain.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %q (%s): an untraced run emitted %+v", m.Name, m.Unit, got)
		}
	}
	for _, m := range spec.PerLayer {
		want[m.Name] = m.Unit
		if isEndToEnd(m.Name) {
			t.Errorf("BENCHMARK.json lists %q as per-layer, the program treats it as end-to-end", m.Name)
		}
	}
	for n, m := range traced.Metrics {
		if !name.MatchString(n) {
			t.Errorf("metric name %q is outside the allowed characters", n)
		}
		if unit, ok := want[n]; !ok || unit != m.Unit {
			t.Errorf("the program emits %q (%s); BENCHMARK.json has unit %q, listed %v", n, m.Unit, unit, ok)
		}
		delete(want, n)
	}
	for n := range want {
		t.Errorf("BENCHMARK.json names %q, which a traced run did not emit", n)
	}
}

// TestReferenceCheckFires corrupts one reference event and expects the
// very next pass to fail that flow and count the whole pass as lost.
func TestReferenceCheckFires(t *testing.T) {
	wd, err := buildWorld(findWorkload("small_packets"), defaultSeed, 0.02, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(wd)
	if r := srv.run(pass{}); r.failed != 0 || r.lost != 0 || r.err != "" {
		t.Fatalf("clean pass: failed %d lost %d err %q", r.failed, r.lost, r.err)
	}
	victim := -1
	for f, ref := range wd.ref {
		if len(ref) > 0 {
			victim = f
			break
		}
	}
	if victim < 0 {
		t.Fatal("no flow has a reference match; the tiny workload is too small to test with")
	}
	wd.ref[victim][0].Pos++
	r := srv.run(pass{})
	if r.failed != 1 || r.lost != r.offered {
		t.Fatalf("corrupted reference: failed %d (want 1), lost %d of %d (want all)", r.failed, r.lost, r.offered)
	}
}

// TestCompareVerdicts checks the three outcomes of -compare.
func TestCompareVerdicts(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	run := func(mbps float64, failed int) map[string][]*result {
		return map[string][]*result{"small_packets": {{
			Workload: "small_packets", Attempted: 100, Failed: failed,
			Metrics: metrics{"scan_mbps": {Value: mbps, Unit: "MiB/s"}},
		}}}
	}
	if code := compareRuns(spec, run(100, 0), run(99, 0)); code != 0 {
		t.Errorf("a 1 %% dip inside the bound: exit %d, want 0", code)
	}
	if code := compareRuns(spec, run(100, 0), run(50, 0)); code == 0 {
		t.Error("halved throughput was not reported as a regression")
	}
	if code := compareRuns(spec, run(100, 0), run(100, 3)); code == 0 {
		t.Error("a larger failed share was not reported")
	}
}
