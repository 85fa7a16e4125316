package bench

import (
	"bytes"
	"strings"
	"testing"
)

// buildC8 builds the smallest pattern set once per test binary.
var builtC8 *Engines

func c8Engines(t *testing.T) *Engines {
	t.Helper()
	if builtC8 == nil {
		e, err := Build("C8")
		if err != nil {
			t.Fatal(err)
		}
		builtC8 = e
	}
	return builtC8
}

func TestBuildProducesAllEngines(t *testing.T) {
	e := c8Engines(t)
	if e.NFA == nil || e.DFA == nil || e.HFA == nil || e.XFA == nil || e.MFA == nil {
		t.Fatal("all five engines should construct for C8")
	}
	if len(e.Results) != 5 {
		t.Fatalf("results: %d", len(e.Results))
	}
	for _, k := range AllEngines {
		r, ok := e.Result(k)
		if !ok || r.Failed {
			t.Errorf("%v: %+v", k, r)
		}
		if r.States <= 0 || r.ImageBytes <= 0 || r.BuildTime <= 0 {
			t.Errorf("%v: incomplete result %+v", k, r)
		}
	}
}

func TestImageSizeOrdering(t *testing.T) {
	// The Figure 2 shape on a constructible set: NFA smallest-ish,
	// MFA < HFA < DFA.
	e := c8Engines(t)
	get := func(k EngineKind) int {
		r, _ := e.Result(k)
		return r.ImageBytes
	}
	mfa, hfa, dfaSz := get(EngineMFA), get(EngineHFA), get(EngineDFA)
	if !(mfa < hfa && hfa < dfaSz) {
		t.Errorf("image ordering MFA(%d) < HFA(%d) < DFA(%d) violated", mfa, hfa, dfaSz)
	}
}

func TestEnginesAgreeOnTrace(t *testing.T) {
	// All five engines must report the same number of confirmed matches
	// on the same pcap — the Figure 4 inputs double as an equivalence
	// check at packet scale.
	e := c8Engines(t)
	profile := DefaultTraces(0.05)[1] // LL2, scaled down
	pcapBytes, err := SynthesizeTrace(profile, "C8")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[EngineKind]int64{}
	for _, k := range AllEngines {
		res, ok := e.RunTrace(profile, pcapBytes, k)
		if !ok {
			t.Fatalf("%v: trace run failed", k)
		}
		counts[k] = res.Matches
		if res.Bytes == 0 || res.NsPerByte <= 0 {
			t.Errorf("%v: empty measurement %+v", k, res.Throughput)
		}
	}
	// NFA reports raw per-rule events identically to DFA; HFA/XFA/MFA
	// report confirmed matches. All five must agree because the rule
	// semantics are identical.
	for _, k := range AllEngines {
		if counts[k] != counts[EngineMFA] {
			t.Errorf("match counts diverge: %v", counts)
			break
		}
	}
	if counts[EngineMFA] == 0 {
		t.Error("trace should contain matches (word salting)")
	}
}

func TestTableIRendering(t *testing.T) {
	var buf bytes.Buffer
	if err := TableI(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table I", "R1", "R2", "ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestConstructionReportRendering(t *testing.T) {
	e := c8Engines(t)
	engines := []*Engines{e}

	var buf bytes.Buffer
	if err := TableV(&buf, engines); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "C8") || !strings.Contains(buf.String(), "MFA Qs") {
		t.Errorf("TableV output:\n%s", buf.String())
	}

	buf.Reset()
	if err := Figure2(&buf, engines); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Memory image sizes") {
		t.Errorf("Figure2 output:\n%s", buf.String())
	}

	buf.Reset()
	if err := Figure3(&buf, engines); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Construction times") {
		t.Errorf("Figure3 output:\n%s", buf.String())
	}
}

// TestPaperConditionsRow: a set whose default MFA splits an overlapping
// dot-star on a position register (C7p's cabnc.*cbbog.*ccbpk) also
// carries the MFA the paper's conditions build, and both tables print it;
// a set without one (C8) does not.
func TestPaperConditionsRow(t *testing.T) {
	e, err := Build("C7p")
	if err != nil {
		t.Fatal(err)
	}
	mfaR, _ := e.Result(EngineMFA)
	paper, ok, err := e.paperConditionsMFA()
	if err != nil || !ok || paper.States <= mfaR.States || len(e.Results) != 5 {
		t.Fatalf("C7p: default %+v, paper conditions %+v (%v, %v), %d results", mfaR, paper, ok, err, len(e.Results))
	}
	if _, ok, _ := c8Engines(t).paperConditionsMFA(); ok {
		t.Error("C8 has no overlapping dot-star and must have one row")
	}
	for name, render := range map[string]func(*bytes.Buffer) error{
		"TableV":  func(b *bytes.Buffer) error { return TableV(b, []*Engines{e}) },
		"Figure2": func(b *bytes.Buffer) error { return Figure2(b, []*Engines{e}) },
	} {
		var buf bytes.Buffer
		if err := render(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "C7p"+paperConditions) {
			t.Errorf("%s output:\n%s", name, buf.String())
		}
	}
}

func TestFigure4SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("trace scan")
	}
	e := c8Engines(t)
	var buf bytes.Buffer
	profiles := DefaultTraces(0.02)[:2]
	results, err := Figure4(&buf, []*Engines{e}, profiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*len(AllEngines) {
		t.Fatalf("results: %d", len(results))
	}
	if !strings.Contains(buf.String(), "per-engine mean CpB") {
		t.Errorf("output:\n%s", buf.String())
	}
}

func TestFigure5SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("synthetic scan")
	}
	e := c8Engines(t)
	var buf bytes.Buffer
	results, err := Figure5(&buf, []*Engines{e}, 64<<10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(AllEngines)*len(PaperPMs) {
		t.Fatalf("results: %d", len(results))
	}
	out := buf.String()
	for _, want := range []string{"rand", "pM=0.95", "degradation"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestSyntheticDifficultyIncreasesMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("synthetic scan")
	}
	e := c8Engines(t)
	low, _ := e.RunSynthetic(EngineMFA, 0.35, 256<<10, 9)
	high, _ := e.RunSynthetic(EngineMFA, 0.95, 256<<10, 9)
	if high.MatchEvents < low.MatchEvents {
		t.Errorf("pM=0.95 should produce at least as many events: %d vs %d",
			high.MatchEvents, low.MatchEvents)
	}
}

func TestMeasure(t *testing.T) {
	calls := 0
	fn := func(data []byte) int64 { calls++; return int64(len(data)) }
	tp := Measure(fn, make([]byte, 1000))
	if calls != 2 {
		t.Errorf("want warmup+measured calls, got %d", calls)
	}
	if tp.Bytes != 1000 || tp.MatchEvents != 1000 || tp.NsPerByte <= 0 {
		t.Errorf("throughput: %+v", tp)
	}
	if tp.CyclesPerByte != tp.NsPerByte*NominalGHz {
		t.Error("CpB conversion")
	}
}

func TestEngineKindString(t *testing.T) {
	names := map[EngineKind]string{
		EngineNFA: "NFA", EngineDFA: "DFA", EngineHFA: "HFA",
		EngineXFA: "XFA", EngineMFA: "MFA", EngineKind(99): "Engine(99)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d: %q", int(k), k.String())
		}
	}
}

func TestActiveStatesReport(t *testing.T) {
	e := c8Engines(t)
	var buf bytes.Buffer
	rows, err := ActiveStates(&buf, []*Engines{e}, 32<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Set != "C8" {
		t.Fatalf("rows: %+v", rows)
	}
	if rows[0].MeanActive <= 0 || rows[0].MaxActive < int(rows[0].MeanActive) {
		t.Errorf("active stats: %+v", rows[0])
	}
	if !strings.Contains(buf.String(), "active-state") {
		t.Errorf("output:\n%s", buf.String())
	}
}

func TestEnginesAgreeAcrossSets(t *testing.T) {
	// Cross-engine agreement on a second, structurally different set
	// (C10: short words, heavy multi-dot-star) over a match-dense trace.
	if testing.Short() {
		t.Skip("builds a full engine family")
	}
	e, err := Build("C10")
	if err != nil {
		t.Fatal(err)
	}
	profile := DefaultTraces(0.05)[4] // C12: highest match density
	pcapBytes, err := SynthesizeTrace(profile, "C10")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[EngineKind]int64{}
	for _, k := range AllEngines {
		res, ok := e.RunTrace(profile, pcapBytes, k)
		if !ok {
			t.Fatalf("%v unavailable", k)
		}
		counts[k] = res.Matches
	}
	for _, k := range AllEngines {
		if counts[k] != counts[EngineMFA] {
			t.Fatalf("match counts diverge: %v", counts)
		}
	}
	if counts[EngineMFA] == 0 {
		t.Error("dense trace should match")
	}
}
