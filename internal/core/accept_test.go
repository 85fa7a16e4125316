package core

import (
	"bytes"
	"fmt"
	"testing"

	"matchfilter/internal/patterns"
	"matchfilter/internal/splitter"
	"matchfilter/internal/trace"
)

// compileSets compiles the union of named pattern sets, rules renumbered
// 1..n across the union, and returns the sets' literal words with it.
func compileSets(tb testing.TB, opts Options, sets ...string) (*MFA, []string) {
	tb.Helper()
	var rules []Rule
	var words []string
	for _, set := range sets {
		loaded, err := patterns.Load(set)
		if err != nil {
			tb.Fatal(err)
		}
		for _, r := range loaded {
			rules = append(rules, Rule{Pattern: r.Pattern, ID: int32(len(rules) + 1)})
		}
		w, err := patterns.AllWords(set)
		if err != nil {
			tb.Fatal(err)
		}
		words = append(words, w...)
	}
	m, err := Compile(rules, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return m, words
}

// TestLoadedImageMatchesCompiled scans with an MFA read back from its
// own image. Everything newMFA derives — table views, accept programs —
// is absent from the image, so a view wired for Compile and forgotten
// for ReadMFA would show here; S24 ∪ CTR24 with counters makes the
// loaded programs carry bit memory, clear groups and counter registers.
func TestLoadedImageMatchesCompiled(t *testing.T) {
	m, words := compileSets(t, Options{Splitter: splitter.Options{EnableCounters: true}}, "S24", "CTR24")
	if m.Stats().Counters == 0 {
		t.Fatal("set compiled without counter registers")
	}
	var image bytes.Buffer
	if _, err := m.WriteTo(&image); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadMFA(bytes.NewReader(image.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := loaded.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image.Bytes(), again.Bytes()) {
		t.Error("image of the loaded MFA differs from the image it was loaded from")
	}
	got, want := loaded.Stats(), m.Stats()
	if got.AcceptPrograms != want.AcceptPrograms || got.AcceptWidest != want.AcceptWidest ||
		got.AcceptProgramBytes != want.AcceptProgramBytes || got.MemoryImageBytes() != want.MemoryImageBytes() {
		t.Errorf("loaded stats %+v\ncompiled stats %+v", got, want)
	}
	matches := 0
	for seed := int64(1); seed <= 3; seed++ {
		input := trace.TextLike(1<<16, seed, words, 0.02)
		wantEvs := m.Run(input)
		matches += len(wantEvs)
		if gotEvs := loaded.Run(input); fmt.Sprint(gotEvs) != fmt.Sprint(wantEvs) {
			t.Fatalf("seed %d: loaded image reports %d matches, compiled MFA %d", seed, len(gotEvs), len(wantEvs))
		}
	}
	if matches == 0 {
		t.Fatal("inputs produced no matches; the comparison proves nothing")
	}
}

// BenchmarkAcceptFanout measures Feed where accept visits dominate: on
// S24 ∪ CTR24 with counters every newline (a tenth of TextLike's bytes)
// lands on a state whose decision set holds ten filter actions, so the
// cost per byte is the cost of running wide accept programs. C8, whose
// decision sets are one or two ids wide, is the control.
func BenchmarkAcceptFanout(b *testing.B) {
	for _, bc := range []struct {
		name string
		opts Options
		sets []string
	}{
		{"S24+CTR24", Options{Splitter: splitter.Options{EnableCounters: true}}, []string{"S24", "CTR24"}},
		{"C8", Options{}, []string{"C8"}},
	} {
		m, words := compileSets(b, bc.opts, bc.sets...)
		data := trace.TextLike(1<<20, 131, words, 0.01)
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			r := m.NewRunner()
			var matches int64
			for i := 0; i < b.N; i++ {
				r.Reset()
				matches = r.FeedCount(data)
			}
			st := m.Stats()
			b.ReportMetric(float64(matches), "matches")
			b.ReportMetric(float64(st.AcceptWidest.IDs), "widest-ids")
			b.ReportMetric(float64(st.AcceptWidest.Ops), "widest-ops")
		})
	}
}
