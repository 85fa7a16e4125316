package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"matchfilter/internal/patterns"
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
// for ReadMFA would show here; S24 ∪ CTR24, counted by default, makes the
// loaded programs carry bit memory, clear groups and counter registers.
func TestLoadedImageMatchesCompiled(t *testing.T) {
	m, words := compileSets(t, Options{}, "S24", "CTR24")
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
// S24 ∪ CTR24 every newline (a tenth of TextLike's bytes)
// lands on a state whose decision set holds ten filter actions, eight of
// them counter resets, so the cost per byte is the cost of running wide
// accept programs. On plain text those counters are almost never live and
// the visit is its quiet path. The two live rows pin the other end: every
// line opens with the recording words of all eight [^\n]{n,m} rules
// (live-all: each line end finds every counter live, the worst case for the
// live guard, which then only adds its test) or of one (live-one: cost must
// follow the live counters, not the declared ones). C8, whose decision sets
// are one or two ids wide and use no counter, is the control.
func BenchmarkAcceptFanout(b *testing.B) {
	for _, bc := range []struct {
		name string
		sets []string
		live int // recording words planted after every line end
	}{
		{"S24+CTR24", []string{"S24", "CTR24"}, 0},
		{"live-all", []string{"S24", "CTR24"}, 8},
		{"live-one", []string{"S24", "CTR24"}, 1},
		{"C8", []string{"C8"}, 0},
	} {
		m, words := compileSets(b, Options{}, bc.sets...)
		data := trace.TextLike(1<<20, 131, words, 0.01)
		if bc.live > 0 {
			rec := recordingWords(b, bc.sets...)
			if len(rec) < bc.live {
				b.Fatalf("%s: %d recording words, want %d", bc.name, len(rec), bc.live)
			}
			opening := "\n" + strings.Join(rec[:bc.live], " ")
			data = bytes.ReplaceAll(data, []byte("\n"), []byte(opening))
		}
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
			b.ReportMetric(float64(st.AcceptWidestQuiet), "quiet-ops")
		})
	}
}
