package splitter_test

// What the splitter's checks prevent, shown end to end through core.Compile
// over the test-only constructions of export_test.go (DESIGN.md §5
// ablations 3 and 5).

import (
	"testing"

	"matchfilter/internal/core"
	"matchfilter/internal/regexparse"
	"matchfilter/internal/splitter"
	"matchfilter/internal/trace"
)

func compile(tb testing.TB, c splitter.Construction, sources ...string) *core.MFA {
	tb.Helper()
	rules := make([]core.Rule, len(sources))
	for i, src := range sources {
		p, err := regexparse.ParsePCRE(src)
		if err != nil {
			tb.Fatalf("parse %q: %v", src, err)
		}
		rules[i] = core.Rule{Pattern: p, ID: int32(i + 1)}
	}
	m, err := core.Compile(rules, core.Options{Splitter: splitter.Options{Construction: c}})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func TestUnsafeDecompositionFalseMatch(t *testing.T) {
	// §IV-A: force-decomposing .*abc.*bcd on a guard bit wrongly matches
	// "abcd". With the checks on, the overlap is split on a position
	// register instead and "abcd" is rejected.
	if got := compile(t, splitter.Unchecked, "abc.*bcd").Run([]byte("abcd")); len(got) != 1 {
		t.Fatalf("unsafe decomposition should produce the false match: %v", got)
	}
	safe := compile(t, splitter.Extended, "abc.*bcd")
	if got := safe.Run([]byte("abcd")); len(got) != 0 {
		t.Fatalf("safe MFA must reject abcd: %v", got)
	}
	if got := safe.Run([]byte("abc bcd")); len(got) != 1 {
		t.Fatalf("safe MFA must still match the real pattern: %v", got)
	}
}

// BenchmarkAblationClassThreshold isolates DESIGN.md ablation 3: an
// almost-dot-star whose gap class admits most of the alphabet floods the
// filter with gap events when force-decomposed, reproducing the §IV-B
// throughput collapse that motivates the 128-byte threshold.
func BenchmarkAblationClassThreshold(b *testing.B) {
	// X = [^bq] (254 bytes): the default refuses; AnyClassSize splits it.
	const src = "zq[bq]*bq"
	input := trace.TextLike(256<<10, 9, []string{"zq", "bq"}, 0.005)
	for _, mode := range []struct {
		name string
		c    splitter.Construction
	}{{"refused-default", splitter.Extended}, {"forced-split", splitter.AnyClassSize}} {
		m := compile(b, mode.c, src)
		b.Run(mode.name, func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			b.ReportMetric(float64(m.Stats().NumFragments), "fragments")
			for i := 0; i < b.N; i++ {
				m.NewRunner().FeedCount(input)
			}
		})
	}
}
