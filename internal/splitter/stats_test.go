package splitter

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"matchfilter/internal/patterns"
)

var update = flag.Bool("update", false, "rewrite testdata/stats.golden from this run instead of comparing against it")

const statsGolden = "testdata/stats.golden"

// constructions names every Construction, the test seams included.
var constructions = []struct {
	name string
	c    Construction
}{
	{"Extended", Extended}, {"Paper", Paper}, {"PaperDotStar", PaperDotStar}, {"Whole", Whole},
	{"Unchecked", Unchecked}, {"AnyClassSize", AnyClassSize},
}

// loadSets parses the named pattern sets into one rule list, ids 1..n.
func loadSets(tb testing.TB, sets ...string) []Rule {
	tb.Helper()
	var rules []Rule
	for _, set := range sets {
		loaded, err := patterns.Load(set)
		if err != nil {
			tb.Fatal(err)
		}
		for _, r := range loaded {
			rules = append(rules, Rule{Pattern: r.Pattern, RuleID: int32(len(rules) + 1)})
		}
	}
	return rules
}

// TestSplitStatsPinned pins every split and refusal count the splitter
// reports, per rule set and construction. The table was generated before
// the overlap checks moved onto one automaton per segment; an analysis
// that answers differently — a check run on the wrong segment, a product
// search skipped — moves a count. The "corners" set holds one rule per
// kind of refusal, most of which the named sets never reach. `go test ./internal/splitter -run
// TestSplitStatsPinned -update` rewrites the table after an intended
// change to what the splitter decides, and the diff is that change.
func TestSplitStatsPinned(t *testing.T) {
	corners := mustRules(t,
		`abc.*bcd`,       // a suffix of A is a prefix of B
		`bz.*abzq`,       // A lies inside B
		`abc.*bc+`,       // overlapping, and B has no fixed length
		`ab:[^:]*cd`,     // A ends in X
		`ab[^:]*c:d`,     // X occurs in B
		`a?.*ab`,         // A matches the empty string
		`ab[^x]{3,20}cx`, // a bounded gap's X occurs in B
	)
	type ruleSet struct {
		name  string
		rules []Rule
	}
	sets := []ruleSet{{"S24+CTR24", loadSets(t, "S24", "CTR24")}, {"corners", corners}}
	for _, name := range patterns.Names() {
		sets = append(sets, ruleSet{name, loadSets(t, name)})
	}
	var got strings.Builder
	for _, set := range sets {
		for _, c := range constructions {
			res, err := Split(set.rules, Options{Construction: c.c})
			if err != nil {
				t.Fatalf("%s/%s: %v", set.name, c.name, err)
			}
			fmt.Fprintf(&got, "%s/%s %+v\n", set.name, c.name, res.Stats)
		}
	}
	if *update {
		if err := os.WriteFile(statsGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(statsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("splitter decisions differ from %s (-update rewrites it after an intended change)\ngot:\n%swant:\n%s", statsGolden, got.String(), want)
	}
}

// BenchmarkSplit times Algorithm 1 with its safety analyses on the
// largest rule set (B217p) and the counter-heavy one (S24 ∪ CTR24), the
// rules parsed once outside the loop.
func BenchmarkSplit(b *testing.B) {
	for _, bc := range []struct {
		name string
		sets []string
	}{{"B217p", []string{"B217p"}}, {"S24+CTR24", []string{"S24", "CTR24"}}} {
		rules := loadSets(b, bc.sets...)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Split(rules, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
