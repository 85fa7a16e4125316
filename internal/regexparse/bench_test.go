package regexparse_test

import (
	"testing"

	"matchfilter/internal/patterns"
	"matchfilter/internal/regexparse"
)

// BenchmarkParse times parsing the rule texts of B217p, the set-up path's
// largest set, and of S24 ∪ CTR24, with allocations: a literal byte costs
// no node of its own.
func BenchmarkParse(b *testing.B) {
	for _, bc := range []struct {
		name string
		sets []string
	}{{"B217p", []string{"B217p"}}, {"S24+CTR24", []string{"S24", "CTR24"}}} {
		var sources []string
		for _, set := range bc.sets {
			src, err := patterns.Sources(set)
			if err != nil {
				b.Fatal(err)
			}
			sources = append(sources, src...)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, src := range sources {
					if _, err := regexparse.ParsePCRE(src); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
