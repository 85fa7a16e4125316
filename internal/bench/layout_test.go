package bench

import (
	"io"
	"strings"
	"testing"

	"matchfilter/internal/dfa"
)

// BenchmarkClassedVsFlat scans the same salted text-like payload with
// both table layouts of each set's MFA. CI runs it with
// -benchtime=1x as a smoke test; locally, -bench=Classed gives the real
// comparison.
func BenchmarkClassedVsFlat(b *testing.B) {
	const payloadBytes = 1 << 20
	for _, set := range LayoutSets {
		payload, err := layoutPayload(set, payloadBytes, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, layout := range []dfa.Layout{dfa.LayoutFlat, dfa.LayoutClassed} {
			m, err := compileLayout(set, layout)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(set+"/"+layout.String(), func(b *testing.B) {
				r := m.NewRunner()
				b.SetBytes(int64(len(payload)))
				for i := 0; i < b.N; i++ {
					r.Reset()
					r.FeedCount(payload)
				}
			})
		}
	}
}

// TestLayoutComparison smoke-tests the experiment end to end on one
// small set and checks the acceptance-relevant invariants: the classed
// table is smaller than flat, both layouts saw identical match counts
// on the shared payload, every (layout, K) batched row was measured, and
// the JSON report says where it was measured.
func TestLayoutComparison(t *testing.T) {
	results, err := LayoutComparison(io.Discard, []string{"C10"}, 1<<16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	res := results[0]
	if res.ClassedTableBytes >= res.FlatTableBytes {
		t.Fatalf("classed table %d B not smaller than flat %d B",
			res.ClassedTableBytes, res.FlatTableBytes)
	}
	if res.Classes <= 0 || res.Classes >= 256 {
		t.Fatalf("implausible class count %d", res.Classes)
	}
	if res.Flat.MatchEvents != res.Classed.MatchEvents {
		t.Fatalf("layouts disagree on match count: flat %d, classed %d",
			res.Flat.MatchEvents, res.Classed.MatchEvents)
	}
	if want := 2 * len(BatchKs); len(res.Batched) != want {
		t.Fatalf("got %d batched rows, want %d", len(res.Batched), want)
	}
	for _, bt := range res.Batched {
		if bt.Bytes == 0 || bt.Elapsed <= 0 {
			t.Fatalf("batched row %s K=%d not measured: %+v", bt.Layout, bt.K, bt.Throughput)
		}
	}

	var report JSONReport
	report.AddLayout(results)
	var sb strings.Builder
	if err := report.Write(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"experiment": "layout"`, `"layout": "flat"`, `"layout": "classed"`,
		`"table_bytes"`, `"batch_k": 1`, `"batch_k": 16`, `"go_version": "go`, `"gomaxprocs"`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("JSON report missing %s:\n%s", want, sb.String())
		}
	}
	if strings.Contains(sb.String(), "classed2") {
		t.Fatalf("JSON report names the removed layout:\n%s", sb.String())
	}
}
