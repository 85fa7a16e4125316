package bench

import (
	"io"
	"strings"
	"testing"
)

// TestLayoutComparison smoke-tests the experiment end to end on one
// small set and checks the acceptance-relevant invariants: the class
// table is smaller than the paper's flat table, every K row was measured,
// and the JSON report says where it was measured and names no layout.
func TestLayoutComparison(t *testing.T) {
	results, err := LayoutComparison(io.Discard, []string{"C10"}, 1<<16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	res := results[0]
	if res.PaperFlatBytes != res.States*1024 || res.TableBytes >= res.PaperFlatBytes {
		t.Fatalf("table %d B, paper flat %d B for %d states", res.TableBytes, res.PaperFlatBytes, res.States)
	}
	if res.Classes <= 0 || res.Classes >= 256 {
		t.Fatalf("implausible class count %d", res.Classes)
	}
	if len(res.Batched) != len(BatchKs) {
		t.Fatalf("got %d batched rows, want %d", len(res.Batched), len(BatchKs))
	}
	for _, bt := range res.Batched {
		if bt.Bytes == 0 || bt.Elapsed <= 0 {
			t.Fatalf("batched row K=%d not measured: %+v", bt.K, bt.Throughput)
		}
	}

	var report JSONReport
	report.AddLayout(results)
	var sb strings.Builder
	if err := report.Write(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"experiment": "layout"`, `"table_bytes"`, `"classes"`, `"batch_k": 1`, `"batch_k": 16`,
		`"go_version": "go`, `"gomaxprocs"`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("JSON report missing %s:\n%s", want, sb.String())
		}
	}
	if strings.Contains(sb.String(), `"layout":`) {
		t.Fatalf("JSON report names a layout:\n%s", sb.String())
	}
}
