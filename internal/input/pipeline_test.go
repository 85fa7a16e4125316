// Integration tests against the real engine: the multi-pcap
// match-equivalence property and the per-source-counters-sum-to-engine-
// totals invariant, both exercised under -race in CI.
package input

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"matchfilter/internal/core"
	"matchfilter/internal/engine"
	"matchfilter/internal/flow"
	"matchfilter/internal/guard"
	"matchfilter/internal/leakcheck"
	"matchfilter/internal/pcap"
	"matchfilter/internal/regexparse"
)

func buildMFA(t testing.TB, sources ...string) *core.MFA {
	t.Helper()
	rules := make([]core.Rule, len(sources))
	for i, src := range sources {
		p, err := regexparse.ParsePCRE(src)
		if err != nil {
			t.Fatal(err)
		}
		rules[i] = core.Rule{Pattern: p, ID: int32(i + 1)}
	}
	m, err := core.Compile(rules, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// matchRecorder collects engine matches from concurrent shards.
type matchRecorder struct {
	mu      sync.Mutex
	matches []engine.Match
}

func (r *matchRecorder) record(m engine.Match) {
	r.mu.Lock()
	r.matches = append(r.matches, m)
	r.mu.Unlock()
}

// flowMatches reduces matches to a per-flow sorted multiset, the
// granularity at which parallel ingestion must agree with sequential.
func (r *matchRecorder) flowMatches() map[pcap.FlowKey][]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[pcap.FlowKey][]string)
	for _, m := range r.matches {
		out[m.Flow] = append(out[m.Flow], fmt.Sprintf("%d@%d", m.ID, m.Pos))
	}
	for _, v := range out {
		sort.Strings(v)
	}
	return out
}

func equalFlowMatches(a, b map[pcap.FlowKey][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || len(va) != len(vb) {
			return false
		}
		for i := range va {
			if va[i] != vb[i] {
				return false
			}
		}
	}
	return true
}

// splitCaptureByFlow routes a capture's frames into two flow-disjoint
// captures — the shape a rotating capture daemon produces — so parallel
// per-file scanning is well-defined.
func splitCaptureByFlow(t *testing.T, capture []byte, dir string) (pathA, pathB string) {
	t.Helper()
	pr, err := pcap.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	var bufA, bufB bytes.Buffer
	wrA, wrB := pcap.NewWriter(&bufA), pcap.NewWriter(&bufB)
	for {
		pkt, err := pr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		seg, err := pcap.DecodeTCP(pkt.Data)
		if err != nil {
			t.Fatal(err)
		}
		w := wrA
		if seg.Key.SrcIP&1 == 0 {
			w = wrB
		}
		if err := w.WritePacket(pkt); err != nil {
			t.Fatal(err)
		}
	}
	pathA = filepath.Join(dir, "a.pcap")
	pathB = filepath.Join(dir, "b.pcap")
	for path, buf := range map[string]*bytes.Buffer{pathA: &bufA, pathB: &bufB} {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return pathA, pathB
}

// newTestEngine builds a no-drop engine: backpressure mode with a queue
// far larger than any test's traffic and watermarks at 1.0, so the
// degradation ladder never engages and accounting is exact.
func newTestEngine(m *core.MFA, rec *matchRecorder) *engine.Engine {
	return engine.New(engine.Config{
		Shards: 4, QueueDepth: 1 << 14,
		SoftWatermark: 1, HardWatermark: 1,
	}, func() flow.Runner { return m.NewRunner() }, rec.record)
}

// TestMultiPcapParallelEqualsSequential is the PR's acceptance property:
// a flow-disjoint capture set scanned as concurrent sources produces the
// same per-flow match multiset as one sequential scan of the same bytes.
func TestMultiPcapParallelEqualsSequential(t *testing.T) {
	words := []string{"kabra", "kacem", "kadol"}
	m := buildMFA(t, "kabra.*kacem", "kadol")
	capture := synthCapture(t, 8, 20000, words, 7)
	pathA, pathB := splitCaptureByFlow(t, capture, t.TempDir())

	// Sequential baseline: one engine, frames fed in capture order.
	seqRec := &matchRecorder{}
	seq := newTestEngine(m, seqRec)
	pr, err := pcap.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	for {
		pkt, err := pr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := seq.HandleFrame(pkt.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := seq.Close(); err != nil {
		t.Fatal(err)
	}
	if seqRec.flowMatches() == nil || len(seqRec.flowMatches()) == 0 {
		t.Fatal("baseline found no matches; the property test would be vacuous")
	}

	// Parallel: both files as concurrent supervisor sources.
	parRec := &matchRecorder{}
	par := newTestEngine(m, parRec)
	sup := NewSupervisor(Config{Sink: par, QueueDepth: 16})
	sup.Add(NewPcapFile(pathA))
	sup.Add(NewPcapFile(pathB))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sup.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if err := par.Close(); err != nil {
		t.Fatal(err)
	}

	if !equalFlowMatches(seqRec.flowMatches(), parRec.flowMatches()) {
		t.Fatalf("parallel scan diverged from sequential:\nseq: %v\npar: %v",
			seqRec.flowMatches(), parRec.flowMatches())
	}
}

// TestPerSourceCountersSumToEngineTotals runs three concurrent sources —
// two capture files and a flaky in-memory source that restarts — into
// one engine with no drop paths enabled, and checks the supervisor's
// per-source accounting against the engine's own totals, and that the
// restarting source did not perturb its peers.
func TestPerSourceCountersSumToEngineTotals(t *testing.T) {
	m := buildMFA(t, "kabra")
	capture := synthCapture(t, 6, 8000, []string{"kabra"}, 11)
	pathA, pathB := splitCaptureByFlow(t, capture, t.TempDir())
	wantFrames, wantPayload := countCapture(t, capture)

	rec := &matchRecorder{}
	e := newTestEngine(m, rec)
	flaky := &memSource{name: "flaky", flows: [][]byte{make([]byte, 4096)}, failBefore: 2}
	useManualClock(t).Drive(t, shortWaits) // through flaky's backoffs
	sup := NewSupervisor(Config{Sink: e, QueueDepth: 8})
	sup.Add(NewPcapFile(pathA))
	sup.Add(NewPcapFile(pathB))
	sup.Add(flaky)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sup.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	st := e.Stats()
	var sumSegs, sumBytes, pcapSegs, pcapBytes int64
	for _, row := range sup.Stats() {
		sumSegs += row.Segments
		sumBytes += row.PayloadBytes
		if row.Kind == "pcap" {
			pcapSegs += row.Segments
			pcapBytes += row.PayloadBytes
			if row.Restarts != 0 || row.State != "done" {
				t.Fatalf("pcap source perturbed by flaky peer: %+v", row)
			}
		}
	}
	if sumSegs != st.Packets || sumBytes != st.PayloadBytes {
		t.Fatalf("per-source sums %d segs / %d bytes != engine totals %d / %d",
			sumSegs, sumBytes, st.Packets, st.PayloadBytes)
	}
	// The capture files delivered exactly their on-disk traffic.
	if pcapSegs != wantFrames || pcapBytes != wantPayload {
		t.Fatalf("pcap sources delivered %d/%d, capture holds %d/%d",
			pcapSegs, pcapBytes, wantFrames, wantPayload)
	}
	if flakySt := sup.Stats()[2]; flakySt.Restarts != 2 {
		t.Fatalf("flaky restarts: %+v", flakySt)
	}
	// The leases the sources took all came back: the engine released
	// every buffer it scanned.
	ast := sup.Arena().Stats()
	if ast.Leases != ast.Releases || ast.DoubleReleases != 0 {
		t.Fatalf("arena imbalance after drain: %+v", ast)
	}
}

// flappingSource is an infinite source that fails its first failBefore
// runs, then serves a burst of leased segments into the engine.
type flappingSource struct {
	name       string
	failBefore int32
	segs       int
	payload    string
	attempts   atomic.Int32
}

func (f *flappingSource) Describe() Description {
	return Description{Name: f.name, Kind: "mem", Detail: "test", Finite: false}
}

func (f *flappingSource) Run(ctx context.Context, em *Emitter) error {
	if f.attempts.Add(1) <= f.failBefore {
		return fmt.Errorf("flap %d", f.attempts.Load())
	}
	key := synthFlowKey(sourceIDs.Add(1), 1, nil, 80)
	for i := 0; i < f.segs; i++ {
		lease := em.Lease(len(f.payload))
		copy(lease.Data(), f.payload)
		seg := pcap.Segment{Key: key, Seq: uint32(i * len(f.payload)), Flags: pcap.FlagACK, Payload: lease.Data()}
		if err := em.Segment(seg, lease); err != nil {
			return err
		}
	}
	return nil
}

// TestFlappingSourceBreakerEndToEnd runs the full pipeline — supervisor,
// arena, engine — with a source that flaps past its restart budget: the
// breaker must open, probe half-open, and re-enter service; the burst it
// finally delivers is scanned end to end. The restart schedule (eight
// backoffs, then 10s and 20s open) passes on the manual clock.
func TestFlappingSourceBreakerEndToEnd(t *testing.T) {
	leakcheck.Check(t)
	useManualClock(t).Drive(t, guard.HealthyAfter) // every wait short of a health timer
	m := buildMFA(t, "attack")
	e := engine.New(engine.Config{Shards: 2, QueueDepth: 64},
		func() flow.Runner { return m.NewRunner() }, nil)
	const payload = "flapping source attack burst...."
	src := &flappingSource{name: "flap", failBefore: guard.FailureBudget + 2, segs: 64, payload: payload}
	sup := NewSupervisor(Config{Sink: e})
	sup.Add(src)
	if err := sup.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	row := sup.Stats()[0]
	if row.State != "done" || row.Breaker != "closed" {
		t.Fatalf("source did not re-enter service: %+v", row)
	}
	if row.BreakerOpens != 2 {
		t.Fatalf("BreakerOpens = %d, want 2 (budget spend + failed probe): %+v", row.BreakerOpens, row)
	}
	st := e.Stats()
	if want := int64(src.segs * len(payload)); st.PayloadBytes != want {
		t.Fatalf("engine scanned %d payload bytes, want %d", st.PayloadBytes, want)
	}
	if st.Matches == 0 {
		t.Fatal("delivered burst produced no matches")
	}
	if bal := sup.Arena().Stats(); bal.Leases != bal.Releases {
		t.Fatalf("lease imbalance after recovery: %+v", bal)
	}
	if got := st.Packets + st.QueueDrops + st.HardDrops + st.PoisonedDrops + st.UnhealthyDrops + st.WedgeDrops; got != row.Segments {
		t.Fatalf("accounting: engine accounted %d of %d segments (%+v)", got, row.Segments, st)
	}
}

// TestExpandPcaps covers the spec shapes: literal, glob, missing.
func TestExpandPcaps(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"x1.pcap", "x2.pcap"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte{}, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srcs, err := ExpandPcaps(filepath.Join(dir, "x*.pcap"))
	if err != nil || len(srcs) != 2 {
		t.Fatalf("glob: %d sources, err %v", len(srcs), err)
	}
	srcs, err = ExpandPcaps(filepath.Join(dir, "x1.pcap"))
	if err != nil || len(srcs) != 1 {
		t.Fatalf("literal: %d sources, err %v", len(srcs), err)
	}
	if _, err := ExpandPcaps(filepath.Join(dir, "missing.pcap")); err == nil {
		t.Fatal("missing path: want error")
	}
	srcs, err = ExpandPcaps("-")
	if err != nil || len(srcs) != 1 || srcs[0].Describe().Name != "pcap:stdin" {
		t.Fatalf("stdin: %v, err %v", srcs, err)
	}
}
