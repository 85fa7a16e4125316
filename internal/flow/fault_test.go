// Robustness tests for the assembler's quarantine and degradation
// surface (external test package: faultinject imports flow, so these
// tests cannot live in package flow).
package flow_test

import (
	"bytes"
	"testing"

	"matchfilter/internal/faultinject"
	"matchfilter/internal/flow"
	"matchfilter/internal/pcap"
	"matchfilter/internal/trace"
)

func fkey(i int) pcap.FlowKey {
	return pcap.FlowKey{SrcIP: uint32(i), DstIP: 0xc0a80101, SrcPort: uint16(1000 + i), DstPort: 80}
}

// countingRunner counts feeds and remembers total bytes.
type countingRunner struct{ feeds, bytes int }

func (r *countingRunner) Feed(data []byte, _ func(int32, int64)) { r.feeds++; r.bytes += len(data) }
func (r *countingRunner) Reset()                                 {}

// TestDropFlowExcisesWithoutPooling: DropFlow removes the flow and its
// runner never re-enters the pool (a poisoned runner must not serve a
// future flow).
func TestDropFlowExcisesWithoutPooling(t *testing.T) {
	allocs := 0
	a := flow.NewAssembler(flow.Config{}, func() flow.Runner { allocs++; return &countingRunner{} }, nil)

	a.HandleSegment(pcap.Segment{Key: fkey(1), Seq: 1, Flags: pcap.FlagACK, Payload: []byte("abc")})
	if !a.DropFlow(fkey(1)) {
		t.Fatal("DropFlow did not find the live flow")
	}
	if a.DropFlow(fkey(1)) {
		t.Fatal("DropFlow found an already-dropped flow")
	}
	if st := a.Stats(); st.Flows != 0 {
		t.Fatalf("flow still tracked after DropFlow: %+v", st)
	}
	// A new flow must get a fresh runner, not the suspect one.
	a.HandleSegment(pcap.Segment{Key: fkey(2), Seq: 1, Flags: pcap.FlagACK, Payload: []byte("xy")})
	if allocs != 2 {
		t.Errorf("allocs = %d, want 2 (dropped runner must not be pooled)", allocs)
	}
	if st := a.Stats(); st.RunnersReused != 0 {
		t.Errorf("suspect runner was reused: %+v", st)
	}
	// The quarantined flow's key can return as a brand-new flow.
	a.HandleSegment(pcap.Segment{Key: fkey(1), Seq: 50, Flags: pcap.FlagACK, Payload: []byte("z")})
	if st := a.Stats(); st.Flows != 2 || st.FlowsTotal != 3 {
		t.Errorf("re-adding a dropped key: %+v", st)
	}
}

// TestSetMaxBufferedShrinksEagerly: lowering the cap trims existing
// out-of-order buffers oldest-first with accounting, and raising it back
// restores capacity for future segments.
func TestSetMaxBufferedShrinksEagerly(t *testing.T) {
	r := &countingRunner{}
	a := flow.NewAssembler(flow.Config{}, func() flow.Runner { return r }, nil)
	a.SetMaxBuffered(8)
	k := fkey(1)
	// Establish origin at seq 1, then send 6 future segments (a gap at 2).
	a.HandleSegment(pcap.Segment{Key: k, Seq: 1, Flags: pcap.FlagACK, Payload: []byte("a")})
	for i := 0; i < 6; i++ {
		a.HandleSegment(pcap.Segment{Key: k, Seq: uint32(10 + i), Flags: pcap.FlagACK, Payload: []byte("b")})
	}
	if st := a.Stats(); st.OutOfOrder != 6 || st.DroppedSegs != 0 {
		t.Fatalf("setup: %+v", st)
	}
	a.SetMaxBuffered(2)
	if got := a.MaxBuffered(); got != 2 {
		t.Fatalf("MaxBuffered = %d, want 2", got)
	}
	if st := a.Stats(); st.DroppedSegs != 4 {
		t.Fatalf("eager trim dropped %d, want 4", st.DroppedSegs)
	}
	a.SetMaxBuffered(8)
	if st := a.Stats(); st.DroppedSegs != 4 {
		t.Fatalf("restoring the cap must not drop more: %+v", st)
	}
}

// TestAssemblerSurvivesMangledCapture: a deterministically mangled
// capture (truncation, corruption, reordering, drops) must never panic
// the assembler; malformed frames surface as typed errors and everything
// else is scanned.
func TestAssemblerSurvivesMangledCapture(t *testing.T) {
	payloads := make([][]byte, 6)
	for i := range payloads {
		payloads[i] = trace.TextLike(4<<10, int64(i+1), []string{"needle"}, 0.05)
	}
	var buf bytes.Buffer
	if err := pcap.Synthesize(&buf, payloads, 256, 0.1, 5); err != nil {
		t.Fatal(err)
	}
	pr, err := pcap.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Config{
		Seed: 17, TruncateProb: 0.2, CorruptProb: 0.2, ReorderProb: 0.1, DropProb: 0.05,
	})
	a := flow.NewAssembler(flow.Config{}, func() flow.Runner { return &countingRunner{} }, nil)
	var malformed int
	feed := func(frames [][]byte) {
		for _, f := range frames {
			if err := a.HandleFrame(f); err != nil {
				malformed++
			}
		}
	}
	for {
		pkt, err := pr.Next()
		if err != nil {
			break
		}
		feed(inj.Frame(pkt.Data))
	}
	feed(inj.Flush())
	ist := inj.Stats()
	if ist.Truncated == 0 || ist.Corrupted == 0 {
		t.Fatalf("schedule applied no faults: %+v", ist)
	}
	if malformed == 0 {
		t.Error("expected some malformed frames from a truncating schedule")
	}
	if st := a.Stats(); st.Packets == 0 {
		t.Errorf("nothing scanned: %+v", st)
	}
}
