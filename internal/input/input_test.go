// Shared test fixtures: an in-memory sink that honors the ownership
// contract, an in-memory source with scriptable failures, and small
// wait/synthesis helpers.
package input

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"matchfilter/internal/pcap"
	"matchfilter/internal/trace"
)

// collectSink records every accepted segment, releasing leases like the
// real engine does after its scan. Safe for concurrent delivery from
// many pumps.
type collectSink struct {
	mu       sync.Mutex
	segments int64
	bytes    int64
	payloads map[pcap.FlowKey][]byte // in-order payload concatenation
	fail     error                   // when set, reject everything
}

func newCollectSink() *collectSink {
	return &collectSink{payloads: make(map[pcap.FlowKey][]byte)}
}

func (c *collectSink) HandleSegmentOwned(seg pcap.Segment, owner pcap.Owner) error {
	c.mu.Lock()
	if c.fail != nil {
		err := c.fail
		c.mu.Unlock()
		if owner != nil {
			owner.Release()
		}
		return err
	}
	c.segments++
	c.bytes += int64(len(seg.Payload))
	if len(seg.Payload) > 0 {
		c.payloads[seg.Key] = append(c.payloads[seg.Key], seg.Payload...)
	}
	c.mu.Unlock()
	if owner != nil {
		owner.Release()
	}
	return nil
}

func (c *collectSink) counts() (segments, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.segments, c.bytes
}

func (c *collectSink) flowBytes(key pcap.FlowKey) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return bytes.Clone(c.payloads[key])
}

// memSource emits scripted flows through the leasing path, optionally
// failing its first failBefore Run attempts (transient) or permanently.
type memSource struct {
	name       string
	flows      [][]byte // one flow per payload
	chunk      int
	failBefore int  // Run attempts that fail before one succeeds
	permanent  bool // fail with Permanent instead

	attempts int32
	mu       sync.Mutex
}

func (m *memSource) Describe() Description {
	return Description{Name: m.name, Kind: "mem", Detail: "test", Finite: true}
}

func (m *memSource) Run(ctx context.Context, em *Emitter) error {
	m.mu.Lock()
	m.attempts++
	attempt := m.attempts
	m.mu.Unlock()
	if m.permanent {
		return Permanent(errors.New("scripted permanent failure"))
	}
	if int(attempt) <= m.failBefore {
		return errors.New("scripted transient failure")
	}
	chunk := m.chunk
	if chunk <= 0 {
		chunk = 512
	}
	srcID := sourceIDs.Add(1)
	for i, payload := range m.flows {
		fr := newFramer(synthFlowKey(srcID, uint32(i+1), nil, 7))
		if err := em.Segment(fr.syn(), nil); err != nil {
			return err
		}
		for off := 0; off < len(payload); off += chunk {
			end := off + chunk
			if end > len(payload) {
				end = len(payload)
			}
			lease := em.Lease(end - off)
			copy(lease.Data(), payload[off:end])
			if err := em.Segment(fr.data(lease.Data()), lease); err != nil {
				return err
			}
		}
		if err := em.Segment(fr.fin(), nil); err != nil {
			return err
		}
	}
	return nil
}

// segCount is the segment count a memSource's flows produce: SYN + data
// chunks + FIN per flow.
func (m *memSource) segCount() int64 {
	chunk := m.chunk
	if chunk <= 0 {
		chunk = 512
	}
	var n int64
	for _, payload := range m.flows {
		n += 2 + int64((len(payload)+chunk-1)/chunk)
	}
	return n
}

func (m *memSource) byteCount() int64 {
	var n int64
	for _, payload := range m.flows {
		n += int64(len(payload))
	}
	return n
}

// shortWaits is the Drive bound of tests that step the manual clock
// through waits they do not single out: every backoff (capped at 5s),
// admission re-check and pacing sleep, never a health timer (30s).
const shortWaits = 6 * time.Second

// waitFor polls cond until it holds or the deadline passes, yielding
// between polls: it waits on pipeline progress, never on a timer.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("timed out waiting for %s", what)
}

// synthCapture renders nFlows text-like flows as one capture.
func synthCapture(t testing.TB, nFlows, flowBytes int, words []string, seed int64) []byte {
	t.Helper()
	payloads := make([][]byte, nFlows)
	for i := range payloads {
		payloads[i] = trace.TextLike(flowBytes, seed+int64(i*37), words, 0.05)
	}
	var buf bytes.Buffer
	if err := pcap.Synthesize(&buf, payloads, 512, 0.05, seed); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// countCapture parses a capture and reports its frame count and total
// TCP payload bytes — the ground truth a lenient scan must account for.
func countCapture(t testing.TB, capture []byte) (frames, payload int64) {
	t.Helper()
	pr, err := pcap.NewReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	for {
		pkt, err := pr.Next()
		if err != nil {
			return frames, payload
		}
		frames++
		if seg, err := pcap.DecodeTCP(pkt.Data); err == nil {
			payload += int64(len(seg.Payload))
		}
	}
}
