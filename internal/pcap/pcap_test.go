package pcap

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	pkts := []Packet{
		{TsSec: 1, TsUsec: 100, Data: []byte{1, 2, 3}},
		{TsSec: 2, TsUsec: 200, Data: []byte{}},
		{TsSec: 3, TsUsec: 300, Data: bytes.Repeat([]byte{0xab}, 1500)},
	}
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType() != LinkTypeEthernet {
		t.Errorf("link type %d", r.LinkType())
	}
	for i, want := range pkts {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if got.TsSec != want.TsSec || got.TsUsec != want.TsUsec || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("packet %d mismatch", i)
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestReaderBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(make([]byte, 24))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
	if _, err := NewReader(bytes.NewReader([]byte{1, 2})); !errors.Is(err, ErrShortHeader) {
		t.Fatalf("want ErrShortHeader, got %v", err)
	}
}

func TestTCPEncodeDecodeRoundTrip(t *testing.T) {
	key := FlowKey{SrcIP: 0x0a000001, DstIP: 0xc0a80101, SrcPort: 12345, DstPort: 80}
	payload := []byte("GET / HTTP/1.1\r\n")
	frame := EncodeTCP(key, 4242, FlagACK|FlagPSH, payload)

	seg, err := DecodeTCP(frame)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Key != key {
		t.Errorf("key: got %v, want %v", seg.Key, key)
	}
	if seg.Seq != 4242 {
		t.Errorf("seq: %d", seg.Seq)
	}
	if seg.Flags != FlagACK|FlagPSH {
		t.Errorf("flags: %#x", seg.Flags)
	}
	if !bytes.Equal(seg.Payload, payload) {
		t.Errorf("payload mismatch: %q", seg.Payload)
	}
}

func TestDecodeNonTCP(t *testing.T) {
	// ARP ethertype.
	frame := EncodeTCP(FlowKey{}, 0, 0, nil)
	frame[12], frame[13] = 0x08, 0x06
	if _, err := DecodeTCP(frame); !errors.Is(err, ErrNotTCP) {
		t.Errorf("ARP: want ErrNotTCP, got %v", err)
	}
	// UDP protocol.
	frame = EncodeTCP(FlowKey{}, 0, 0, nil)
	frame[14+9] = 17
	if _, err := DecodeTCP(frame); !errors.Is(err, ErrNotTCP) {
		t.Errorf("UDP: want ErrNotTCP, got %v", err)
	}
	// Truncated.
	if _, err := DecodeTCP([]byte{1, 2, 3}); err == nil {
		t.Error("short frame should error")
	}
	// Corrupt IHL.
	frame = EncodeTCP(FlowKey{}, 0, 0, nil)
	frame[14] = 0x41
	if _, err := DecodeTCP(frame); err == nil {
		t.Error("bad IHL should error")
	}
}

func TestFlowKeyString(t *testing.T) {
	key := FlowKey{SrcIP: 0x0a000001, DstIP: 0xc0a80101, SrcPort: 1, DstPort: 2}
	want := "10.0.0.1:1->192.168.1.1:2"
	if got := key.String(); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestSynthesizeStructure(t *testing.T) {
	payloads := [][]byte{
		bytes.Repeat([]byte("alpha "), 100),
		bytes.Repeat([]byte("beta "), 200),
		bytes.Repeat([]byte("gamma "), 50),
	}
	var buf bytes.Buffer
	if err := Synthesize(&buf, payloads, 256, 0.1, 7); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	perFlow := map[FlowKey][]Segment{}
	syns, fins := 0, 0
	for {
		pkt, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		seg, err := DecodeTCP(pkt.Data)
		if err != nil {
			t.Fatal(err)
		}
		if seg.Flags&FlagSYN != 0 {
			syns++
		}
		if seg.Flags&FlagFIN != 0 {
			fins++
		}
		if len(seg.Payload) > 0 {
			perFlow[seg.Key] = append(perFlow[seg.Key], seg)
		}
	}
	if syns != len(payloads) || fins != len(payloads) {
		t.Errorf("syns=%d fins=%d, want %d each", syns, fins, len(payloads))
	}
	if len(perFlow) != len(payloads) {
		t.Fatalf("flows: %d", len(perFlow))
	}
	// Reassembling each flow by sequence number must reproduce its payload.
	for key, segs := range perFlow {
		buf := map[uint32][]byte{}
		total := 0
		for _, s := range segs {
			buf[s.Seq] = s.Payload
			total += len(s.Payload)
		}
		assembled := make([]byte, 0, total)
		seq := uint32(1)
		for len(assembled) < total {
			p, ok := buf[seq]
			if !ok {
				t.Fatalf("flow %v: gap at seq %d", key, seq)
			}
			assembled = append(assembled, p...)
			seq += uint32(len(p))
		}
		found := false
		for _, want := range payloads {
			if bytes.Equal(assembled, want) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("flow %v: reassembled payload matches no input", key)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	payloads := [][]byte{[]byte("hello world hello world")}
	var a, b bytes.Buffer
	if err := Synthesize(&a, payloads, 8, 0.3, 42); err != nil {
		t.Fatal(err)
	}
	if err := Synthesize(&b, payloads, 8, 0.3, 42); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("synthesis must be deterministic in seed")
	}
}

// TestTypedDecodeErrors pins the malformed-input contract: every way a
// frame can be cut short or lie about its own lengths yields a wrapped
// ErrTruncatedFrame (and never a panic), while non-TCP traffic stays
// distinguishable as ErrNotTCP.
func TestTypedDecodeErrors(t *testing.T) {
	k := FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}
	good := EncodeTCP(k, 1, FlagACK, []byte("payload"))
	if _, err := DecodeTCP(good); err != nil {
		t.Fatalf("control frame failed to decode: %v", err)
	}

	truncated := [][]byte{
		good[:5],                           // short ethernet
		good[:etherHdrLen+3],               // short IPv4
		good[:etherHdrLen+ipv4MinHdrLen+2], // short TCP
	}
	for i, f := range truncated {
		if _, err := DecodeTCP(f); !errors.Is(err, ErrTruncatedFrame) {
			t.Errorf("truncation %d: err = %v, want ErrTruncatedFrame", i, err)
		}
	}

	// Header fields inconsistent with the actual byte count.
	badIHL := append([]byte{}, good...)
	badIHL[etherHdrLen] = 0x4f // IHL 60 > frame
	if _, err := DecodeTCP(badIHL); !errors.Is(err, ErrTruncatedFrame) {
		t.Errorf("bad IHL: err = %v, want ErrTruncatedFrame", err)
	}
	badLen := append([]byte{}, good...)
	badLen[etherHdrLen+2] = 0xff // IPv4 total length beyond frame
	badLen[etherHdrLen+3] = 0xff
	if _, err := DecodeTCP(badLen); !errors.Is(err, ErrTruncatedFrame) {
		t.Errorf("bad total length: err = %v, want ErrTruncatedFrame", err)
	}
	badOff := append([]byte{}, good...)
	badOff[etherHdrLen+ipv4MinHdrLen+12] = 0xf0 // TCP data offset 60 > segment
	if _, err := DecodeTCP(badOff); !errors.Is(err, ErrTruncatedFrame) {
		t.Errorf("bad data offset: err = %v, want ErrTruncatedFrame", err)
	}

	notTCP := append([]byte{}, good...)
	notTCP[etherHdrLen+9] = 17 // UDP
	if _, err := DecodeTCP(notTCP); !errors.Is(err, ErrNotTCP) {
		t.Errorf("UDP: err = %v, want ErrNotTCP", err)
	}
}

// TestReaderTypedErrors pins the record-level contract: bad link types,
// implausible record lengths, and truncated record bodies each surface
// as their typed error.
func TestReaderTypedErrors(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WritePacket(Packet{Data: []byte{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	capture := buf.Bytes()

	// Non-Ethernet link type is refused up front.
	badLink := append([]byte{}, capture...)
	badLink[20] = 101 // LINKTYPE_RAW
	if _, err := NewReader(bytes.NewReader(badLink)); !errors.Is(err, ErrBadLinkType) {
		t.Errorf("bad link type: err = %v, want ErrBadLinkType", err)
	}

	// Record body cut short mid-stream.
	short := capture[:len(capture)-2]
	r, err := NewReader(bytes.NewReader(short))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrTruncatedFrame) {
		t.Errorf("truncated body: err = %v, want ErrTruncatedFrame", err)
	}

	// Implausible record length cannot be resynchronized.
	huge := append([]byte{}, capture...)
	huge[24+8] = 0xff // inclLen low byte (LE) — make it ~4 GB
	huge[24+9] = 0xff
	huge[24+10] = 0xff
	huge[24+11] = 0xff
	r, err = NewReader(bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrBadRecord) {
		t.Errorf("implausible length: err = %v, want ErrBadRecord", err)
	}
}

// TestReaderNextDoesNotAllocate pins that a Reader with an allocator
// installed reads a record without a heap allocation of its own: the
// record header lives in the Reader, not on Next's stack, where
// io.ReadFull's interface call would move it to the heap.
func TestReaderNextDoesNotAllocate(t *testing.T) {
	const runs = 100
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < runs+1; i++ { // AllocsPerRun warms up with one extra call
		if err := w.WritePacket(Packet{TsSec: uint32(i), Data: make([]byte, 96)}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 96)
	r.SetAlloc(func(n int) []byte { return body[:n] })
	if allocs := testing.AllocsPerRun(runs, func() {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Next allocates %v times per packet, want 0", allocs)
	}
}
