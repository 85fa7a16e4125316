package pcap

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzPcapParse drives arbitrary bytes through the full capture parse
// path — NewReader, Next, DecodeTCP. The property under test is the
// package's robustness contract: hostile input never panics and every
// parse failure is one of the typed sentinels, so callers can always
// classify what went wrong.
func FuzzPcapParse(f *testing.F) {
	// Seed with a small valid capture so mutations explore the
	// near-valid space where parser bugs live.
	key := FlowKey{SrcIP: 0x0a000001, DstIP: 0xc0a80101, SrcPort: 40000, DstPort: 80}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WritePacket(Packet{Data: EncodeTCP(key, 1, FlagSYN, nil)}); err != nil {
		f.Fatal(err)
	}
	if err := w.WritePacket(Packet{Data: EncodeTCP(key, 1, FlagACK|FlagPSH, []byte("hello fuzzer"))}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // truncated record body
	f.Add(valid[:24])           // header only
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		pr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrShortHeader) && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrBadLinkType) {
				t.Fatalf("untyped NewReader error: %v", err)
			}
			return
		}
		for {
			pkt, err := pr.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				if !errors.Is(err, ErrTruncatedFrame) && !errors.Is(err, ErrBadRecord) {
					t.Fatalf("untyped Next error: %v", err)
				}
				return
			}
			if _, err := DecodeTCP(pkt.Data); err != nil {
				if !errors.Is(err, ErrNotTCP) && !errors.Is(err, ErrTruncatedFrame) {
					t.Fatalf("untyped DecodeTCP error: %v", err)
				}
			}
		}
	})
}
