// Package pcap reads and writes classic libpcap capture files and
// encodes/decodes the Ethernet/IPv4/TCP framing the traces use. The
// paper's throughput experiments (Figure 4) run over packet-level .pcap
// traces, "not pre-assembled flows": this package supplies that substrate
// so the flow-reassembly path is exercised exactly as in the paper, with
// synthesized traces standing in for the unavailable DARPA/CDX/Nitroba
// captures (see DESIGN.md).
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MagicLE is the classic pcap magic number in little-endian byte order
// with microsecond timestamps.
const MagicLE = 0xa1b2c3d4

// LinkTypeEthernet is the only link type this package produces or
// understands.
const LinkTypeEthernet = 1

// SnapLen is the capture length written to generated files; packets are
// never truncated.
const SnapLen = 65535

// Typed errors for malformed captures. Hostile or damaged input is an
// expected condition for a DPI front-end, so every parse failure is a
// typed, wrapped error — never a panic — and callers can distinguish
// "skip this record and keep going" from "the stream is unusable".
var (
	// ErrBadMagic means the global header is not a classic pcap header;
	// the stream is unusable.
	ErrBadMagic = errors.New("pcap: unrecognized magic number")
	// ErrShortHeader means the global header was truncated; the stream
	// is unusable.
	ErrShortHeader = errors.New("pcap: truncated header")
	// ErrBadLinkType means the capture's link type is not Ethernet, the
	// only framing this package decodes.
	ErrBadLinkType = errors.New("pcap: unsupported link type")
	// ErrTruncatedFrame wraps any frame cut short of its declared or
	// minimum length — a truncated record body at end of stream, or an
	// Ethernet/IPv4/TCP frame shorter than its headers claim.
	ErrTruncatedFrame = errors.New("pcap: truncated frame")
	// ErrBadRecord wraps a per-packet record header whose fields are
	// implausible (e.g. a multi-gigabyte length); the stream cannot be
	// resynchronized past it.
	ErrBadRecord = errors.New("pcap: bad packet record")
)

// Packet is one captured frame with its capture timestamp.
type Packet struct {
	TsSec  uint32
	TsUsec uint32
	Data   []byte
}

// Owner is the release hook of a leased payload buffer. Front-ends that
// lease frame buffers from a pool (internal/input's arena) pass the
// lease along with the decoded segment; the consumer — internal/engine's
// shards — calls Release exactly once, after the payload bytes can no
// longer be referenced (the assembler copies any bytes it must retain,
// so "after HandleSegment returned" is that point). A nil Owner means
// the buffer is garbage-collected, which is the legacy allocate-per-
// packet path.
type Owner interface{ Release() }

// Writer emits a classic pcap stream.
type Writer struct {
	w     io.Writer
	wrote bool
}

// NewWriter returns a Writer that will lazily emit the global header
// before the first packet.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

func (pw *Writer) writeGlobalHeader() error {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], MagicLE)
	binary.LittleEndian.PutUint16(hdr[4:], 2) // version major
	binary.LittleEndian.PutUint16(hdr[6:], 4) // version minor
	binary.LittleEndian.PutUint32(hdr[16:], SnapLen)
	binary.LittleEndian.PutUint32(hdr[20:], LinkTypeEthernet)
	_, err := pw.w.Write(hdr[:])
	return err
}

// WritePacket appends one frame.
func (pw *Writer) WritePacket(p Packet) error {
	if !pw.wrote {
		if err := pw.writeGlobalHeader(); err != nil {
			return fmt.Errorf("pcap: global header: %w", err)
		}
		pw.wrote = true
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], p.TsSec)
	binary.LittleEndian.PutUint32(hdr[4:], p.TsUsec)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(p.Data)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(p.Data)))
	if _, err := pw.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcap: packet header: %w", err)
	}
	if _, err := pw.w.Write(p.Data); err != nil {
		return fmt.Errorf("pcap: packet data: %w", err)
	}
	return nil
}

// GlobalHeaderLen and RecordHeaderLen size the two headers of the format.
const (
	GlobalHeaderLen = 24
	RecordHeaderLen = 16
)

// maxRecordLen is the largest frame a record may claim; a longer one is a
// corrupt header, not a packet.
const maxRecordLen = 16 << 20

// ParseGlobalHeader validates a capture's global header (GlobalHeaderLen
// bytes) and returns the byte order its records are written in. Both byte
// orders are accepted; a foreign magic or a non-Ethernet link type makes
// the stream unusable.
func ParseGlobalHeader(hdr []byte) (binary.ByteOrder, error) {
	var order binary.ByteOrder
	switch magic := binary.LittleEndian.Uint32(hdr[0:]); magic {
	case MagicLE:
		order = binary.LittleEndian
	case 0xd4c3b2a1:
		order = binary.BigEndian
	default:
		return nil, fmt.Errorf("%w: %#x", ErrBadMagic, magic)
	}
	if lt := order.Uint32(hdr[20:]); lt != LinkTypeEthernet {
		return nil, fmt.Errorf("%w: %d (only Ethernet/%d is supported)", ErrBadLinkType, lt, LinkTypeEthernet)
	}
	return order, nil
}

// RecordLen validates one record header (RecordHeaderLen bytes) and
// returns the length of the frame that follows it. A stream cannot be
// resynchronized past a header that fails here.
func RecordLen(order binary.ByteOrder, hdr []byte) (int, error) {
	inclLen := order.Uint32(hdr[8:])
	if inclLen > maxRecordLen {
		return 0, fmt.Errorf("%w: implausible packet length %d", ErrBadRecord, inclLen)
	}
	return int(inclLen), nil
}

// Reader parses a classic pcap stream.
type Reader struct {
	r         io.Reader
	byteOrder binary.ByteOrder
	linkType  uint32
	alloc     func(int) []byte
	// hdr holds the record header Next reads. It lives here rather than
	// on Next's stack because io.ReadFull's interface call would move a
	// local to the heap on every packet.
	hdr [RecordHeaderLen]byte
}

// NewReader validates the global header and returns a packet reader.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [GlobalHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrShortHeader, err)
	}
	order, err := ParseGlobalHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	return &Reader{r: r, byteOrder: order, linkType: order.Uint32(hdr[20:])}, nil
}

// LinkType returns the capture's link type.
func (pr *Reader) LinkType() uint32 { return pr.linkType }

// SetAlloc installs the allocator Next uses for packet bodies, letting
// callers serve Packet.Data from a leased pool buffer instead of a fresh
// allocation per record. alloc is called at most once per Next call;
// when the record body read fails afterwards, the returned Packet is
// empty and the caller owns reclaiming the leased buffer.
func (pr *Reader) SetAlloc(alloc func(int) []byte) { pr.alloc = alloc }

// Next returns the next packet, or io.EOF at the end of the stream.
func (pr *Reader) Next() (Packet, error) {
	hdr := pr.hdr[:]
	if _, err := io.ReadFull(pr.r, hdr); err != nil {
		if errors.Is(err, io.EOF) {
			return Packet{}, io.EOF
		}
		return Packet{}, fmt.Errorf("%w: packet record header: %v", ErrTruncatedFrame, err)
	}
	inclLen, err := RecordLen(pr.byteOrder, hdr)
	if err != nil {
		return Packet{}, err
	}
	var data []byte
	if pr.alloc != nil {
		data = pr.alloc(inclLen)
	} else {
		data = make([]byte, inclLen)
	}
	if _, err := io.ReadFull(pr.r, data); err != nil {
		return Packet{}, fmt.Errorf("%w: packet body: %v", ErrTruncatedFrame, err)
	}
	return Packet{
		TsSec:  pr.byteOrder.Uint32(hdr[0:]),
		TsUsec: pr.byteOrder.Uint32(hdr[4:]),
		Data:   data,
	}, nil
}
