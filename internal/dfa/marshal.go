package dfa

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Serialization of compiled automata. The format is a simple
// little-endian framing, versioned so stored engines fail loudly rather
// than misbehave after an incompatible change.
//
// Version 2 (the only version WriteTo emits):
//
//	magic "MFDFA2\n", u32 numStates, u32 start, u32 acceptStart
//	u8 layout code, u32 numClasses
//	code 1 (classed, the only code WriteTo emits): 256 × u8 byte→class map
//	code 0 (flat, read only): no map; numClasses is 256, the identity
//	u32 tableLen — must equal numStates × numClasses (ErrTableSize)
//	tableLen × u32 transition table, plain state numbers
//	u32 numAccept, then per accepting state: u32 count, count × i32 ids
//
// Version 3 (read only): magic "MFDFA3\n" and the v2 body with layout
// code 2 allowed. It was written for the removed 2-byte-stride layout
// (DESIGN.md §18), whose pair table never travelled — the body is the
// classed automaton, and loads as one.
//
// Version 1 (read only, flat, so images written by older mfabuild
// binaries keep loading):
//
//	magic "MFDFA1\n", u32 numStates, u32 start, u32 acceptStart
//	numStates*256 × u32 transition table
//	u32 numAccept, then per accepting state: u32 count, count × i32 ids
const (
	dfaMagicV1 = "MFDFA1\n"
	dfaMagicV2 = "MFDFA2\n"
	dfaMagicV3 = "MFDFA3\n"
)

// Layout wire codes of the v2/v3 header. Flat images (code 0, and all of
// v1) load as 256-class tables under the identity map.
const (
	wireFlat    = 0 // read only
	wireClassed = 1
	wirePairs   = 2 // v3 only: a classed body
)

// ErrBadFormat is returned (wrapped) when decoding unrecognized or
// corrupt data.
var ErrBadFormat = errors.New("dfa: bad serialized format")

// ErrTableSize is returned (wrapped, alongside ErrBadFormat) when a
// serialized transition table's declared length disagrees with
// numStates × numClasses. Before the explicit length field, such a
// mismatch silently shifted the decode frame and produced an automaton
// that misbehaved at scan time; now it is a typed decode failure, in the
// style of the internal/pcap error taxonomy.
var ErrTableSize = errors.New("dfa: transition table size mismatch")

// WriteTo serializes the automaton in the v2 format. It implements
// io.WriterTo. An internally inconsistent receiver (table length not
// equal to numStates × numClasses — impossible for automata built by this
// package, but conceivable for a hand-assembled one) is rejected with
// ErrTableSize rather than written as an undecodable stream.
func (d *DFA) WriteTo(w io.Writer) (int64, error) {
	if len(d.trans) != d.numStates*d.numClasses {
		return 0, fmt.Errorf("%w: table has %d entries, want %d states × %d classes = %d",
			ErrTableSize, len(d.trans), d.numStates, d.numClasses, d.numStates*d.numClasses)
	}
	cw := &countingWriter{w: bufio.NewWriterSize(w, 1<<16)}
	write := func(v any) {
		if cw.err == nil {
			cw.err = binary.Write(cw, binary.LittleEndian, v)
		}
	}
	if _, err := cw.Write([]byte(dfaMagicV2)); err != nil {
		return cw.n, err
	}
	write(uint32(d.numStates))
	write(d.start)
	write(d.acceptStart)
	write(uint8(wireClassed))
	write(uint32(d.numClasses))
	write(d.classOf)
	// The wire format always carries plain state numbers: tables are
	// unscaled on encode and rescaled on decode, keeping stored images
	// portable and the per-entry bounds check meaningful.
	write(uint32(len(d.trans)))
	write(d.plainTable())
	write(uint32(len(d.accepts)))
	for _, ids := range d.accepts {
		write(uint32(len(ids)))
		write(ids)
	}
	if cw.err == nil {
		cw.err = cw.w.(*bufio.Writer).Flush()
	}
	return cw.n, cw.err
}

// ReadDFA deserializes an automaton written by WriteTo, now or by any
// earlier release (format versions 1 to 3), validating structural
// invariants so a corrupt file cannot produce out-of-range states or
// classes at scan time.
//
// ReadDFA never reads past the end of the serialized automaton, so it
// composes with further sections on the same stream; callers should pass
// an already-buffered reader (it performs many small reads).
func ReadDFA(r io.Reader) (*DFA, error) {
	magic := make([]byte, len(dfaMagicV2))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	var version int
	switch string(magic) {
	case dfaMagicV1:
		version = 1
	case dfaMagicV2:
		version = 2
	case dfaMagicV3:
		version = 3
	default:
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, magic)
	}

	var numStates, start, acceptStart uint32
	for _, v := range []*uint32{&numStates, &start, &acceptStart} {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("%w: header: %v", ErrBadFormat, err)
		}
	}
	// Engines beyond twice the default construction budget are rejected:
	// the bound keeps a corrupt header from demanding a multi-gigabyte
	// allocation before any data is validated, and implies the pre-scale
	// invariant (2¹⁸ states × at most 2⁸ classes < 2³², see classes.go).
	const maxStates = 2 * DefaultMaxStates
	if numStates == 0 || numStates > maxStates ||
		start >= numStates || acceptStart > numStates {
		return nil, fmt.Errorf("%w: implausible header (states=%d start=%d acceptStart=%d)",
			ErrBadFormat, numStates, start, acceptStart)
	}
	d := &DFA{
		numStates:   int(numStates),
		start:       start,
		numClasses:  256,
		classOf:     identityClasses[:], // v1 and v2-flat carry no map
		acceptStart: acceptStart,
	}

	declaredLen := int(numStates) * 256
	if version >= 2 {
		var layout uint8
		if err := binary.Read(r, binary.LittleEndian, &layout); err != nil {
			return nil, fmt.Errorf("%w: layout: %v", ErrBadFormat, err)
		}
		var numClasses uint32
		if err := binary.Read(r, binary.LittleEndian, &numClasses); err != nil {
			return nil, fmt.Errorf("%w: class count: %v", ErrBadFormat, err)
		}
		switch layout {
		case wireFlat:
			if numClasses != 256 {
				return nil, fmt.Errorf("%w: flat layout with %d classes", ErrBadFormat, numClasses)
			}
		case wireClassed, wirePairs:
			if layout == wirePairs && version < 3 {
				return nil, fmt.Errorf("%w: layout code %d in a v%d stream", ErrBadFormat, layout, version)
			}
			if numClasses == 0 || numClasses > 256 {
				return nil, fmt.Errorf("%w: implausible class count %d", ErrBadFormat, numClasses)
			}
			d.numClasses = int(numClasses)
			d.classOf = make([]uint8, 256)
			if _, err := io.ReadFull(r, d.classOf); err != nil {
				return nil, fmt.Errorf("%w: class map: %v", ErrBadFormat, err)
			}
			for b, c := range d.classOf {
				if int(c) >= d.numClasses {
					return nil, fmt.Errorf("%w: byte %#x maps to class %d of %d", ErrBadFormat, b, c, d.numClasses)
				}
			}
		default:
			return nil, fmt.Errorf("%w: unknown layout code %d", ErrBadFormat, layout)
		}
		var tableLen uint32
		if err := binary.Read(r, binary.LittleEndian, &tableLen); err != nil {
			return nil, fmt.Errorf("%w: table length: %v", ErrBadFormat, err)
		}
		if int(tableLen) != int(numStates)*d.numClasses {
			return nil, fmt.Errorf("%w: %w: declared %d entries, want %d states × %d classes = %d",
				ErrBadFormat, ErrTableSize, tableLen, numStates, d.numClasses, int(numStates)*d.numClasses)
		}
		declaredLen = int(tableLen)
	}

	// Read the table in bounded chunks, growing with the data actually
	// present, so a corrupt header on a truncated stream fails after at
	// most one chunk instead of allocating the full claimed table.
	d.trans = make([]uint32, 0, min(declaredLen, 1<<18))
	chunk := make([]uint32, 1<<18)
	for len(d.trans) < declaredLen {
		k := min(declaredLen-len(d.trans), len(chunk))
		if err := binary.Read(r, binary.LittleEndian, chunk[:k]); err != nil {
			return nil, fmt.Errorf("%w: transition table: %v", ErrBadFormat, err)
		}
		d.trans = append(d.trans, chunk[:k]...)
	}
	for _, to := range d.trans {
		if to >= numStates {
			return nil, fmt.Errorf("%w: transition to state %d of %d", ErrBadFormat, to, numStates)
		}
	}
	// Restore the in-memory pre-scaled form (entries are row bases).
	for i := range d.trans {
		d.trans[i] *= uint32(d.numClasses)
	}
	var numAccept uint32
	if err := binary.Read(r, binary.LittleEndian, &numAccept); err != nil {
		return nil, fmt.Errorf("%w: accept count: %v", ErrBadFormat, err)
	}
	if numAccept != numStates-acceptStart {
		return nil, fmt.Errorf("%w: accept count %d != %d", ErrBadFormat, numAccept, numStates-acceptStart)
	}
	d.accepts = make([][]int32, numAccept)
	for i := range d.accepts {
		var count uint32
		if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
			return nil, fmt.Errorf("%w: accept set %d: %v", ErrBadFormat, i, err)
		}
		if count == 0 || count > 1<<20 {
			return nil, fmt.Errorf("%w: accept set %d has %d ids", ErrBadFormat, i, count)
		}
		ids := make([]int32, count)
		if err := binary.Read(r, binary.LittleEndian, ids); err != nil {
			return nil, fmt.Errorf("%w: accept set %d: %v", ErrBadFormat, i, err)
		}
		d.accepts[i] = ids
	}
	return d, nil
}

// countingWriter tracks bytes written and latches the first error.
type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	if cw.err != nil {
		return 0, cw.err
	}
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	cw.err = err
	return n, err
}
