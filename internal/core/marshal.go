package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"matchfilter/internal/dfa"
	"matchfilter/internal/filter"
)

// Serialization of compiled MFAs: a header, the character DFA and the
// filter program, so engines can be compiled once (cmd/mfabuild -o) and
// loaded by scanners without reparsing or re-running subset construction.
const mfaMagic = "MFAUT1\n"

// ErrBadFormat is returned (wrapped) when decoding unrecognized or
// corrupt data.
var ErrBadFormat = errors.New("core: bad serialized format")

// WriteTo serializes the compiled automaton. It implements io.WriterTo.
// Construction statistics are not preserved — a loaded engine reports
// zero build time and split counters, but identical matching behaviour
// and sizes.
func (m *MFA) WriteTo(w io.Writer) (int64, error) {
	var total int64
	n, err := io.WriteString(w, mfaMagic)
	total += int64(n)
	if err != nil {
		return total, err
	}
	n64, err := m.engine.DFA().WriteTo(w)
	total += n64
	if err != nil {
		return total, err
	}
	n64, err = m.prog.WriteTo(w)
	total += n64
	return total, err
}

// ReadMFA deserializes an automaton written by WriteTo. The stream is
// buffered once here and handed to the section readers, which read
// exactly their own bytes.
func ReadMFA(r io.Reader) (*MFA, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	return readMFA(br)
}

func readMFA(r io.Reader) (*MFA, error) {
	magic := make([]byte, len(mfaMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if string(magic) != mfaMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, magic)
	}
	d, err := dfa.ReadDFA(r)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	prog, err := filter.ReadProgram(r)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Cross-validate: every decision-set id must have an action slot.
	for s := d.AcceptStart(); s < uint32(d.NumStates()); s++ {
		for _, id := range d.Matches(s) {
			if id <= 0 || int(id) >= prog.NumIDs() {
				return nil, fmt.Errorf("%w: decision id %d outside program (%d ids)",
					ErrBadFormat, id, prog.NumIDs())
			}
		}
	}
	return newMFA(d, prog, BuildStats{MemBits: prog.MemBits()}), nil
}

// writeString writes a length-prefixed string; readString reverses it.
// Used by the public API to persist pattern sources alongside the
// automaton.
func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader, maxLen int) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if int(n) > maxLen {
		return "", fmt.Errorf("%w: string length %d", ErrBadFormat, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// WriteStrings persists a list of pattern sources.
func WriteStrings(w io.Writer, ss []string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(ss))); err != nil {
		return err
	}
	for _, s := range ss {
		if err := writeString(w, s); err != nil {
			return err
		}
	}
	return nil
}

// ReadStrings reverses WriteStrings.
func ReadStrings(r io.Reader) ([]string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("%w: %d strings", ErrBadFormat, n)
	}
	out := make([]string, n)
	for i := range out {
		s, err := readString(r, 1<<20)
		if err != nil {
			return nil, fmt.Errorf("%w: string %d: %v", ErrBadFormat, i, err)
		}
		out[i] = s
	}
	return out, nil
}
