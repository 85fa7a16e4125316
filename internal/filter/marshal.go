package filter

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Serialization of filter programs, versioned alongside the DFA format:
//
//	v1: magic "MFFLT1\n", u32 numIDs, u32 memBits, u32 numRegs
//	    numIDs × action records (i16 test/set/clear/setpos/gapreg,
//	    i32 mingap, i32 report, i32 cleargroup)
//	    u32 numGroups, then per group: u32 count, count × (i16 word, u64 mask)
//
//	v2: magic "MFFLT2\n", u32 numIDs, u32 memBits, u32 numRegs, u32 numCtrs
//	    numIDs × wide action records (i16 test/set/clear/setpos/gapreg/
//	    setctr/testctr/resetctr, i32 mingap, i32 report, i32 cleargroup)
//	    numCtrs × (i32 minGap, i32 maxGap)
//	    u32 numGroups, groups as in v1
//
// Programs without counter registers are written in v1 so pre-counter
// images stay byte-identical; both versions are always readable.
const (
	programMagic   = "MFFLT1\n"
	programMagicV2 = "MFFLT2\n"
)

// ErrBadFormat is returned (wrapped) when decoding unrecognized or
// corrupt data.
var ErrBadFormat = errors.New("filter: bad serialized format")

// ErrHeaderRange is returned (wrapped, alongside ErrBadFormat) when a
// header declares dimensions outside what Action's int16 slots can
// address: memory bits above 1<<15, or register/counter counts above
// their addressable maxima. Such a header is not merely implausible — no
// valid action could ever reference the excess, and the allocation it
// demands is untrusted.
var ErrHeaderRange = errors.New("filter: header dimension exceeds addressable range")

// Addressable maxima: bits are 0-based int16 indices (memBits may reach
// 1<<15 since the highest bit index is 32767); registers and counters are
// 1-based int16 indices, so their counts are capped at 32767.
const (
	maxMemBits = 1 << 15
	maxRegs    = 1<<15 - 1
)

// actionRecord is the fixed-width on-disk form of Action in v1.
type actionRecord struct {
	Test, Set, Clear, SetPos, GapReg int16
	_                                int16
	MinGap                           int32
	Report                           int32
	ClearGroup                       int32
}

// actionRecordV2 is the wide on-disk form carrying the counter slots.
type actionRecordV2 struct {
	Test, Set, Clear, SetPos, GapReg, SetCtr, TestCtr, ResetCtr int16
	MinGap                                                      int32
	Report                                                      int32
	ClearGroup                                                  int32
}

// WriteTo serializes the program. It implements io.WriterTo.
func (p *Program) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	werr := func(v any) error { return binary.Write(bw, binary.LittleEndian, v) }
	n := func() int64 { return cw.n }

	v2 := len(p.counters) > 0
	magic := programMagic
	if v2 {
		magic = programMagicV2
	}
	if _, err := bw.WriteString(magic); err != nil {
		return n(), err
	}
	header := []uint32{uint32(len(p.actions)), uint32(p.memBits), uint32(p.numRegs)}
	if v2 {
		header = append(header, uint32(len(p.counters)))
	}
	if err := werr(header); err != nil {
		return n(), err
	}
	for _, a := range p.actions {
		var rec any
		if v2 {
			rec = actionRecordV2{
				Test: a.Test, Set: a.Set, Clear: a.Clear,
				SetPos: a.SetPos, GapReg: a.GapReg,
				SetCtr: a.SetCtr, TestCtr: a.TestCtr, ResetCtr: a.ResetCtr,
				MinGap: a.MinGap, Report: a.Report, ClearGroup: a.ClearGroup,
			}
		} else {
			rec = actionRecord{
				Test: a.Test, Set: a.Set, Clear: a.Clear,
				SetPos: a.SetPos, GapReg: a.GapReg,
				MinGap: a.MinGap, Report: a.Report, ClearGroup: a.ClearGroup,
			}
		}
		if err := werr(rec); err != nil {
			return n(), err
		}
	}
	if v2 {
		for _, c := range p.counters {
			if err := werr([]int32{c.MinGap, c.MaxGap}); err != nil {
				return n(), err
			}
		}
	}
	if err := werr(uint32(len(p.clearGroups))); err != nil {
		return n(), err
	}
	for _, ops := range p.clearGroups {
		if err := werr(uint32(len(ops))); err != nil {
			return n(), err
		}
		for _, op := range ops {
			if err := werr(op.Word); err != nil {
				return n(), err
			}
			if err := werr(op.Mask); err != nil {
				return n(), err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return n(), err
	}
	return n(), nil
}

// countingWriter tracks bytes written to the underlying writer.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// ReadProgram deserializes a program written by WriteTo (either version),
// re-validating every action so corrupt data cannot address out-of-range
// bits, registers or counters. It never reads past the end of the
// serialized program; callers should pass an already-buffered reader.
func ReadProgram(r io.Reader) (*Program, error) {
	br := r
	magic := make([]byte, len(programMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	var v2 bool
	switch string(magic) {
	case programMagic:
	case programMagicV2:
		v2 = true
	default:
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, magic)
	}
	headerLen := 3
	if v2 {
		headerLen = 4
	}
	header := make([]uint32, headerLen)
	if err := binary.Read(br, binary.LittleEndian, header); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadFormat, err)
	}
	numIDs, memBits, numRegs := header[0], header[1], header[2]
	var numCtrs uint32
	if v2 {
		numCtrs = header[3]
	}
	if numIDs == 0 || numIDs > 1<<20 {
		return nil, fmt.Errorf("%w: implausible header %v", ErrBadFormat, header)
	}
	// Action bit and register slots are int16: memory past bit 32767 and
	// registers past 32767 could never be referenced, so a header
	// declaring them is corrupt, not merely generous.
	if memBits > maxMemBits || numRegs > maxRegs {
		return nil, fmt.Errorf("%w: %w: header %v", ErrBadFormat, ErrHeaderRange, header)
	}
	if numCtrs > MaxCounters {
		return nil, fmt.Errorf("%w: %w: %d counters above %d", ErrBadFormat, ErrHeaderRange, numCtrs, MaxCounters)
	}

	p := NewProgramRegs(int(numIDs), int(memBits), int(numRegs))
	records := make([]actionRecordV2, numIDs)
	if v2 {
		if err := binary.Read(br, binary.LittleEndian, records); err != nil {
			return nil, fmt.Errorf("%w: actions: %v", ErrBadFormat, err)
		}
		for c := uint32(0); c < numCtrs; c++ {
			var bounds [2]int32
			if err := binary.Read(br, binary.LittleEndian, &bounds); err != nil {
				return nil, fmt.Errorf("%w: counter %d: %v", ErrBadFormat, c, err)
			}
			ctr := Counter{MinGap: bounds[0], MaxGap: bounds[1]}
			if err := checkCounter(ctr); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
			}
			p.counters = append(p.counters, ctr)
		}
		p.ctrLayout()
	} else {
		v1 := make([]actionRecord, numIDs)
		if err := binary.Read(br, binary.LittleEndian, v1); err != nil {
			return nil, fmt.Errorf("%w: actions: %v", ErrBadFormat, err)
		}
		for i, rec := range v1 {
			records[i] = actionRecordV2{
				Test: rec.Test, Set: rec.Set, Clear: rec.Clear,
				SetPos: rec.SetPos, GapReg: rec.GapReg,
				MinGap: rec.MinGap, Report: rec.Report, ClearGroup: rec.ClearGroup,
			}
		}
	}
	var numGroups uint32
	if err := binary.Read(br, binary.LittleEndian, &numGroups); err != nil {
		return nil, fmt.Errorf("%w: groups: %v", ErrBadFormat, err)
	}
	if numGroups > 1<<20 {
		return nil, fmt.Errorf("%w: %d clear groups", ErrBadFormat, numGroups)
	}

	for g := uint32(0); g < numGroups; g++ {
		var count uint32
		if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
			return nil, fmt.Errorf("%w: group %d: %v", ErrBadFormat, g, err)
		}
		words := (int(memBits) + 63) / 64
		if int(count) > words {
			return nil, fmt.Errorf("%w: group %d has %d ops", ErrBadFormat, g, count)
		}
		ops := make([]ClearOp, count)
		for i := range ops {
			if err := binary.Read(br, binary.LittleEndian, &ops[i].Word); err != nil {
				return nil, fmt.Errorf("%w: group %d: %v", ErrBadFormat, g, err)
			}
			if err := binary.Read(br, binary.LittleEndian, &ops[i].Mask); err != nil {
				return nil, fmt.Errorf("%w: group %d: %v", ErrBadFormat, g, err)
			}
			if int(ops[i].Word) >= words || ops[i].Word < 0 {
				return nil, fmt.Errorf("%w: group %d word %d", ErrBadFormat, g, ops[i].Word)
			}
		}
		p.clearGroups = append(p.clearGroups, ops)
	}

	// Validate every action eagerly against the decoded dimensions —
	// corrupt data surfaces as a descriptive decode error naming the
	// offending action and field, not a recovered panic.
	for id := 1; id < int(numIDs); id++ {
		rec := records[id]
		a := Action{
			Test: rec.Test, Set: rec.Set, Clear: rec.Clear,
			SetPos: rec.SetPos, GapReg: rec.GapReg,
			SetCtr: rec.SetCtr, TestCtr: rec.TestCtr, ResetCtr: rec.ResetCtr,
			MinGap: rec.MinGap, Report: rec.Report, ClearGroup: rec.ClearGroup,
		}
		if err := p.CheckAction(int32(id), a); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
		p.install(int32(id), a)
	}
	return p, nil
}
