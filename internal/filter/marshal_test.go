package filter

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

// buildProgram constructs a program with every action feature in use.
func buildProgram(t testing.TB) *Program {
	t.Helper()
	p := NewProgramRegs(8, 70, 2) // 70 bits: exercises the 2-word mask path
	g := p.AddClearGroup([]int16{0, 3, 64, 69})
	p.SetAction(1, Action{Test: NoBit, Set: 0, Clear: NoBit})
	p.SetAction(2, Action{Test: 0, Set: NoBit, Clear: NoBit, Report: 7})
	p.SetAction(3, Action{Test: NoBit, Set: NoBit, Clear: 69})
	p.SetAction(4, Action{Test: NoBit, Set: NoBit, Clear: NoBit, SetPos: 1})
	p.SetAction(5, Action{Test: NoBit, Set: NoBit, Clear: NoBit, GapReg: 1, MinGap: 12, Report: 9})
	p.SetAction(6, Action{Test: NoBit, Set: NoBit, Clear: NoBit, ClearGroup: g})
	return p
}

func TestProgramRoundTrip(t *testing.T) {
	p := buildProgram(t)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadProgram(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.actions) != len(p.actions) || q.memBits != p.memBits || q.numRegs != p.numRegs {
		t.Fatalf("dimensions: got (%d,%d,%d), want (%d,%d,%d)",
			len(q.actions), q.memBits, q.numRegs, len(p.actions), p.memBits, p.numRegs)
	}
	for id := range p.actions {
		if p.actions[id] != q.actions[id] {
			t.Errorf("action %d: got %+v, want %+v", id, q.actions[id], p.actions[id])
		}
	}
	if len(q.clearGroups) != len(p.clearGroups) {
		t.Fatalf("clear groups: %d vs %d", len(q.clearGroups), len(p.clearGroups))
	}
	for g := range p.clearGroups {
		if len(q.clearGroups[g]) != len(p.clearGroups[g]) {
			t.Fatalf("group %d op count", g)
		}
		for i := range p.clearGroups[g] {
			if p.clearGroups[g][i] != q.clearGroups[g][i] {
				t.Errorf("group %d op %d: %+v vs %+v", g, i, q.clearGroups[g][i], p.clearGroups[g][i])
			}
		}
	}
}

// corrupt writes v little-endian at off in a copy of data.
func corrupt(data []byte, off int, v int16) []byte {
	out := append([]byte{}, data...)
	binary.LittleEndian.PutUint16(out[off:], uint16(v))
	return out
}

// TestDecodeValidatesEagerly: each corrupted action field is rejected
// with a descriptive ErrBadFormat error that names the offending action
// — not a recovered panic, not a silent acceptance.
func TestDecodeValidatesEagerly(t *testing.T) {
	p := buildProgram(t)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Layout: magic(7) + header(12) + records(24 bytes each, id 0 first):
	// 5×int16 + pad + MinGap(4) + Report(4) + ClearGroup(4).
	const recBase = 7 + 12
	const recSize = 24
	rec := func(id int) int { return recBase + id*recSize }

	cases := []struct {
		name string
		data []byte
		want string // substring expected in the error
	}{
		{"bad test bit", corrupt(data, rec(1)+0, 70), "memory bit 70"},
		{"bad set bit", corrupt(data, rec(1)+2, -5), "memory bit -5"},
		{"bad clear bit", corrupt(data, rec(3)+4, 1000), "memory bit 1000"},
		{"bad setpos register", corrupt(data, rec(4)+6, 3), "register 3"},
		{"bad gap register", corrupt(data, rec(5)+8, -2), "register -2"},
		{"bad clear group", func() []byte {
			out := append([]byte{}, data...)
			binary.LittleEndian.PutUint32(out[rec(6)+20:], 99)
			return out
		}(), "clear group 99"},
		{"gap without mingap", func() []byte {
			out := append([]byte{}, data...)
			binary.LittleEndian.PutUint32(out[rec(5)+12:], 0) // MinGap = 0
			return out
		}(), "MinGap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadProgram(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("corrupt program decoded without error")
			}
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("err = %v, not ErrBadFormat", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err %q does not name the corruption (%q)", err, tc.want)
			}
		})
	}
}

// TestDecodeTruncated: cutting the stream at any byte yields a clean
// error, never a panic.
func TestDecodeTruncated(t *testing.T) {
	p := buildProgram(t)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		if _, err := ReadProgram(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(data))
		}
	}
}

// buildProgramV2 is buildProgram plus counter registers — two windowed, one
// open — forcing the v2 wire format.
func buildProgramV2(t testing.TB) *Program {
	t.Helper()
	p := NewProgramRegs(8, 70, 2)
	g := p.AddClearGroup([]int16{0, 3, 64, 69})
	c1 := p.AddCounter(3, 12)
	c2 := p.AddCounter(1, MaxCounterGap)
	c3 := p.AddCounter(2, OpenGap)
	p.SetAction(1, Action{Test: NoBit, Set: 0, Clear: NoBit, SetCtr: c1})
	p.SetAction(2, Action{Test: 0, Set: NoBit, Clear: NoBit, TestCtr: c1, Report: 7})
	p.SetAction(3, Action{Test: NoBit, Set: NoBit, Clear: 69, ResetCtr: c2})
	p.SetAction(4, Action{Test: NoBit, Set: NoBit, Clear: NoBit, SetPos: 1, SetCtr: c2})
	p.SetAction(5, Action{Test: NoBit, Set: NoBit, Clear: NoBit, GapReg: 1, MinGap: 12, Report: 9})
	p.SetAction(6, Action{Test: NoBit, Set: NoBit, Clear: NoBit, ClearGroup: g, ResetCtr: c3})
	p.SetAction(7, Action{Test: NoBit, Set: NoBit, Clear: NoBit, TestCtr: c3, SetCtr: c3, Report: 11})
	return p
}

func TestProgramRoundTripV2(t *testing.T) {
	p := buildProgramV2(t)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if got := string(buf.Bytes()[:7]); got != programMagicV2 {
		t.Fatalf("program with counters serialized with magic %q", got)
	}
	q, err := ReadProgram(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.actions) != len(p.actions) || q.memBits != p.memBits || q.numRegs != p.numRegs {
		t.Fatalf("dimensions: got (%d,%d,%d), want (%d,%d,%d)",
			len(q.actions), q.memBits, q.numRegs, len(p.actions), p.memBits, p.numRegs)
	}
	for id := range p.actions {
		if p.actions[id] != q.actions[id] {
			t.Errorf("action %d: got %+v, want %+v", id, q.actions[id], p.actions[id])
		}
	}
	if q.NumCounters() != p.NumCounters() || q.CountersLen() != p.CountersLen() {
		t.Fatalf("counters: got (%d,%d words), want (%d,%d words)",
			q.NumCounters(), q.CountersLen(), p.NumCounters(), p.CountersLen())
	}
	for i := range p.counters {
		if p.counters[i] != q.counters[i] {
			t.Errorf("counter %d: got %+v, want %+v", i, q.counters[i], p.counters[i])
		}
	}
}

// TestCounterFreeProgramStaysV1: programs without counters keep the v1
// magic so pre-counter images and readers stay compatible byte for byte.
func TestCounterFreeProgramStaysV1(t *testing.T) {
	p := buildProgram(t)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if got := string(buf.Bytes()[:7]); got != programMagic {
		t.Fatalf("counter-free program serialized with magic %q", got)
	}
}

// corrupt32 writes v little-endian at off in a copy of data.
func corrupt32(data []byte, off int, v uint32) []byte {
	out := append([]byte{}, data...)
	binary.LittleEndian.PutUint32(out[off:], v)
	return out
}

// TestDecodeHeaderRange: headers declaring dimensions beyond what the
// int16 action slots can address are rejected with ErrHeaderRange, in
// both wire versions. (Header layout: magic(7), then u32 numIDs, u32
// memBits, u32 numRegs[, u32 numCtrs].)
func TestDecodeHeaderRange(t *testing.T) {
	var v1, v2 bytes.Buffer
	if _, err := buildProgram(t).WriteTo(&v1); err != nil {
		t.Fatal(err)
	}
	if _, err := buildProgramV2(t).WriteTo(&v2); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"v1 memBits over int16", corrupt32(v1.Bytes(), 7+4, maxMemBits+1)},
		{"v1 numRegs over int16", corrupt32(v1.Bytes(), 7+8, maxRegs+1)},
		{"v2 memBits over int16", corrupt32(v2.Bytes(), 7+4, 1<<20)},
		{"v2 numRegs over int16", corrupt32(v2.Bytes(), 7+8, 1<<31)},
		{"v2 counters over cap", corrupt32(v2.Bytes(), 7+12, MaxCounters+1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadProgram(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("out-of-range header decoded without error")
			}
			if !errors.Is(err, ErrHeaderRange) {
				t.Fatalf("err = %v, not ErrHeaderRange", err)
			}
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("err = %v, not ErrBadFormat", err)
			}
		})
	}
	// The maxima themselves remain decodable header values (the header
	// checks are exclusive bounds; record validation still applies).
	ok := corrupt32(v1.Bytes(), 7+8, maxRegs)
	if _, err := ReadProgram(bytes.NewReader(ok)); err != nil {
		t.Fatalf("numRegs = maxRegs rejected: %v", err)
	}
}

// TestDecodeValidatesEagerlyV2: corrupted v2 counter bounds and action
// counter slots are rejected with descriptive ErrBadFormat errors.
func TestDecodeValidatesEagerlyV2(t *testing.T) {
	p := buildProgramV2(t)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Layout: magic(7) + header(16) + records(28 bytes each, id 0 first):
	// 8×int16 + MinGap(4) + Report(4) + ClearGroup(4); then counter
	// bounds (2×int32 each).
	const recBase = 7 + 16
	const recSize = 28
	rec := func(id int) int { return recBase + id*recSize }
	ctrBase := recBase + len(p.actions)*recSize

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"bad setctr slot", corrupt(data, rec(1)+10, 99), "counter 99"},
		{"bad testctr slot", corrupt(data, rec(2)+12, -3), "counter -3"},
		{"bad resetctr slot", corrupt(data, rec(3)+14, 4), "counter 4"},
		{"bad test bit", corrupt(data, rec(1)+0, 70), "memory bit 70"},
		{"zero counter mingap", corrupt32(data, ctrBase+0, 0), "counter window"},
		{"inverted counter window", corrupt32(data, ctrBase+4, 1), "counter window"},
		{"counter gap over cap", corrupt32(data, ctrBase+8+4, MaxCounterGap+1), "counter window"},
		{"counter gap one short of open", corrupt32(data, ctrBase+16+4, OpenGap-1), "counter window"},
		{"open counter with zero mingap", corrupt32(data, ctrBase+16+0, 0), "counter window"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadProgram(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("corrupt program decoded without error")
			}
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("err = %v, not ErrBadFormat", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err %q does not name the corruption (%q)", err, tc.want)
			}
		})
	}
}

// TestDecodeTruncatedV2: cutting a v2 stream at any byte yields a clean
// error, never a panic.
func TestDecodeTruncatedV2(t *testing.T) {
	p := buildProgramV2(t)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		if _, err := ReadProgram(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(data))
		}
	}
}

// FuzzReadProgramV2 fuzzes the program decoder from valid v1 and v2
// seeds: any mutation must either decode to a program whose every action
// applies cleanly (probed against fresh flow state) or fail with the
// typed ErrBadFormat — no panics, no out-of-range memory, register or
// counter accesses. What decodes also goes through the composer as the
// widest decision sets it allows — every id at once, and every id twice —
// and the composed programs must agree with the transcribed oracle visit
// by visit. Run by the CI fuzz-smoke job.
func FuzzReadProgramV2(f *testing.F) {
	for _, build := range []func(testing.TB) *Program{buildProgram, buildProgramV2} {
		p := build(f)
		var buf bytes.Buffer
		if _, err := p.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadProgram(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("non-typed decode error: %v", err)
			}
			return
		}
		// Whatever decoded must run: apply every action id at a few
		// positions against fresh per-flow state without panicking.
		m := p.NewMemory()
		regs := p.NewRegisters()
		cs := p.NewCounters()
		for id := int32(0); id < int32(p.NumIDs()); id++ {
			for _, pos := range []int64{0, 1, 100, 1 << 40} {
				p.ApplyAll(m, regs, cs, id, pos)
			}
		}
		if err := p.ValidateCounters(cs, 1<<40); err != nil {
			t.Fatalf("state produced by decoded program fails validation: %v", err)
		}
		ids := make([]int32, 0, 2*p.NumIDs())
		for twice := 0; twice < 2; twice++ {
			for id := int32(1); id < int32(p.NumIDs()); id++ {
				ids = append(ids, id)
			}
		}
		steps := []int64{0, 1, 1, 3, 95, 0, 1 << 40, 2}
		step := func() int64 { steps = steps[1:]; return steps[0] }
		checkComposed(t, "decoded program", p, [][]int32{ids[:len(ids)/2], ids}, []int{0, 1, 0, 0, 1, 1, 0}, step, false, false)
	})
}
