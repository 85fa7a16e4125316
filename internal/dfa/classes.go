package dfa

import "fmt"

// Byte-class (alphabet equivalence-class) compression of the transition
// table. Two input bytes are equivalent iff every state maps them to the
// same successor; security pattern sets distinguish far fewer than 256
// byte behaviours (case-folded letters, digits, the handful of separator
// bytes the rules mention, and "everything else"), so the 256-wide flat
// rows are mostly duplicate columns. The classed layout stores the
// quotient: a 256-byte class map plus a numStates × numClasses table.
// Scanning pays one extra L1-resident load per byte
// (trans[st+classOf[b]] instead of trans[state*256+b]) in exchange for a
// table that is typically 5–20× smaller and therefore actually cacheable
// as state counts grow — the Hyperflex observation that cache-conscious
// layout, not instruction count, dominates software DPI throughput.
//
// Classed table entries are PRE-SCALED: they store next*numClasses, the
// row base of the successor, not the state number itself. The per-byte
// step is then a single add (st + classOf[b]) with no multiply on the
// loop-carried dependency chain, matching the flat loop's shift. Every
// API that exposes state numbers (Next, State/SetState, Matches, the
// wire format) converts at the boundary, so state numbering stays a
// property of the automaton, never of the layout.

// Layout selects the transition-table representation of a DFA.
type Layout uint8

const (
	// LayoutAuto lets the constructor choose: byte-class compression is
	// applied when it shrinks the table at least 2× (numClasses ≤ 128),
	// otherwise the flat layout is kept. Every shipped pattern set
	// compresses far better than 2×, so Auto means Classed in practice;
	// the escape hatch exists for adversarial sets where the class map's
	// extra load would buy nothing.
	LayoutAuto Layout = iota
	// LayoutFlat stores the full numStates × 256 row-major table:
	// one load per input byte.
	LayoutFlat
	// LayoutClassed stores a 256-byte class map and a numStates ×
	// numClasses table: two dependent loads per input byte, the first of
	// which hits a single always-cached 256-byte array.
	LayoutClassed
	// LayoutClassed2 extends the classed layout with a 2-byte-stride
	// table: a numStates × numClasses² table whose entry for (state,
	// class₁, class₂) is the state reached after consuming both bytes,
	// so the loop-carried dependency chain is one table load per *two*
	// input bytes. The 1-byte classed table is kept alongside it for
	// odd-length tails at Feed-chunk boundaries and for the rare
	// accepting pairs (see pairtable.go). Explicit opt-in only: the pair
	// table is numClasses× larger than the classed one, so LayoutAuto
	// never chooses it, and sets whose pair table would exceed
	// Classed2MaxTableBytes fall back to LayoutClassed (check the built
	// DFA's Layout()).
	LayoutClassed2
)

// String names the layout for stats, telemetry and reports.
func (l Layout) String() string {
	switch l {
	case LayoutAuto:
		return "auto"
	case LayoutFlat:
		return "flat"
	case LayoutClassed:
		return "classed"
	case LayoutClassed2:
		return "classed2"
	default:
		return "unknown"
	}
}

// ParseLayout resolves a layout name as used by command-line flags and
// reports ("auto", "flat", "classed", "classed2").
func ParseLayout(s string) (Layout, error) {
	switch s {
	case "", "auto":
		return LayoutAuto, nil
	case "flat":
		return LayoutFlat, nil
	case "classed":
		return LayoutClassed, nil
	case "classed2":
		return LayoutClassed2, nil
	}
	return LayoutAuto, fmt.Errorf("dfa: unknown layout %q (want auto, flat, classed or classed2)", s)
}

// autoClassThreshold is the LayoutAuto cutoff: compression is kept when
// numClasses ≤ 128, i.e. the table shrinks at least 2×.
const autoClassThreshold = 128

// computeClasses partitions the columns of a row-major table with the
// given row width into equivalence classes: classOf[c1] == classOf[c2]
// iff trans[r*width+c1] == trans[r*width+c2] for every row r. Over a flat
// (256-wide) transition table the columns are bytes and the result is the
// byte-class map; over class-width rows it says which of the
// constructor's alphabet classes no state tells apart. Classes are
// numbered deterministically by first occurrence (classOf[0] == 0), so
// identical automata always produce identical maps.
//
// The partition is refined one row at a time: after processing row r,
// two columns share a class iff they agreed on rows 0..r. Each step is
// exact, so a single pass over all rows yields the full equivalence. A
// row that splits no class — almost all of them, since at most width-1
// rows can — costs one compare per column against its class's first
// column; the loop exits early once every column is its own class.
func computeClasses(trans []uint32, width int) (classOf []uint8, numClasses int) {
	cur := make([]int, width) // all columns start equivalent
	next := make([]int, width)
	first := make([]int, width) // first column of each class
	numClasses = 1
	for base := 0; base+width <= len(trans) && numClasses < width; base += width {
		row := trans[base : base+width]
		splits := false
		for c, to := range row {
			if to != row[first[cur[c]]] {
				splits = true
				break
			}
		}
		if !splits {
			continue
		}
		n := 0
		for c, to := range row {
			id := -1
			for j := 0; j < n; j++ {
				if f := first[j]; cur[f] == cur[c] && row[f] == to {
					id = j
					break
				}
			}
			if id < 0 {
				id = n
				first[n] = c
				n++
			}
			next[c] = id
		}
		cur, next = next, cur
		numClasses = n
	}
	classOf = make([]uint8, width)
	for c, id := range cur {
		classOf[c] = uint8(id)
	}
	return classOf, numClasses
}

// plainTable returns the transition table in the receiver's own row
// width with plain state numbers as entries: the table itself for the
// flat layout, an unscaled copy for the classed ones.
func (d *DFA) plainTable() []uint32 {
	if d.classOf == nil {
		return d.trans
	}
	plain := make([]uint32, len(d.trans))
	for i, to := range d.trans {
		plain[i] = to / uint32(d.numClasses)
	}
	return plain
}

// compressed returns the byte-class form of a DFA: the exact column
// quotient of its table, whichever layout that table is in (the
// constructor hands over class-width rows whose columns no state may
// tell apart any more, most of all after minimization). The successor
// function is preserved exactly — for every state and byte, Next is
// unchanged — so match streams are byte-for-byte identical; only the
// storage layout differs. Decision sets are shared with the receiver,
// which stays valid: both views are immutable.
func (d *DFA) compressed() *DFA {
	w := d.numClasses
	plain := d.plainTable()
	colClass, k := computeClasses(plain, w)
	if d.classOf != nil && k == w {
		return d // already the quotient, and numbered by first byte
	}
	classOf := make([]uint8, 256)
	for b := range classOf {
		col := b
		if d.classOf != nil {
			col = int(d.classOf[b])
		}
		classOf[b] = colClass[col]
	}
	// One representative column per class; any member works because the
	// class is defined by column equality.
	rep := make([]int, k)
	for col := w - 1; col >= 0; col-- {
		rep[colClass[col]] = col
	}
	ct := make([]uint32, d.numStates*k)
	for s := 0; s < d.numStates; s++ {
		row := plain[s*w : (s+1)*w]
		out := ct[s*k : (s+1)*k]
		for c, col := range rep {
			out[c] = row[col] * uint32(k) // pre-scaled: successor row base
		}
	}
	return &DFA{
		numStates:   d.numStates,
		start:       d.start,
		trans:       ct,
		numClasses:  k,
		classOf:     classOf,
		acceptStart: d.acceptStart,
		accepts:     d.accepts,
	}
}

// flattened returns a flat 256-wide row-major table equivalent to the
// receiver's, expanding a classed table through its class map and
// unscaling its pre-scaled entries back to state numbers. For a flat DFA
// it returns the table itself (shared, read-only).
func (d *DFA) flattened() []uint32 {
	if d.classOf == nil {
		return d.trans
	}
	k := uint32(d.numClasses)
	out := make([]uint32, d.numStates*256)
	for s := 0; s < d.numStates; s++ {
		row := d.trans[s*d.numClasses : (s+1)*d.numClasses]
		flat := out[s*256 : (s+1)*256]
		for b := 0; b < 256; b++ {
			flat[b] = row[d.classOf[b]] / k
		}
	}
	return out
}

// flat returns the flat-layout form of a DFA, sharing its decision sets.
func (d *DFA) flat() *DFA {
	if d.classOf == nil {
		return d
	}
	return &DFA{
		numStates:   d.numStates,
		start:       d.start,
		trans:       d.flattened(),
		numClasses:  256,
		acceptStart: d.acceptStart,
		accepts:     d.accepts,
	}
}

// applyLayout resolves the requested layout against the class-width
// automaton the constructor and minimizer produce; the 256-wide table is
// materialised only when the flat layout is the outcome.
func (d *DFA) applyLayout(l Layout) *DFA {
	switch l {
	case LayoutFlat:
		return d.flat()
	case LayoutClassed:
		return d.compressed()
	case LayoutClassed2:
		// Falls back to classed when the pair table would exceed
		// Classed2MaxTableBytes; Layout() on the result tells which.
		return d.compressed().withPairs()
	default: // LayoutAuto
		c := d.compressed()
		if c.numClasses <= autoClassThreshold {
			return c
		}
		return d.flat()
	}
}
