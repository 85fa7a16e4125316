package dfa

import (
	"fmt"
	"math"
)

// The one table shape, and the two ways to choose its columns.
//
// Two input bytes are equivalent iff every state maps them to the same
// successor; security pattern sets distinguish far fewer than 256 byte
// behaviours (case-folded letters, digits, the handful of separator
// bytes the rules mention, and "everything else"), so 256-wide rows are
// mostly duplicate columns. A DFA therefore stores a 256-byte class map
// and a numStates × k table with one column per class. The classed
// layout takes the exact quotient — a table typically 5–20× smaller and
// therefore actually cacheable as state counts grow, the Hyperflex
// observation that cache-conscious layout, not instruction count,
// dominates software DPI throughput. The flat layout is the same shape
// with k = 256 and the identity map: the paper's 1 KiB-per-state table,
// which the Figure 2/4/5 baselines measure.
//
// Pre-scale invariant: table entries are next × k, the row base of the
// successor, not the state number itself, so the per-byte step is a
// single add (st + classOf[b]) with no multiply or shift on the
// loop-carried dependency chain. Row bases, and acceptStart × k beside
// them, live in a uint32, so numStates × k < 2³² is a precondition of the
// kernel; pack is the one place that scales and the one place that
// checks it. Every API that exposes state numbers (Next, State/SetState,
// Matches, the wire format) converts at the boundary, so state numbering
// stays a property of the automaton, never of the layout.

// Layout selects the transition-table representation of a DFA.
type Layout uint8

const (
	// LayoutAuto lets the constructor choose: byte-class compression is
	// applied when it shrinks the table at least 2× (numClasses ≤ 128),
	// otherwise the flat layout is kept. Every shipped pattern set
	// compresses far better than 2×, so Auto means Classed in practice;
	// the escape hatch exists for adversarial sets where the quotient
	// would buy nothing.
	LayoutAuto Layout = iota
	// LayoutFlat stores the full numStates × 256 row-major table under
	// the identity class map.
	LayoutFlat
	// LayoutClassed stores the byte-class quotient: a numStates ×
	// numClasses table behind a class map that sends every byte to its
	// class.
	LayoutClassed
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
	default:
		return "unknown"
	}
}

// ParseLayout resolves a layout name as used by command-line flags and
// reports ("auto", "flat", "classed").
func ParseLayout(s string) (Layout, error) {
	switch s {
	case "", "auto":
		return LayoutAuto, nil
	case "flat":
		return LayoutFlat, nil
	case "classed":
		return LayoutClassed, nil
	case "classed2":
		return LayoutAuto, fmt.Errorf("dfa: layout %q was removed in this release: its pair table "+
			"multiplied the image by the class count and lost to classed end to end (DESIGN.md §18)", s)
	}
	return LayoutAuto, fmt.Errorf("dfa: unknown layout %q (want auto, flat or classed)", s)
}

// identityClasses is the class map of the flat layout.
var identityClasses = func() (m [256]uint8) {
	for b := range m {
		m[b] = uint8(b)
	}
	return m
}()

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

// plainTable returns a copy of the transition table with plain state
// numbers as entries, the wire form.
func (d *DFA) plainTable() []uint32 {
	plain := make([]uint32, len(d.trans))
	for i, to := range d.trans {
		plain[i] = to / uint32(d.numClasses)
	}
	return plain
}

// pack builds the DFA that keeps one column of r per entry of rep —
// rep[c] is the column of r that column c of the result copies, and
// classOf maps each byte to its result column — scaling every entry to
// the row base of its successor. The successor function is preserved
// exactly, so match streams are byte-for-byte identical whichever columns
// are chosen. Decision sets are shared with r.
func (r *rows) pack(classOf []uint8, rep []int) (*DFA, error) {
	k := len(rep)
	if uint64(r.numStates)*uint64(k) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: %d states × %d classes do not fit the table's 32-bit row bases",
			ErrTooManyStates, r.numStates, k)
	}
	trans := make([]uint32, r.numStates*k)
	for s := 0; s < r.numStates; s++ {
		row := r.next[s*r.k : (s+1)*r.k]
		out := trans[s*k : (s+1)*k]
		for c, col := range rep {
			out[c] = row[col] * uint32(k)
		}
	}
	return &DFA{
		numStates:   r.numStates,
		start:       r.start,
		trans:       trans,
		numClasses:  k,
		classOf:     classOf,
		acceptStart: r.acceptStart,
		accepts:     r.accepts,
	}, nil
}

// classed returns the byte-class form of r: the exact column quotient of
// its rows (the constructor hands over columns that no state may tell
// apart any more, most of all after minimization), classes numbered by
// first byte.
func (r *rows) classed() (*DFA, error) {
	colClass, k := computeClasses(r.next, r.k)
	classOf := make([]uint8, 256)
	for b := range classOf {
		classOf[b] = colClass[r.classOf[b]]
	}
	// One representative column per class; any member works because the
	// class is defined by column equality.
	rep := make([]int, k)
	for col := r.k - 1; col >= 0; col-- {
		rep[colClass[col]] = col
	}
	return r.pack(classOf, rep)
}

// flat returns the flat form of r: column b is the column of byte b.
func (r *rows) flat() (*DFA, error) {
	rep := make([]int, 256)
	for b := range rep {
		rep[b] = int(r.classOf[b])
	}
	return r.pack(identityClasses[:], rep)
}

// applyLayout resolves the requested layout against the class-width rows
// the constructor and minimizer produce; 256 columns are materialised
// only when the flat layout is the outcome.
func (r *rows) applyLayout(l Layout) (*DFA, error) {
	switch l {
	case LayoutFlat:
		return r.flat()
	case LayoutClassed:
		return r.classed()
	default: // LayoutAuto
		c, err := r.classed()
		if err != nil || c.numClasses <= autoClassThreshold {
			return c, err
		}
		return r.flat()
	}
}
