package dfa

import (
	"fmt"
	"math"
)

// The one table shape.
//
// Two input bytes are equivalent iff every state maps them to the same
// successor; security pattern sets distinguish far fewer than 256 byte
// behaviours (case-folded letters, digits, the handful of separator
// bytes the rules mention, and "everything else"), so 256-wide rows are
// mostly duplicate columns. A DFA therefore stores a 256-byte class map
// and a numStates × k table with one column per class, the exact
// quotient — a table typically 5–20× smaller and therefore actually
// cacheable as state counts grow, the Hyperflex observation that
// cache-conscious layout, not instruction count, dominates software DPI
// throughput. A set in which every byte behaves differently gets k = 256
// under the identity map, and so does a flat image of an earlier release
// (ReadDFA): the paper's 1 KiB-per-state table is loaded, never built.
//
// Pre-scale invariant: table entries are next × k, the row base of the
// successor, not the state number itself, so the per-byte step is a
// single add (st + classOf[b]) with no multiply or shift on the
// loop-carried dependency chain. Row bases, and acceptStart × k beside
// them, live in a uint32, so numStates × k < 2³² is a precondition of the
// kernel; classed is the one place that scales and the one place that
// checks it. Every API that exposes state numbers (Next, State/SetState,
// Matches, the wire format) converts at the boundary, so state numbering
// stays a property of the automaton, never of the table.

// identityClasses is the class map of a flat image, which carries none.
var identityClasses = func() (m [256]uint8) {
	for b := range m {
		m[b] = uint8(b)
	}
	return m
}()

// computeClasses partitions the columns of a row-major table with the
// given row width into equivalence classes: classOf[c1] == classOf[c2]
// iff trans[r*width+c1] == trans[r*width+c2] for every row r. Over a
// 256-wide table (TransitionTable) the columns are bytes and the result is
// the byte-class map; over class-width rows it says which of the
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

// classed returns the byte-class form of r: the exact column quotient of
// its rows (the constructor hands over columns that no state may tell
// apart any more, most of all after minimization), classes numbered by
// first byte, every entry scaled to the row base of its successor.
// Decision sets are shared with r.
func (r *rows) classed() (*DFA, error) {
	colClass, k := computeClasses(r.next, r.k)
	if uint64(r.numStates)*uint64(k) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: %d states × %d classes do not fit the table's 32-bit row bases",
			ErrTooManyStates, r.numStates, k)
	}
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
