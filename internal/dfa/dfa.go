// Package dfa implements subset construction from an NFA into a
// transition-table deterministic automaton with multi-match decision sets
// (the Dq: Q → 2^Di component of the paper's 9-tuple), plus a fast
// matching engine and an optional minimization pass.
//
// There is one table shape: a 256-byte class map plus a row-major
// numStates × k table, one column per byte equivalence class, whose
// entries are pre-scaled row bases (next × k), stepped as
// st = trans[st+uint32(classOf[b])] — by WalkQuarters, the kernel of every
// sequential loop, and by WalkLanes, four flows a call for core's lockstep
// loop; both record into a Quarters. The class table is typically 5–20×
// smaller than the paper's 1 KiB-per-state table and stays cache-resident
// as state counts grow; a flat image of an earlier release loads as the
// k = 256 case under the identity map. See classes.go.
//
// All APIs that cross the package boundary — Next, Runner.State/SetState,
// Matches, and the wire format — speak plain state numbers, never scaled
// row bases, so a context saved from one table restores into any table of
// the same automaton, a flat image's included. States are renumbered so
// that all accepting states form a contiguous tail, making the per-byte
// "did we match" test a single integer compare — one the sequential kernel
// turns into a mask bit instead of a branch (strip.go).
//
// Concurrency: a *DFA and the Engine wrapping it are immutable after
// construction and safe for unlimited concurrent readers. All mutable
// scan state lives in Runner, which serves exactly one flow at a time.
package dfa

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"matchfilter/internal/nfa"
	"matchfilter/internal/regexparse"
)

// DefaultMaxStates is the construction budget used when Options.MaxStates
// is zero. During construction a state costs its residue (a few NFA
// state ids for decomposed sets) and one row of 4 bytes per alphabet
// class, at most 1 KiB of table per state, which the default bounds at
// 128 MiB. That is comfortably above every
// constructible pattern set shipped in internal/patterns, and exceeded
// (by design) by the B217p-style sets.
const DefaultMaxStates = 1 << 17

// ErrTooManyStates is returned (wrapped) when subset construction exceeds
// the state budget; the paper's Table V reports exactly this outcome for
// B217p ("could not be constructed as a DFA").
var ErrTooManyStates = errors.New("dfa: state budget exceeded")

// Options configures construction.
type Options struct {
	// MaxStates caps subset construction; 0 means DefaultMaxStates.
	MaxStates int
	// Minimize runs a Moore partition-refinement pass after construction.
	// Distinct match-id sets are kept distinguishable, so minimization
	// never merges states that report different matches.
	Minimize bool
}

// DFA is a deterministic multi-match automaton. It is immutable after
// construction and safe for concurrent use by any number of goroutines;
// per-flow scan state lives in Runner. The slices returned by accessors
// are shared views that callers must treat as read-only.
type DFA struct {
	numStates int
	start     uint32
	// trans is the row-major numStates × numClasses transition table.
	// Entries are pre-scaled row bases, next × numClasses (pack in
	// classes.go is the one place that scales them).
	trans []uint32
	// numClasses is the row stride k: the byte equivalence-class count.
	numClasses int
	// classOf maps each input byte to its column.
	classOf     []uint8
	acceptStart uint32    // states >= acceptStart are accepting
	accepts     [][]int32 // match ids for states >= acceptStart, indexed by state-acceptStart
}

// rows is an automaton between construction and its table: what the
// constructor emits, the minimizer rewrites and classed turns into a DFA.
// next holds plain successor numbers, numStates × k over the columns
// classOf maps bytes to; columns may still be equal.
type rows struct {
	numStates   int
	start       uint32
	next        []uint32
	k           int
	classOf     []uint8
	acceptStart uint32
	accepts     [][]int32
}

// FromNFA runs subset construction on n. Construction and minimization
// work on class-width rows (one column per NFA byte class, see
// constructor); the byte-class quotient is taken as a final repacking
// step, which keeps the successor function exactly.
func FromNFA(n *nfa.NFA, opts Options) (*DFA, error) {
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}

	c := newConstructor(n, maxStates)
	if err := c.run(); err != nil {
		return nil, err
	}
	r := c.finish()
	if opts.Minimize {
		r = r.minimize()
	}
	return r.classed()
}

// constructor holds the working state of subset construction. It works
// per NFA byte class instead of per byte, and per residue instead of per
// closure (DESIGN.md "Subset construction"):
//
//   - The alphabet is partitioned once by the distinct class bitmaps on
//     NFA transitions. Classes are ordered by smallest member byte, so
//     walking them in order discovers successor states in the order a
//     byte-by-byte walk would, and state numbering is the same.
//   - The invariant core C is the greatest set of NFA states with
//     C ⊆ succ(start, k) and C ⊆ succ(C, k) for every class k (succ being
//     the ε-closed successor set). By induction every DFA state other
//     than the start contains C, so a state is stored and interned as
//     its residue closure \ C, and C's own successors and match ids are
//     computed once per class instead of once per state and byte.
//     Anchored-only rule sets have C = ∅ and residue = closure.
//   - A set's successors on all classes come from one pass over its NFA
//     transitions (spread), deduplicated by generation marks (step).
//   - Residues are interned as unordered sets: the key is an order-free sum
//     of per-state mixes, and a stored set equals the residue when the
//     lengths match and each stored state carries the current generation's
//     mark. Numbering depends only on discovery order, never on order
//     within a residue.
//   - The successor on k of a state that contains C holds succ(C, k) \ C,
//     the class's core successors, which are most of a residue when C
//     holds dot-stars. step marks them but does not copy them; intern
//     takes them and their precomputed hash sum as a separate part.
type constructor struct {
	n         *nfa.NFA
	maxStates int
	closures  [][]nfa.StateID // ε-closure of each NFA state

	classOf []uint8 // byte → alphabet class
	rep     []byte  // smallest byte of each class
	edges   []edge  // NFA state s's transitions: edges[edgeOff[s]:edgeOff[s+1]]
	edgeOff []int32
	covers  []uint8         // an edge's bitmap holds classes covers[lo:hi]
	raw     [][]nfa.StateID // per class: the targets spread found
	mark    []uint64        // mark[q] == gen: q is in the set step builds
	gen     uint64          // 64 bits, so it never wraps

	inCore      []bool          // membership in C
	coreSucc    [][]nfa.StateID // per class: succ(C, k) \ C
	coreSum     []uint64        // per class: Σ mix over coreSucc[k]
	coreMatches []int32         // match ids of C, sorted
	// startFull marks state 0 as holding the whole start closure because
	// it does not contain C. No other state can equal it, so it is never
	// interned.
	startFull bool

	// DFA states in discovery order, which is also exploration order.
	// State i is C ∪ arena[off[i]:off[i+1]] (state 0 without C when
	// startFull), its residue in the order it was discovered.
	arena   []nfa.StateID
	off     []uint32
	accepts [][]int32         // per state: sorted match ids (nil if none)
	byHash  map[uint64]uint32 // residue's Σ mix → newest state with it, +1
	chain   []uint32          // per state: older state with the same hash, +1
	rows    []uint32          // per explored state: len(rep) targets
}

// edge is an NFA transition in class space: target to, classes covers[lo:hi].
type edge struct{ to, lo, hi int32 }

func newConstructor(n *nfa.NFA, maxStates int) *constructor {
	c := &constructor{
		n:         n,
		maxStates: maxStates,
		closures:  n.Closures(),
		mark:      make([]uint64, n.NumStates()),
		inCore:    make([]bool, n.NumStates()),
		off:       []uint32{0},
		byHash:    make(map[uint64]uint32, 1024),
	}
	// One 0/1 membership row per distinct transition bitmap: two bytes
	// are in the same class iff they agree on every row.
	distinct := make(map[regexparse.Class]edge)
	numEdges := 0
	for _, s := range n.States {
		numEdges += len(s.Trans)
		for _, t := range s.Trans {
			distinct[t.Class] = edge{}
		}
	}
	member := make([]uint32, 0, len(distinct)*regexparse.AlphabetSize)
	for cl := range distinct { // in any order
		for b := range regexparse.AlphabetSize {
			member = append(member, uint32(cl[b>>6]>>(b&63))&1)
		}
	}
	var k int
	c.classOf, k = computeClasses(member, regexparse.AlphabetSize)
	c.rep = make([]byte, k)
	for b := regexparse.AlphabetSize - 1; b >= 0; b-- {
		c.rep[c.classOf[b]] = byte(b)
	}
	// A bitmap is a union of classes, so it covers k iff it holds rep[k].
	for cl := range distinct {
		lo := int32(len(c.covers))
		for k, b := range c.rep {
			if cl.Contains(b) {
				c.covers = append(c.covers, uint8(k))
			}
		}
		distinct[cl] = edge{lo: lo, hi: int32(len(c.covers))}
	}
	c.edges = make([]edge, 0, numEdges)
	c.edgeOff = make([]int32, 1, len(n.States)+1)
	for _, s := range n.States {
		for _, t := range s.Trans {
			e := distinct[t.Class]
			c.edges = append(c.edges, edge{t.To, e.lo, e.hi})
		}
		c.edgeOff = append(c.edgeOff, int32(len(c.edges)))
	}
	c.raw = make([][]nfa.StateID, k)
	return c
}

// spread appends to raw[k] the targets of set's transitions on class k,
// for every k, in one pass over them; step empties raw[k] again.
func (c *constructor) spread(set []nfa.StateID) {
	for _, s := range set {
		for _, e := range c.edges[c.edgeOff[s]:c.edgeOff[s+1]] {
			for _, k := range c.covers[e.lo:e.hi] {
				c.raw[k] = append(c.raw[k], e.to)
			}
		}
	}
}

// step marks succ(set, k) for the set last spread, in a new generation,
// and appends to dst its states outside C and outside core, unsorted. The
// caller passes core = succ(C, k) \ C when the set contains C, or nil; it
// is marked first and not copied, so the residue, exactly the marked
// states outside C, is core ∪ dst.
func (c *constructor) step(dst []nfa.StateID, k int, core []nfa.StateID) []nfa.StateID {
	c.gen++
	for _, q := range core {
		c.mark[q] = c.gen
	}
	for _, t := range c.raw[k] {
		if c.mark[t] == c.gen {
			continue // it came with an ε-closed set, and so did its closure
		}
		for _, q := range c.closures[t] {
			if c.mark[q] != c.gen {
				c.mark[q] = c.gen
				if !c.inCore[q] {
					dst = append(dst, q)
				}
			}
		}
	}
	c.raw[k] = c.raw[k][:0]
	return dst
}

// findCore computes the invariant core from the start closure, fills
// inCore, coreSucc, coreSum and coreMatches, and returns the core's size.
func (c *constructor) findCore(start []nfa.StateID) int {
	// C starts as every NFA state; round one cuts it to ∩ₖ succ(start, k),
	// later ones to C ∩ ∩ₖ succ(C, k), until one removes nothing. No round
	// drops a state of a set meeting both conditions: C is the greatest.
	core := make([]nfa.StateID, c.n.NumStates())
	for i := range core {
		core[i] = nfa.StateID(i)
	}
	var buf []nfa.StateID
	for set, n := start, 0; len(core) != n; set = core {
		n = len(core)
		c.spread(set)
		for k := range c.rep {
			buf = c.step(buf[:0], k, nil)
			core = slices.DeleteFunc(core, func(s nfa.StateID) bool { return c.mark[s] != c.gen })
		}
	}
	for _, s := range core {
		c.inCore[s] = true
	}
	c.spread(core)
	c.coreSucc = make([][]nfa.StateID, len(c.rep))
	c.coreSum = make([]uint64, len(c.rep))
	for k := range c.rep {
		succ := c.step(nil, k, nil)
		c.coreSucc[k], c.coreSum[k] = succ, sumMix(0, succ)
	}
	c.coreMatches = c.matchSet(core, nil)
	return len(core)
}

// mix is a state's term in a residue's hash, the splitmix64 finalizer: a
// sum of mixes keys a set whatever the order of its states.
func mix(s nfa.StateID) uint64 {
	z := uint64(uint32(s)) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// sumMix returns h plus the mixes of set.
func sumMix(h uint64, set []nfa.StateID) uint64 {
	for _, s := range set {
		h += mix(s)
	}
	return h
}

// add appends a new DFA state storing core then extra, with base plus
// their match ids.
func (c *constructor) add(base []int32, core, extra []nfa.StateID) (uint32, error) {
	if len(c.accepts) >= c.maxStates {
		return 0, fmt.Errorf("%w: more than %d states", ErrTooManyStates, c.maxStates)
	}
	lo := len(c.arena)
	c.arena = append(append(c.arena, core...), extra...)
	c.off = append(c.off, uint32(len(c.arena)))
	c.accepts = append(c.accepts, c.matchSet(c.arena[lo:], base))
	c.chain = append(c.chain, 0)
	return uint32(len(c.accepts) - 1), nil
}

// intern returns the DFA state C ∪ core ∪ extra, creating it if new. core
// and extra are disjoint and, together, exactly the states outside C that
// carry the current generation's mark; sum is Σ mix over core. A stored
// residue holds distinct states outside C, so it equals this one when the
// lengths match and all of its states are marked.
func (c *constructor) intern(core []nfa.StateID, sum uint64, extra []nfa.StateID) (uint32, error) {
	h := sumMix(sum, extra)
	n := uint32(len(core) + len(extra))
	for p := c.byHash[h]; p != 0; p = c.chain[p-1] {
		if lo, hi := c.off[p-1], c.off[p]; hi-lo == n && c.marked(c.arena[lo:hi]) {
			return p - 1, nil
		}
	}
	id, err := c.add(c.coreMatches, core, extra)
	if err != nil {
		return 0, err
	}
	c.chain[id] = c.byHash[h]
	c.byHash[h] = id + 1
	return id, nil
}

// marked reports whether every state of set carries the current mark.
func (c *constructor) marked(set []nfa.StateID) bool {
	for _, q := range set {
		if c.mark[q] != c.gen {
			return false
		}
	}
	return true
}

func (c *constructor) run() error {
	start := c.closures[c.n.Start]
	coreSize := c.findCore(start)
	var residue []nfa.StateID
	c.gen++ // the start residue's own generation, which intern tests against
	for _, s := range start {
		if !c.inCore[s] {
			c.mark[s] = c.gen
			residue = append(residue, s)
		}
	}
	var err error
	if c.startFull = len(start)-len(residue) < coreSize; c.startFull {
		_, err = c.add(nil, nil, start)
	} else {
		_, err = c.intern(nil, 0, residue)
	}
	if err != nil {
		return err
	}

	for cur := 0; cur < len(c.accepts); cur++ {
		if len(c.rows)+len(c.rep) > cap(c.rows) {
			c.rows = slices.Grow(c.rows, len(c.rows)+len(c.rep)) // double, not ×1.25
		}
		c.spread(c.arena[c.off[cur]:c.off[cur+1]])
		for k := range c.rep {
			core, sum := c.coreSucc[k], c.coreSum[k]
			if cur == 0 && c.startFull {
				core, sum = nil, 0 // state 0 does not hold C
			}
			residue = c.step(residue[:0], k, core)
			id, err := c.intern(core, sum, residue)
			if err != nil {
				return err
			}
			c.rows = append(c.rows, id)
		}
	}
	return nil
}

// finish renumbers states so accepting ones form a contiguous tail and
// returns the rows over the constructor's alphabet classes.
func (c *constructor) finish() *rows {
	numStates, k := len(c.accepts), len(c.rep)
	perm, acceptStart := acceptTail(numStates, func(s int) bool { return c.accepts[s] != nil })
	r := &rows{
		numStates:   numStates,
		start:       perm[0], // state 0 was created first, from the start closure
		next:        make([]uint32, numStates*k),
		k:           k,
		classOf:     c.classOf,
		acceptStart: acceptStart,
		accepts:     make([][]int32, uint32(numStates)-acceptStart),
	}
	for old := 0; old < numStates; old++ {
		base := int(perm[old]) * k
		for j, to := range c.rows[old*k : (old+1)*k] {
			r.next[base+j] = perm[to]
		}
		if m := c.accepts[old]; m != nil {
			r.accepts[perm[old]-acceptStart] = m
		}
	}
	return r
}

// acceptTail returns the renumbering of n states that moves the accepting
// ones to a contiguous tail, keeping relative order on both sides, and the
// first accepting number.
func acceptTail(n int, accepting func(int) bool) (perm []uint32, acceptStart uint32) {
	perm = make([]uint32, n) // old -> new
	acceptStart = uint32(n)
	for s := 0; s < n; s++ {
		if accepting(s) {
			acceptStart--
		}
	}
	nextPlain, nextAccept := uint32(0), acceptStart
	for s := 0; s < n; s++ {
		if accepting(s) {
			perm[s] = nextAccept
			nextAccept++
		} else {
			perm[s] = nextPlain
			nextPlain++
		}
	}
	return perm, acceptStart
}

// matchSet returns the sorted, deduplicated union of base and the match
// ids of set, or base itself (possibly nil) when set reports none.
func (c *constructor) matchSet(set []nfa.StateID, base []int32) []int32 {
	ids := slices.Clip(base)
	for _, s := range set {
		for _, id := range c.n.States[s].Matches {
			ids = append(ids, int32(id))
		}
	}
	if len(ids) == len(base) {
		return base
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// NumStates returns the number of DFA states, the "DFA Qs" column of
// Table V.
func (d *DFA) NumStates() int { return d.numStates }

// Start returns the initial state.
func (d *DFA) Start() uint32 { return d.start }

// Next returns δ(state, c) in plain state numbers. Hot loops do not use
// it; they walk scaled row bases (ScanTable).
func (d *DFA) Next(state uint32, c byte) uint32 {
	k := uint32(d.numClasses)
	return d.trans[state*k+uint32(d.classOf[c])] / k
}

// Accepting reports whether a state has a non-empty decision set.
func (d *DFA) Accepting(state uint32) bool { return state >= d.acceptStart }

// Matches returns the decision set Dq(state), nil for non-accepting
// states. The returned slice must not be modified.
func (d *DFA) Matches(state uint32) []int32 {
	if state < d.acceptStart {
		return nil
	}
	return d.accepts[state-d.acceptStart]
}

// TransitionTable returns a freshly materialized NumStates×256 row-major
// table of plain state numbers: the form the HFA and XFA baselines repack
// into their own cells.
func (d *DFA) TransitionTable() []uint32 {
	k := uint32(d.numClasses)
	out := make([]uint32, d.numStates*256)
	for s := 0; s < d.numStates; s++ {
		row := d.trans[s*d.numClasses : (s+1)*d.numClasses]
		flat := out[s*256 : (s+1)*256]
		for b := range flat {
			flat[b] = row[d.classOf[b]] / k
		}
	}
	return out
}

// ScanTable returns the hot-loop view of the transition function: the
// table, the byte→column map and the row stride. The walk runs over
// pre-scaled row bases: st starts at state*stride, steps as
// st = trans[st+uint32(classOf[b])], and st/stride recovers the state
// number (for accept-set indexing and context save/restore). All three
// are shared, read-only views; composite engines (the MFA) cache them
// once and hand them to WalkQuarters, or step them in a loop of their own
// (core.FlowBatcher).
func (d *DFA) ScanTable() (trans []uint32, classOf []uint8, stride int) {
	return d.trans, d.classOf, d.numClasses
}

// StrideDiv recovers a state number from a scaled row base without the
// integer DIV that /stride costs on every accept visit: a row base is an
// exact multiple of the stride k = 2^s·m (m odd), so x/k is x>>s times the
// inverse of m modulo 2³² — the product q·m·m⁻¹ wraps to q.
type StrideDiv struct{ shift, inv uint32 }

// NewStrideDiv returns the divider of the multiples of k > 0.
func NewStrideDiv(k int) StrideDiv {
	shift := uint32(bits.TrailingZeros32(uint32(k)))
	m := uint32(k) >> shift
	inv := m // m·m ≡ 1 mod 8; each Newton step doubles the correct bits
	for i := 0; i < 4; i++ {
		inv *= 2 - m*inv
	}
	return StrideDiv{shift, inv}
}

// Quo returns x/k for x a multiple of k (the mask makes the shift a bare SHR).
func (v StrideDiv) Quo(x uint32) uint32 { return x >> (v.shift & 31) * v.inv }

// NumClasses returns the number of table columns, which is also the row
// stride: the byte equivalence-class count.
func (d *DFA) NumClasses() int { return d.numClasses }

// ClassMap returns the 256-entry byte→column map. Shared, read-only.
func (d *DFA) ClassMap() []uint8 { return d.classOf }

// TableBytes returns the size of the transition table plus its class map.
func (d *DFA) TableBytes() int { return len(d.trans)*4 + len(d.classOf) }

// AcceptStart returns the first accepting state id; states in
// [AcceptStart, NumStates) are exactly the accepting states.
func (d *DFA) AcceptStart() uint32 { return d.acceptStart }

// AcceptSets returns the decision sets of the accepting states, indexed
// by state-AcceptStart. Shared, read-only: composite engines use it to
// inline the scan loop without a per-state method call.
func (d *DFA) AcceptSets() [][]int32 { return d.accepts }

// MemoryImageBytes returns the contiguous memory needed for matching:
// the transition table with its class map, and the accept-set arrays
// with their index.
func (d *DFA) MemoryImageBytes() int {
	total := d.TableBytes()
	total += len(d.accepts) * 8 // offset/length index per accepting state
	for _, m := range d.accepts {
		total += len(m) * 4
	}
	return total
}
