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
//   - The successor on k of a state that contains C holds succ(C, k) \ C,
//     the class's core successors, which are most of a residue when C
//     holds dot-stars. A residue is stored as that part and its own
//     states: spread walks the own states, a part's transitions are
//     spread once, and step, intern and add never copy or mark a part.
//   - Residues are interned as unordered sets: the key is an order-free sum
//     of per-state mixes, and a stored set equals the residue when the
//     sizes match and each stored state is in it (an own state carries the
//     current generation's mark). Numbering depends only on discovery
//     order, never on order within a residue.
//   - When a state's own states have no transition on k, its successor is
//     C ∪ succ(C, k) ∪ succ(part, k) whatever the own states: run looks it
//     up in a (part, class) table.
type constructor struct {
	n         *nfa.NFA
	maxStates int
	closed    []nfa.StateID // ε-closures: state s's is closure(s)
	closeOff  []int32

	classOf []uint8 // byte → alphabet class
	rep     []byte  // smallest byte of each class
	edges   []edge  // NFA state s's transitions: edges[edgeOff[s]:edgeOff[s+1]]
	edgeOff []int32
	covers  []uint8         // an edge's bitmap holds classes covers[lo:hi]
	raw     [][]nfa.StateID // per class, then one for every class: the targets spread found
	mark    []uint64        // mark[q] == gen: q is in the set step builds
	gen     uint64          // 64 bits, so it never wraps

	// parts[0] is the empty part: its in is C and its matches C's. Then
	// one part per class with core successors; partOf maps a class to its
	// part, 0 if it has none.
	parts  []part
	partOf []uint16
	// startFull marks state 0 as holding the whole start closure because
	// it does not contain C. No other state can equal it, so it is never
	// interned.
	startFull bool

	// DFA states in discovery order, which is also exploration order.
	// State i is C ∪ parts[part[i]].states ∪ arena[off[i]:off[i+1]] (state
	// 0 without C when startFull), its own states in the order they were
	// discovered.
	arena   []nfa.StateID
	off     []uint32
	part    []uint16
	accepts [][]int32  // per state: sorted match ids (nil if none)
	hashes  []uint64   // per state: its residue's Σ mix
	slots   []uint32   // interned states by hash, +1: linear probing, at most half full
	rows    [][]uint32 // explored states' targets, rowChunk states a slice: see row
}

// rowChunk is how many states' targets share a slice of rows, so rows
// grow without copying.
const rowChunk = 128

// row returns the targets of explored state s, one per class.
func (c *constructor) row(s int) []uint32 {
	k := len(c.rep)
	return c.rows[s/rowChunk][s%rowChunk*k:][:k]
}

// part is succ(C, k) \ C for a class k: the core successors every state
// found on k holds beside its own states.
type part struct {
	states  []nfa.StateID
	sum     uint64  // Σ mix over states
	in      bitset  // C ∪ states
	matches []int32 // match ids of C ∪ states, sorted
	// The states' transition targets on class k are
	// targets[end[k]:end[k+1]]; end is nil until a state holding the part
	// is explored.
	targets []nfa.StateID
	end     []int32
}

// bitset is a set of NFA states, one bit each.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) has(q nfa.StateID) bool { return b[uint32(q)>>6]&(1<<(q&63)) != 0 }
func (b bitset) add(q nfa.StateID)      { b[uint32(q)>>6] |= 1 << (q & 63) }
func (b bitset) del(q nfa.StateID)      { b[uint32(q)>>6] &^= 1 << (q & 63) }

// edge is an NFA transition in class space: target to, classes covers[lo:hi].
type edge struct{ to, lo, hi int32 }

func newConstructor(n *nfa.NFA, maxStates int) *constructor {
	c := &constructor{
		n:         n,
		maxStates: maxStates,
		mark:      make([]uint64, n.NumStates()),
		off:       []uint32{0},
		slots:     make([]uint32, 64),
	}
	// Two bytes are in the same class iff every distinct transition
	// bitmap holds both or neither: refine the alphabet by each bitmap.
	// Until the classes are known, an edge's lo is its bitmap's number.
	numEdges := 0
	for _, s := range n.States {
		numEdges += len(s.Trans)
	}
	number := make(map[regexparse.Class]int32)
	var bitmaps []regexparse.Class
	blocks := []regexparse.Class{regexparse.AnyClass()}
	c.edges = make([]edge, 0, numEdges)
	c.edgeOff = make([]int32, 1, len(n.States)+1)
	for _, s := range n.States {
		for _, t := range s.Trans {
			i, ok := number[t.Class]
			if !ok {
				i = int32(len(bitmaps))
				number[t.Class] = i
				bitmaps = append(bitmaps, t.Class)
				for j, b := range blocks {
					in, out := b.Intersect(t.Class), b.Minus(t.Class)
					if !in.IsEmpty() && !out.IsEmpty() {
						blocks[j] = in
						blocks = append(blocks, out)
					}
				}
			}
			c.edges = append(c.edges, edge{to: t.To, lo: i})
		}
		c.edgeOff = append(c.edgeOff, int32(len(c.edges)))
	}
	// Classes are numbered by smallest member byte.
	c.classOf = make([]uint8, regexparse.AlphabetSize)
	num := make([]int, len(blocks)) // block → class + 1
	for i, b := range blocks {
		for w, word := range b {
			for ; word != 0; word &= word - 1 {
				c.classOf[w*64+bits.TrailingZeros64(word)] = uint8(i)
			}
		}
	}
	for b := range regexparse.AlphabetSize {
		i := c.classOf[b]
		if num[i] == 0 {
			c.rep = append(c.rep, byte(b))
			num[i] = len(c.rep)
		}
		c.classOf[b] = uint8(num[i] - 1)
	}
	// A bitmap is a union of classes, so it covers k iff it holds rep[k].
	ends := make([]int32, len(bitmaps)+1)
	for i, bm := range bitmaps {
		for k, b := range c.rep {
			if bm.Contains(b) {
				c.covers = append(c.covers, uint8(k))
			}
		}
		ends[i+1] = int32(len(c.covers))
	}
	for i, e := range c.edges {
		c.edges[i].lo, c.edges[i].hi = ends[e.lo], ends[e.lo+1]
	}
	c.raw = make([][]nfa.StateID, len(c.rep)+1)
	c.closeTargets()
	return c
}

// closeTargets computes the ε-closures of n's start state and of the
// edges' targets, the only ones subset construction looks up; the others
// stay empty. They are unsorted.
func (c *constructor) closeTargets() {
	states := c.n.States
	need := make([]bool, len(states))
	need[c.n.Start] = true
	for _, e := range c.edges {
		need[e.to] = true
	}
	c.closeOff = make([]int32, len(states)+1)
	for s := range states {
		if need[s] {
			c.gen++
			lo := len(c.closed)
			c.closed = append(c.closed, nfa.StateID(s))
			c.mark[s] = c.gen
			for i := lo; i < len(c.closed); i++ {
				for _, t := range states[c.closed[i]].Eps {
					if c.mark[t] != c.gen {
						c.mark[t] = c.gen
						c.closed = append(c.closed, t)
					}
				}
			}
		}
		c.closeOff[s+1] = int32(len(c.closed))
	}
}

// closure returns the ε-closure of NFA state s, a start or target state.
func (c *constructor) closure(s nfa.StateID) []nfa.StateID {
	return c.closed[c.closeOff[s]:c.closeOff[s+1]]
}

// spread appends to raw[k] the targets of set's transitions on class k,
// for every k, in one pass over them, and to raw[K], K = len(rep), the
// targets of those on every class. step empties raw[k] again, and its
// caller raw[K].
func (c *constructor) spread(set []nfa.StateID) {
	every := len(c.rep)
	for _, s := range set {
		for _, e := range c.edges[c.edgeOff[s]:c.edgeOff[s+1]] {
			if int(e.hi-e.lo) == every {
				c.raw[every] = append(c.raw[every], e.to)
				continue
			}
			for _, k := range c.covers[e.lo:e.hi] {
				c.raw[k] = append(c.raw[k], e.to)
			}
		}
	}
}

// step marks, in a new generation, the ε-closures of targets and of the
// targets spread found on class k and on every class, and appends to dst
// the states it marks outside in, unsorted. run passes the in of the
// successor's part, C ∪ (succ(C, k) \ C), so dst is the successor's own
// states; findCore passes its candidates.
func (c *constructor) step(dst []nfa.StateID, k int, in bitset, targets []nfa.StateID) []nfa.StateID {
	c.gen++
	dst = c.close(dst, in, targets)
	dst = c.close(dst, in, c.raw[len(c.rep)])
	dst = c.close(dst, in, c.raw[k])
	c.raw[k] = c.raw[k][:0]
	return dst
}

// close marks the ε-closures of targets and appends the states it marks
// outside in to dst.
func (c *constructor) close(dst []nfa.StateID, in bitset, targets []nfa.StateID) []nfa.StateID {
	for _, t := range targets {
		if c.mark[t] == c.gen {
			continue // it came with an ε-closed set, and so did its closure
		}
		for _, q := range c.closure(t) {
			if c.mark[q] != c.gen {
				c.mark[q] = c.gen
				if !in.has(q) {
					dst = append(dst, q)
				}
			}
		}
	}
	return dst
}

// findCore computes the invariant core from the start closure, fills
// parts and partOf, and returns the core's size.
func (c *constructor) findCore(start []nfa.StateID) int {
	// C starts as every NFA state; round one cuts it to ∩ₖ succ(start, k),
	// later ones to C ∩ ∩ₖ succ(C, k), until one removes nothing. No round
	// drops a state of a set meeting both conditions: C is the greatest.
	// The closure of the targets on every class, every, is in each
	// succ(set, k): a round closes it once and keeps the candidates in it
	// without a test. in holds the candidates and every, so step keeps
	// what falls outside both: in the last round, which removes nothing,
	// succ(C, k) \ C \ every.
	n, K := c.n.NumStates(), len(c.rep)
	core := make([]nfa.StateID, n)
	cand, every, in := newBitset(n), newBitset(n), newBitset(n)
	for i := range core {
		core[i] = nfa.StateID(i)
		cand.add(core[i])
	}
	ends := make([]int, K+1)
	var succ, common, rest []nfa.StateID // succ: the round's steps, class after class
	for set, size := start, 0; len(core) != size; set = core {
		size = len(core)
		c.spread(set)
		clear(every)
		c.gen++
		common = c.close(common[:0], every, c.raw[K])
		c.raw[K] = c.raw[K][:0]
		for _, q := range common {
			every.add(q)
		}
		for i := range in {
			in[i] = cand[i] | every[i]
		}
		kept := core[:0]
		rest = rest[:0]
		for _, s := range core {
			if every.has(s) {
				kept = append(kept, s)
			} else {
				rest = append(rest, s)
			}
		}
		succ = succ[:0]
		for k := range K {
			succ = c.step(succ, k, in, nil)
			ends[k+1] = len(succ)
			left := rest[:0]
			for _, s := range rest {
				if c.mark[s] == c.gen {
					left = append(left, s)
				} else {
					cand.del(s)
					in.del(s)
				}
			}
			rest = left
		}
		core = append(kept, rest...)
	}
	var beyond []nfa.StateID // every \ C, in each succ(C, k) \ C
	for _, q := range common {
		if !cand.has(q) {
			beyond = append(beyond, q)
		}
	}
	coreMatches := c.matchSet(core, nil)
	c.parts = []part{{in: cand, matches: coreMatches}}
	c.partOf = make([]uint16, K)
	for k := range K {
		states := succ[ends[k]:ends[k+1]:ends[k+1]]
		if len(beyond) > 0 {
			states = append(slices.Clip(beyond), states...)
		}
		if len(states) == 0 {
			continue
		}
		p := part{states: states, sum: sumMix(0, states), in: slices.Clone(cand), matches: c.matchSet(states, coreMatches)}
		for _, q := range states {
			p.in.add(q)
		}
		c.partOf[k] = uint16(len(c.parts))
		c.parts = append(c.parts, p)
	}
	return len(core)
}

// spreadPart fills p's targets per class, once, before the first state
// holding p is spread.
func (c *constructor) spreadPart(p *part) {
	c.spread(p.states)
	p.end = make([]int32, len(c.rep)+1)
	every := c.raw[len(c.rep)]
	for k := range c.rep {
		p.targets = append(append(p.targets, every...), c.raw[k]...)
		p.end[k+1] = int32(len(p.targets))
		c.raw[k] = c.raw[k][:0]
	}
	c.raw[len(c.rep)] = every[:0]
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

// add appends a new DFA state holding part p and own, with base plus the
// match ids of own.
func (c *constructor) add(base []int32, p uint16, own []nfa.StateID) (uint32, error) {
	if len(c.accepts) >= c.maxStates {
		return 0, fmt.Errorf("%w: more than %d states", ErrTooManyStates, c.maxStates)
	}
	c.arena = append(c.arena, own...)
	c.off = append(c.off, uint32(len(c.arena)))
	c.part = append(c.part, p)
	c.accepts = append(c.accepts, c.matchSet(own, base))
	c.hashes = append(c.hashes, 0)
	return uint32(len(c.accepts) - 1), nil
}

// intern returns the DFA state C ∪ parts[p].states ∪ own, creating it if
// new. own is exactly the states outside parts[p].in that carry the
// current generation's mark. A stored state holds distinct states outside
// C, so it equals this one when the sizes match and each of its states
// is in this one: marked or in parts[p].in. A stored state of the same
// part is decided by its own states alone.
func (c *constructor) intern(p uint16, own []nfa.StateID) (uint32, error) {
	pt := &c.parts[p]
	h := sumMix(pt.sum, own)
	n := len(pt.states) + len(own)
	mask := uint64(len(c.slots) - 1)
	i := h & mask
	for ; c.slots[i] != 0; i = (i + 1) & mask {
		s := c.slots[i] - 1
		q, stored := c.part[s], c.arena[c.off[s]:c.off[s+1]]
		if c.hashes[s] == h && len(c.parts[q].states)+len(stored) == n && (q == p || c.within(c.parts[q].states, pt.in)) && c.within(stored, pt.in) {
			return s, nil
		}
	}
	id, err := c.add(pt.matches, p, own)
	if err != nil {
		return 0, err
	}
	c.hashes[id] = h
	c.slots[i] = id + 1
	if 2*len(c.accepts) > len(c.slots) {
		c.slots = make([]uint32, 2*len(c.slots))
		for s := range c.accepts {
			if s != 0 || !c.startFull {
				c.place(uint32(s))
			}
		}
	}
	return id, nil
}

// place puts interned state s in the first free slot from its hash.
func (c *constructor) place(s uint32) {
	mask := uint64(len(c.slots) - 1)
	i := c.hashes[s] & mask
	for c.slots[i] != 0 {
		i = (i + 1) & mask
	}
	c.slots[i] = s + 1
}

// within reports whether every state of set carries the current mark or
// is in in.
func (c *constructor) within(set []nfa.StateID, in bitset) bool {
	for _, q := range set {
		if c.mark[q] != c.gen && !in.has(q) {
			return false
		}
	}
	return true
}

func (c *constructor) run() error {
	start := c.closure(c.n.Start)
	coreSize := c.findCore(start)
	core := c.parts[0].in
	var residue []nfa.StateID
	c.gen++ // the start residue's own generation, which intern tests against
	for _, s := range start {
		if !core.has(s) {
			c.mark[s] = c.gen
			residue = append(residue, s)
		}
	}
	var err error
	if c.startFull = len(start)-len(residue) < coreSize; c.startFull {
		_, err = c.add(nil, 0, start)
	} else {
		_, err = c.intern(0, residue)
	}
	if err != nil {
		return err
	}

	// table[p*K+k] is the successor on k, +1 once interned, of every state
	// holding C and part p whose own states have no transition on k:
	// C ∪ succ(C, k) ∪ succ(part p, k) (DESIGN.md §20). A part with no
	// transition on k reads row 0, the empty part's, C ∪ succ(C, k). A
	// startFull state 0 has own transitions on every k, since
	// C ⊆ succ(start, k) and C ≠ ∅, so it never meets the table.
	K := len(c.rep)
	table := make([]uint32, len(c.parts)*K)
	var out []uint32 // the rows of the states explored since the last chunk began
	for cur := 0; cur < len(c.accepts); cur++ {
		if cur%rowChunk == 0 {
			out = make([]uint32, 0, rowChunk*K)
			c.rows = append(c.rows, nil)
		}
		p := &c.parts[c.part[cur]]
		if p.end == nil {
			c.spreadPart(p)
		}
		row, end := int(c.part[cur])*K, p.end[:K+1]
		c.spread(c.arena[c.off[cur]:c.off[cur+1]])
		raw := c.raw[:K+1]
		silent, full := len(raw[K]) == 0, cur == 0 && c.startFull
		for k := range K {
			key := -1
			if silent && len(raw[k]) == 0 {
				key = k
				if end[k] != end[k+1] {
					key += row
				}
				if table[key] != 0 {
					out = append(out, table[key]-1)
					continue
				}
			}
			to := c.partOf[k]
			if full {
				to = 0 // state 0 does not hold C
			}
			residue = c.step(residue[:0], k, c.parts[to].in, p.targets[end[k]:end[k+1]])
			id, err := c.intern(to, residue)
			if err != nil {
				return err
			}
			if key >= 0 {
				table[key] = id + 1
			}
			out = append(out, id)
		}
		raw[K] = raw[K][:0]
		c.rows[len(c.rows)-1] = out
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
		for j, to := range c.row(old) {
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
