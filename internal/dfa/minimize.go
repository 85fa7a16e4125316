package dfa

import (
	"encoding/binary"
	"hash/maphash"
	"slices"
)

// minimize returns an equivalent DFA with the minimum number of states,
// using Moore partition refinement. The initial partition separates states
// by their exact decision set, so multi-match semantics are preserved: two
// states merge only if they report identical match-id sets and have
// pairwise-equivalent successors on every byte.
//
// minimize runs over the receiver's own columns (FromNFA calls it on the
// constructor's class-width rows, before classed): states agree on
// every byte iff they agree on every column, so the partition, and with
// it the numbering of the result, is the one a 256-wide refinement would
// reach. The result keeps the receiver's class map; merging states can
// make columns equal, which the column quotient in classed() then removes.
func (r *rows) minimize() *rows {
	n, k := r.numStates, r.k
	trans := r.next
	group := make([]uint32, n)

	// Initial partition: group by decision set, the non-accepting states
	// being the group of the empty set. Only groups that have a state are
	// counted — the refinement stops when a round leaves the count as it
	// was, so a reserved but empty non-accepting group would end it early
	// on an automaton whose every state accepts.
	acceptGroups := make(map[string]uint32)
	numGroups := uint32(0)
	for s := 0; s < n; s++ {
		key := int32sKey(r.matches(uint32(s)))
		g, ok := acceptGroups[key]
		if !ok {
			g = numGroups
			numGroups++
			acceptGroups[key] = g
		}
		group[s] = g
	}

	// Refine: a state's signature is its group plus the groups of its
	// successors, one per column. Iterate until the number of groups
	// stabilizes.
	seed := maphash.MakeSeed()
	next := make([]uint32, n)
	sig := make([]byte, 4+4*k)
	for {
		buckets := make(map[uint64][]int, numGroups*2)
		var order []uint64 // deterministic group numbering
		for s := 0; s < n; s++ {
			binary.LittleEndian.PutUint32(sig[0:], group[s])
			for c, to := range trans[s*k : (s+1)*k] {
				binary.LittleEndian.PutUint32(sig[4+4*c:], group[to])
			}
			h := maphash.Bytes(seed, sig)
			if _, ok := buckets[h]; !ok {
				order = append(order, h)
			}
			buckets[h] = append(buckets[h], s)
		}
		// Hash collisions would merge inequivalent states; with a 64-bit
		// hash over <2^20 states this is vanishingly unlikely, and any
		// collision is caught by the cross-engine equivalence tests.
		newNum := uint32(0)
		for _, h := range order {
			for _, s := range buckets[h] {
				next[s] = newNum
			}
			newNum++
		}
		if newNum == numGroups {
			break
		}
		numGroups = newNum
		group, next = next, group
	}

	return r.rebuild(group, int(numGroups))
}

// matches returns the decision set of a state, nil if it does not accept.
func (r *rows) matches(state uint32) []int32 {
	if state < r.acceptStart {
		return nil
	}
	return r.accepts[state-r.acceptStart]
}

// rebuild materializes the quotient automaton given a state→group map.
func (r *rows) rebuild(group []uint32, numGroups int) *rows {
	rep := make([]int, numGroups) // a representative state per group
	for i := range rep {
		rep[i] = -1
	}
	for s := 0; s < r.numStates; s++ {
		if rep[group[s]] == -1 {
			rep[group[s]] = s
		}
	}

	// Renumber groups so accepting ones form a contiguous tail, keeping
	// the fast accept test of the engine.
	perm, acceptStart := acceptTail(numGroups, func(g int) bool { return uint32(rep[g]) >= r.acceptStart })

	k := r.k
	out := &rows{
		numStates:   numGroups,
		start:       perm[group[r.start]],
		next:        make([]uint32, numGroups*k),
		k:           k,
		classOf:     r.classOf,
		acceptStart: acceptStart,
		accepts:     make([][]int32, uint32(numGroups)-acceptStart),
	}
	for g, s := range rep {
		base := int(perm[g]) * k
		for c, to := range r.next[s*k : (s+1)*k] {
			out.next[base+c] = perm[group[to]]
		}
		if m := r.matches(uint32(s)); m != nil {
			out.accepts[perm[g]-acceptStart] = slices.Clone(m)
		}
	}
	return out
}

func int32sKey(ids []int32) string {
	buf := make([]byte, 4*len(ids))
	for i, id := range ids {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(id))
	}
	return string(buf)
}
