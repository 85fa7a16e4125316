package dfa

import "math/bits"

// The sequential walk's shape (DESIGN.md §13): a block is four quarters of
// quarterLen bytes walked as four interleaved chains, each after the first
// started from the state guessLen bytes of walking reach from the block's
// entry state. Both were read off BenchmarkStrip's sweep (EXPERIMENTS.md
// "Four chains per flow") and are constants, not options.
const (
	quarterLen = 64
	guessLen   = 4

	// BlockLen is the most WalkQuarters advances a flow by in one call: the
	// caller drains a block's accept visits before it walks the next.
	BlockLen = 4 * quarterLen

	// An input shorter than four quarters of minQuarter bytes takes one
	// chain: a quarter must hold the guess window before the next.
	minQuarter = 16
)

// Quarters is what WalkQuarters records of the bytes it walked, one
// quarter of quarterLen rows per chain, right-aligned: a call of four
// quarters of q bytes fills Rows[64j+64−q, 64j+64) for quarter j, a call of
// one chain over n bytes Rows[64−n, 64). Bit i of Accepts[j] is set when
// the state in Rows[64j+i] accepts, and Offset(64j+i) is the offset of the
// byte that reached it in the bytes walked. Rows outside the bytes walked
// are left as they were.
//
// WalkLanes records into the same shape, one quarter a lane: lane k's rows
// are Rows[64k+i], right-aligned as a one-quarter-a-chain call's.
type Quarters struct {
	Rows    [BlockLen]uint32
	Accepts [4]uint64
	n, q    int // bytes walked; bytes each quarter holds

	// The quarters side by side, right-aligned as their rows, when they are
	// not a whole block of one input: a tail's, or four lanes' windows. One
	// register then addresses the bytes and the rows.
	in [BlockLen]byte
}

// Len returns how many bytes of its input the last WalkQuarters call
// walked: BlockLen, four equal quarters of a shorter input (its last
// n mod 4 bytes left for the next call), or all of an input too short for
// four chains.
func (rec *Quarters) Len() int { return rec.n }

// Offset returns the offset, in the bytes walked, of the byte whose row is
// Rows[i]: i itself for a whole block.
func (rec *Quarters) Offset(i int) int {
	return (i/quarterLen+1)*rec.q + i%quarterLen - quarterLen
}

// WalkQuarters is the sequential walk kernel, one flow at a time; WalkLanes
// is its multi-flow sibling (DESIGN.md §13). Over the ScanTable views it
// walks a block of w from row base st — BlockLen bytes, or as many of a
// shorter w as Len reports — records each byte's row base and accept flag
// in rec, and returns the row base it reached.
//
// Four chains: a walk is a chain of dependent loads, one per byte. A block
// is walked as four quarters, interleaved in one loop (walkChains): chain A
// from st, chains B, C and D from guesses — the states reached by walking
// the guessLen bytes before quarters 1, 2 and 3 from st. A decomposed
// automaton forgets all but its last few bytes (the filter holds the
// long-range memory), so the true walk almost always enters a quarter
// where its guess started, and that quarter is then exact as recorded: the
// DFA is deterministic. The quarters are checked in order; where the true
// state entering one differs from its guess, the quarter is walked again
// from the true state, rows rewritten, until the walk meets a row recorded
// at the same offset; from there on the record is the true walk. A shorter
// input of at least four quarters of minQuarter bytes is walked as four
// quarters of ⌊n/4⌋ bytes, copied right-aligned into quarterLen-byte slots;
// the n mod 4 bytes left over are the next call's. A shorter input still
// takes one chain.
//
// Record, then drain: nothing decides on a state inside the walk. The
// accept flags come after it, from a carry pass over the corrected rows
// (Carry), and the caller walks their set bits: bit i of Accepts[j] names
// Rows[64j+i], one index for the row and, through Offset, the byte.
func WalkQuarters(trans []uint32, classMap []uint8, st, scaledAccept uint32, w []byte, rec *Quarters) (end uint32) {
	classOf := (*[256]uint8)(classMap)
	rows := &rec.Rows
	if len(w) < 4*minQuarter {
		lo := quarterLen - len(w)
		for i, c := range w {
			st = trans[st+uint32(classOf[c])]
			rows[(lo+i)&(quarterLen-1)] = st
		}
		sa, m := uint64(scaledAccept), ^uint64(0)
		for i := quarterLen; i > lo; {
			i--
			_, b := bits.Sub64(uint64(rows[i&(quarterLen-1)]), sa, 0)
			m, _ = bits.Add64(m, m, b)
		}
		rec.n, rec.q = len(w), len(w)
		rec.Accepts = [4]uint64{^m << lo}
		return st
	}

	q, in := quarterLen, (*[BlockLen]byte)(nil)
	if len(w) >= BlockLen {
		in = (*[BlockLen]byte)(w)
	} else {
		q, in = len(w)/4, &rec.in
		for j := range 4 {
			copy(in[j*quarterLen+quarterLen-q:(j+1)*quarterLen], w[j*q:])
		}
	}
	lo := quarterLen - q

	// The three guesses, interleaved: each walks the last guessLen bytes of
	// the quarter before its own.
	g1, g2, g3 := st, st, st
	for i := quarterLen - guessLen; i < quarterLen; i++ {
		g1 = trans[g1+uint32(classOf[in[i]])]
		g2 = trans[g2+uint32(classOf[in[quarterLen+i]])]
		g3 = trans[g3+uint32(classOf[in[2*quarterLen+i]])]
	}
	walkChains(trans, classOf, lo, st, g1, g2, g3, in, rows)

	// Check quarters 1, 2 and 3 in order: the true state entering a quarter
	// is the last row of the one before, exact by the time it is read.
	for j, guess := range [3]uint32{g1, g2, g3} {
		at := (j + 1) * quarterLen // the quarter's first row
		x := rows[at-1]
		if x == guess {
			continue
		}
		for i := at + lo; i < at+quarterLen; i++ {
			x = trans[x+uint32(classOf[in[i]])]
			if x == rows[i] {
				break
			}
			rows[i] = x
		}
	}
	rec.n, rec.q = 4*q, q
	rec.Carry(q, scaledAccept)
	return rows[BlockLen-1]
}

// walkChains walks chain A from a over in[lo:64), B from b over
// in[64+lo:128), C from c over in[128+lo:192) and D from d over
// in[192+lo:256), four dependent loads in flight a step, and stores each
// row base at the same index of rows. It records rows only: the guess, the
// check and the accept flags sit around it, so the loop holds the table,
// the class map, the two records, the index and the four chains — nothing
// else stays live, and no chain spills.
//
// It must stay a leaf of its own: inlined into WalkQuarters or a Feed loop
// the register allocator parks the chains on the stack (CI's bench-smoke
// job checks the disassembly for the TEXT symbol and for a flag
// instruction on its walk lines).
//
//go:noinline
func walkChains(trans []uint32, classOf *[256]uint8, lo int, a, b, c, d uint32, in *[BlockLen]byte, rows *[BlockLen]uint32) {
	_, _, _ = classOf[0], in[0], rows[0] // nil-checked once, not a step
	for i := lo & (quarterLen - 1); i < quarterLen; i++ {
		a = trans[a+uint32(classOf[in[i]])]
		b = trans[b+uint32(classOf[in[quarterLen+i]])]
		c = trans[c+uint32(classOf[in[2*quarterLen+i]])]
		d = trans[d+uint32(classOf[in[3*quarterLen+i]])]
		rows[i], rows[quarterLen+i], rows[2*quarterLen+i], rows[3*quarterLen+i] = a, b, c, d
	}
}

// Carry is the carry pass: Accepts[j] from the last q rows of quarter j,
// Rows[64j+64−q, 64j+64), bit i set when Rows[64j+i] ≥ scaledAccept and
// every bit below 64−q clear. WalkQuarters runs it on every block, lockstep
// on a strip whose fold fired. Row by row from the last, the borrow of
// row − scaledAccept (1 exactly when the row does not accept) is shifted
// into the word with an add-with-carry, m = 2m + borrow: a load, a SUBQ and
// an ADCQ a row, no branch and no flag materialized, the four words four
// independent chains. A word starts all ones, so once inverted the bits
// above a short quarter's rows are clear, and a shift by 64−q puts each bit
// at its row's index.
func (rec *Quarters) Carry(q int, scaledAccept uint32) {
	rows, sa, lo := &rec.Rows, uint64(scaledAccept), quarterLen-q
	m0, m1, m2, m3 := ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
	for i := quarterLen; i > lo; {
		i--
		k := i & (quarterLen - 1) // the mask only tells the compiler k is in range
		_, b := bits.Sub64(uint64(rows[k]), sa, 0)
		m0, _ = bits.Add64(m0, m0, b)
		_, b = bits.Sub64(uint64(rows[quarterLen+k]), sa, 0)
		m1, _ = bits.Add64(m1, m1, b)
		_, b = bits.Sub64(uint64(rows[2*quarterLen+k]), sa, 0)
		m2, _ = bits.Add64(m2, m2, b)
		_, b = bits.Sub64(uint64(rows[3*quarterLen+k]), sa, 0)
		m3, _ = bits.Add64(m3, m3, b)
	}
	rec.Accepts = [4]uint64{^m0 << lo, ^m1 << lo, ^m2 << lo, ^m3 << lo}
}

// WalkLanes is the multi-flow walk kernel, WalkQuarters' sibling behind
// FlowBatcher's lockstep loop (DESIGN.md §13/§18): four flows over one
// table, one chain each, so four independent table loads are in flight a
// byte. Each w[k] is lane k's window, all four of one length, and the strip
// walked is w[k][at:], n ≥ 1 bytes of it (a quarter's 64 when more are
// left); st[k] is the row base lane k starts from. Lane k's rows go to
// quarter k of rec, right-aligned — Rows[64k+64−n+i] after its byte i, so
// Rows[64k+63] is the row base it reached — and the returned fold's bit 63
// is clear when some lane visited an accept state: the caller then builds
// the accept words with rec.Carry(n, scaledAccept) and drains them.
//
// Record, then drain, as in WalkQuarters: the kernel decides nothing on the
// states it loads. The accept compare of all four lanes is folded into one
// word, m &= (a−sa)&(b−sa)&(c−sa)&(d−sa): a lane's difference has bit 63
// set exactly when its state does not accept. One word rather than a mask
// per lane, the windows copied side by side into rec, the strip ending at
// a constant offset and the end states left in the record rather than
// written through st: each of these frees a register, and without any one
// of them a chain spills to the stack. The carry pass stays out of the loop
// (one leaf for both walks, with or without the fold, lost: DESIGN.md §13).
//
// It must stay a leaf of its own, for the reason walkChains does (CI's
// bench-smoke job checks that lockstep calls it and that the fold holds no
// flag instruction).
//
//go:noinline
func WalkLanes(trans []uint32, classMap []uint8, scaledAccept uint32, st *[4]uint32, w *[4][]byte, at int, rec *Quarters) (fold uint64) {
	classOf := (*[256]uint8)(classMap)
	lo := 0
	if n := len(w[0]) - at; n >= quarterLen {
		for k := range 4 {
			*(*[quarterLen]byte)(rec.in[k*quarterLen:]) = [quarterLen]byte(w[k][at:])
		}
	} else {
		lo = quarterLen - n
		for k := range 4 {
			copy((*[quarterLen]byte)(rec.in[k*quarterLen:])[lo:], w[k][at:at+n])
		}
	}
	a, b, c, d := st[0], st[1], st[2], st[3]
	sa := uint64(scaledAccept)
	m := ^uint64(0)
	for i := lo & (quarterLen - 1); i < quarterLen; i++ {
		a = trans[a+uint32(classOf[rec.in[i]])]
		b = trans[b+uint32(classOf[rec.in[quarterLen+i]])]
		c = trans[c+uint32(classOf[rec.in[2*quarterLen+i]])]
		d = trans[d+uint32(classOf[rec.in[3*quarterLen+i]])]
		rec.Rows[i], rec.Rows[quarterLen+i], rec.Rows[2*quarterLen+i], rec.Rows[3*quarterLen+i] = a, b, c, d
		m &= (uint64(a) - sa) & (uint64(b) - sa) & (uint64(c) - sa) & (uint64(d) - sa)
	}
	return m
}
