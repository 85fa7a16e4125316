package dfa

import "math/bits"

// The block walk's shape (DESIGN.md §13): a block is two halves of
// blockHalf bytes walked as two interleaved chains, the second started from
// the state guessLen bytes of walking reach from the block's entry state.
// Both were read off BenchmarkStrip's sweep (EXPERIMENTS.md "Two chains per
// flow") and are constants, not options.
const (
	blockHalf = 64
	guessLen  = 8

	// BlockLen is the most WalkBlock advances a flow by in one call: the
	// caller drains a block's accept visits before it walks the next.
	BlockLen = 2 * blockHalf
)

// Block is what WalkBlock records of the bytes it walked: Rows[i] is the
// row base after byte i, and bit i%64 of Accepts[i/64] is set when that
// state accepts. Entries beyond the bytes walked are left as they were.
type Block struct {
	Rows    [BlockLen]uint32
	Accepts [BlockLen / 64]uint64
}

// WalkBlock is the sequential walk kernel, one flow at a time; WalkLanes is
// its multi-flow sibling (DESIGN.md §13). Over the ScanTable
// views it walks the first BlockLen bytes of w (all of a shorter w) from
// row base st, records each byte's row base and accept flag in b, and
// returns the row base it reached.
//
// Record, then drain: the kernel decides nothing on the state it loads. It
// stores every row base at an address no state moves and folds the accept
// compare into a mask word: (st−scaledAccept)>>63 is 1 exactly when st does
// not accept; it is or-ed into bit 0 and the word rotated right by one, so
// after 64 bytes byte i's flag is bit i and the word is inverted once. That
// is a subtract, a shift, an or and a rotate a byte, with no flag
// instruction and no 64-bit constant — the and with 1<<63 of the obvious
// form takes a register, and the second chain spills for want of it. The
// caller walks the set bits.
//
// Two chains: a walk is a chain of dependent loads, one per byte. A full
// block is walked as two: chain A from st over the first half, chain B
// over the second from a guess — the state reached by walking the guessLen
// bytes before the half from st. A decomposed automaton forgets all but
// its last few bytes (the filter holds the long-range memory), so A almost
// always arrives where B's guess started, and B's half is then exact as
// recorded: the DFA is deterministic. When it does not, the second half is
// walked again from A's state, rows and mask bits rewritten, until the
// walk meets a state B recorded at the same offset; from there on B's
// record is the true walk. Inputs shorter than a block take one chain.
//
// It must stay a leaf of its own: inlined into a Feed loop the register
// allocator parks the chains on the stack across the drain's calls (CI's
// bench-smoke job checks the disassembly for the TEXT symbol and for the
// folded flags, whose place a jump on the accept compare would take).
//
//go:noinline
func WalkBlock(trans []uint32, classMap []uint8, st, scaledAccept uint32, w []byte, b *Block) (end uint32) {
	// Checked once here, not per byte: the class map covers every byte
	// value and b is not nil.
	classOf := (*[256]uint8)(classMap)
	_ = b.Rows[0]
	sa := uint64(scaledAccept)
	var m uint64
	if len(w) < BlockLen {
		for i := range w {
			st = trans[st+uint32(classOf[w[i]])]
			b.Rows[i&(BlockLen-1)] = st
			m = bits.RotateLeft64(m|(uint64(st)-sa)>>63, -1)
			if i&63 == 63 || i == len(w)-1 { // a short last word is shifted down to its bytes
				b.Accepts[i>>6&(BlockLen/64-1)] = ^m >> (63 - i&63)
				m = 0
			}
		}
		return st
	}
	w = w[:BlockLen]

	guess := st
	for _, c := range w[blockHalf-guessLen : blockHalf] {
		guess = trans[guess+uint32(classOf[c])]
	}
	x, y := st, guess
	var my uint64
	for i := 0; i < blockHalf; i++ {
		x = trans[x+uint32(classOf[w[i]])]
		y = trans[y+uint32(classOf[w[blockHalf+i]])]
		b.Rows[i], b.Rows[blockHalf+i] = x, y
		m = bits.RotateLeft64(m|(uint64(x)-sa)>>63, -1)
		my = bits.RotateLeft64(my|(uint64(y)-sa)>>63, -1)
		if i&63 == 63 {
			j := i >> 6 & (blockHalf/64 - 1)
			b.Accepts[j], b.Accepts[j+blockHalf/64] = ^m, ^my
			m, my = 0, 0
		}
	}
	if x == guess {
		return y
	}

	// The guess missed: walk the second half from A's state until it meets
	// B's record. Bits of the word in progress are rebuilt in m and merged
	// below the offset where the walks meet.
	for i := blockHalf; i < BlockLen; i++ {
		x = trans[x+uint32(classOf[w[i]])]
		if x == b.Rows[i] {
			low := uint64(1)<<(i&63) - 1
			b.Accepts[i>>6] = b.Accepts[i>>6]&^low | ^m>>(64-i&63)
			return y
		}
		b.Rows[i] = x
		m = bits.RotateLeft64(m|(uint64(x)-sa)>>63, -1)
		if i&63 == 63 {
			b.Accepts[i>>6], m = ^m, 0
		}
	}
	return x
}

// LaneLen is the most WalkLanes advances each of its lanes by in one call.
const LaneLen = 64

// Lanes is what WalkLanes records of a strip of n bytes, right-aligned:
// Rows[k][LaneLen-n+i] is lane k's row base after its byte i, so
// Rows[k][LaneLen-1] is the row base the lane reached. Entries before the
// strip are left as they were.
type Lanes struct {
	Rows [4][LaneLen]uint32
	in   [4][LaneLen]byte // the windows side by side: one register addresses all four
}

// WalkLanes is the multi-flow walk kernel, WalkBlock's sibling behind
// FlowBatcher's lockstep loop (DESIGN.md §13/§18): four flows over one
// table, one chain each, so four independent table loads are in flight a
// byte. Each w[k] is lane k's window, all four of one length, and the strip
// walked is w[k][at:], n ≥ 1 bytes of it (LaneLen when more are left);
// st[k] is the row base lane k starts from. Every row base is recorded in
// rec, and the returned fold's bit 63 is clear when some lane visited an
// accept state — the caller drains rec only then.
//
// Record, then drain, as in WalkBlock: the kernel decides nothing on the
// states it loads. The accept compare of all four lanes is folded into one
// word, m &= (a−sa)&(b−sa)&(c−sa)&(d−sa): a lane's difference has bit 63
// set exactly when its state does not accept. One word rather than a mask
// per lane, the windows copied side by side into rec, the strip ending at
// a constant offset and the end states left in the record rather than
// written through st: each of these frees a register, and without any one
// of them a chain spills to the stack. Which byte accepted is read back
// from the rows.
//
// It must stay a leaf of its own, for the reason WalkBlock does (CI's
// bench-smoke job checks that lockstep calls it and that the fold holds no
// flag instruction).
//
//go:noinline
func WalkLanes(trans []uint32, classMap []uint8, scaledAccept uint32, st *[4]uint32, w *[4][]byte, at int, rec *Lanes) (fold uint64) {
	classOf := (*[256]uint8)(classMap)
	lo := 0
	if n := len(w[0]) - at; n >= LaneLen {
		for k := range rec.in {
			rec.in[k] = [LaneLen]byte(w[k][at:])
		}
	} else {
		lo = LaneLen - n
		for k := range rec.in {
			copy(rec.in[k][lo:], w[k][at:at+n])
		}
	}
	a, b, c, d := st[0], st[1], st[2], st[3]
	sa := uint64(scaledAccept)
	m := ^uint64(0)
	for i := lo; i < LaneLen; i++ {
		a = trans[a+uint32(classOf[rec.in[0][i]])]
		b = trans[b+uint32(classOf[rec.in[1][i]])]
		c = trans[c+uint32(classOf[rec.in[2][i]])]
		d = trans[d+uint32(classOf[rec.in[3][i]])]
		rec.Rows[0][i], rec.Rows[1][i], rec.Rows[2][i], rec.Rows[3][i] = a, b, c, d
		m &= (uint64(a) - sa) & (uint64(b) - sa) & (uint64(c) - sa) & (uint64(d) - sa)
	}
	return m
}
