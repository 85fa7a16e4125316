package dfa

// StripLen is the strip length of the sequential walk: Strip advances a
// flow by at most StripLen bytes and records where it accepted, and the
// caller drains those visits before the next strip. It is the width of
// the accept mask, one bit a byte; the 256-byte row buffer sits in L1
// beside the class map, and 64 bytes amortize the call to a fraction of a
// cycle a byte.
const StripLen = 64

// Strip is the sequential walk kernel, the one copy of the byte step
// outside FlowBatcher's lockstep loop (DESIGN.md §13). Over the ScanTable
// views it walks the first StripLen bytes of w (all of a shorter w) from
// row base st and returns the row base it reached; rows[i] is the row
// base after byte i, and bit i of accepts is set when that state accepts.
// Entries of rows beyond the bytes walked are left as they were.
//
// Record, then drain: the walk is a chain of dependent loads, and anything
// conditional on a loaded state — a call into the filter, or just the
// mispredicted branch around one — stalls the chain at one byte in ten on
// match-dense text. So the kernel decides nothing: it stores every state
// at an address that does not depend on any of them and folds the accept
// compare into the mask as a flag (SETcc, shift, or). The caller walks the
// set bits afterwards, off the chain.
//
// It must stay a leaf of its own: inlined into a Feed loop the register
// allocator parks st on the stack across the drain's calls, and compiled
// with a jump on the accept compare it is the loop it replaced (CI's
// bench-smoke job checks the disassembly).
//
//go:noinline
func Strip(trans []uint32, classMap []uint8, st, scaledAccept uint32, w []byte, rows *[StripLen]uint32) (end uint32, accepts uint64) {
	// Checked once here, not per byte: the class map covers every byte
	// value and rows is not nil.
	classOf := (*[256]uint8)(classMap)
	_ = rows[0]
	for i := 0; i < StripLen && i < len(w); i++ {
		st = trans[st+uint32(classOf[w[i]])]
		rows[i] = st
		var hit uint64
		if st >= scaledAccept {
			hit = 1
		}
		accepts |= hit << uint(i)
	}
	return st, accepts
}
