package filter

import "slices"

// Quiet visits (DESIGN.md §21). On text, nearly every accept visit lands on
// a line end, whose decision set only forgets: the [X] ids of A[^X]*B and
// A[^X]{n,m}B clear guard bits and reset counters. A flow that holds none
// of those bits and has none of those counters live has nothing to forget,
// and such a visit changes nothing: a clear hits zero bits, a live guard
// fails, a reset touches only a counter whose live bit is clear — which,
// by the live summary's invariant (witness ⇒ live bit, §19), holds no
// witness — and nothing reports. A caller that knows the flow is quiet may
// skip the program.

// ResetOnly reports whether every op of ap only forgets: a clear, a live
// guard, or a reset of a windowed or an open counter. The empty program
// qualifies.
func (ap AcceptProgram) ResetOnly() bool {
	for _, o := range ap {
		switch o.kind {
		case opClearBits, opCtrLive, opCtrReset, opOpenReset:
		default:
			return false
		}
	}
	return true
}

// Quiet is what the reset-only programs of a set can forget: per memory
// word the bits they clear, per live word the counters they reset — the
// live words in the order a flow's Counters stores them, so that live
// lines up with its last len(live) words. It is immutable and shared by
// every flow.
type Quiet struct {
	mem, live []uint64
}

// NewQuiet returns the summary over the reset-only programs among progs.
func NewQuiet(progs []AcceptProgram) Quiet {
	var q Quiet
	for _, ap := range progs {
		if !ap.ResetOnly() {
			continue
		}
		for _, o := range ap {
			if o.kind == opClearBits {
				q.mem = orWord(q.mem, o.at, o.mask)
			} else {
				q.live = orWord(q.live, o.live, o.mask)
			}
		}
	}
	slices.Reverse(q.live) // live word w is the w-th from the end (Counters.liveWord)
	return q
}

// orWord ors mask into word i of ws, growing ws to reach it.
func orWord(ws []uint64, i int32, mask uint64) []uint64 {
	for int(i) >= len(ws) {
		ws = append(ws, 0)
	}
	ws[i] |= mask
	return ws
}

// Holds reports whether the flow state m, cs is quiet: no bit the summary
// masks is set and no counter it masks is live, so every reset-only
// program it was built over would leave memory, registers and counters as
// they are and report nothing. A nil cs has no counter to reset.
func (q *Quiet) Holds(m Memory, cs Counters) bool {
	m = m[:len(q.mem)]
	for w, mask := range q.mem {
		if m[w]&mask != 0 {
			return false
		}
	}
	if cs == nil {
		return true
	}
	cs = cs[len(cs)-len(q.live):]
	for w, mask := range q.live {
		if cs[w]&mask != 0 {
			return false
		}
	}
	return true
}
