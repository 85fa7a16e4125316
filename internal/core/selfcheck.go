// Pre-swap validation of compiled automata.
//
// A daemon that hot-reloads its pattern set must never let a bad image
// take down live traffic: decoding (ReadMFA) proves the bytes parse,
// but only actually *scanning* proves the transition table, decision
// sets and filter program cooperate without walking out of bounds.
// SelfCheck is that gate — it drives a runner over a built-in
// deterministic trace under a panic guard and verifies the §III-B
// context contract (save mid-stream, restore into a fresh runner,
// identical match tail) before the caller swaps the automaton in.

package core

import (
	"fmt"
	"sync"

	"matchfilter/internal/filter"
)

// selfCheckBytes is the built-in trace length. Large enough to push a
// runner through many states (including accept paths for protocol-ish
// rules seeded by the ASCII overlay), small enough that a reload
// validation costs well under a millisecond on the sets of Table V.
const selfCheckBytes = 64 << 10

// selfCheckTrace returns the deterministic validation input: xorshift
// noise covering the full byte alphabet, periodically interleaved with
// protocol-flavoured ASCII so rule sets anchored on printable text also
// visit their accept states. It is built once per process and shared, so
// callers must not modify it.
var selfCheckTrace = sync.OnceValue(func() []byte {
	const overlay = "GET /index.html HTTP/1.1\r\nHost: example.com\r\nUser-Agent: selfcheck\r\n\r\n" +
		"attack evil root admin select union passwd cmd.exe /bin/sh 0123456789 "
	buf := make([]byte, 0, selfCheckBytes)
	s := uint64(0x9e3779b97f4a7c15)
	for len(buf) < selfCheckBytes {
		for i := 0; i < 97 && len(buf) < selfCheckBytes; i++ {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			buf = append(buf, byte(s>>33))
		}
		buf = append(buf, overlay...)
	}
	return buf[:selfCheckBytes]
})

// SelfCheck validates that the automaton can serve: it scans the
// built-in trace start to finish (any panic — e.g. a corrupt transition
// entry escaping the decode-time checks — is caught and returned as an
// error), and verifies the flow-context round trip that multiplexed
// serving depends on: a context saved mid-stream and restored into a
// fresh runner must reproduce the exact remaining match stream, and an
// out-of-range context must be rejected. A nil return means the image
// is safe to swap into live shards.
func (m *MFA) SelfCheck() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: self-check panic: %v", r)
		}
	}()

	data := selfCheckTrace()
	head, tail := data[:len(data)/2], data[len(data)/2:]
	r := m.NewRunner()
	var full []MatchEvent
	collect := func(out *[]MatchEvent) MatchFunc {
		return func(id int32, pos int64) {
			*out = append(*out, MatchEvent{RuleID: id, Pos: pos})
		}
	}
	r.Feed(head, collect(&full))
	state, mem, regs, ctrs := r.Context()
	pos := r.Pos()
	headMatches := len(full)
	r.Feed(tail, collect(&full))

	r2 := m.NewRunner()
	if err := r2.SetContext(state, mem, regs, ctrs, pos); err != nil {
		return fmt.Errorf("core: self-check: restoring a just-saved context: %w", err)
	}
	var got []MatchEvent
	r2.Feed(tail, collect(&got))
	want := full[headMatches:]
	if len(got) != len(want) {
		return fmt.Errorf("core: self-check: context round trip produced %d matches, want %d",
			len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("core: self-check: context round trip diverged at match %d: got %v want %v",
				i, got[i], want[i])
		}
	}

	if err := m.NewRunner().SetContext(uint32(m.stats.DFAStates), nil, nil, nil, 0); err == nil {
		return fmt.Errorf("core: self-check: out-of-range context was not rejected")
	}
	if n := m.prog.CountersLen(); n > 0 {
		// A counter image claiming a base beyond the restore position must
		// be rejected — it would break the record path's window arithmetic
		// in the hot loop. Word 0 is a base, or an open counter's witness
		// plus one: 2 is beyond position 0 as either.
		bad := make(filter.Counters, n)
		bad[0] = 2
		if err := m.NewRunner().SetContext(0, nil, nil, bad, 0); err == nil {
			return fmt.Errorf("core: self-check: future-based counter context was not rejected")
		}
	}
	return nil
}
