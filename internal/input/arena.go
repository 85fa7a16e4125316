// Buffer arena: the zero-copy half of the handoff contract.
//
// Sources lease a buffer, read a frame or payload into it, and pass the
// lease to the sink as the segment's pcap.Owner; the engine's shard
// releases it after the scan (the assembler copies anything it must
// retain, so post-scan release is safe). Leases are carved out of slabs:
// one pooled allocation holds leases of any size back to back, each
// rounded up to a cache line, together with their Buf headers, so the
// pool round trip and the shared counters are touched once per slab, a
// lease is a bump of the slab's cursor, and a release is one atomic add
// that hands the slab back when its last lease returns. N concurrent
// sources keep a working set proportional to in-flight segments — queue
// depth, not traffic — instead of allocating per packet.
package input

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// A lease takes its length rounded up to a whole cache line, at least one
// line, so leases carved back to back share no line: a 150-byte frame
// takes 192 bytes, a 1,514-byte one 1,536. A slab holds slabBytes of
// leases and slabBufs Buf headers: a maximal IPv4 frame (65,549 bytes)
// fits, so every frame a source reads is pooled, and 512 headers fill it
// with 192-byte leases. A longer lease is a plain allocation that the
// garbage collector takes on release.
const (
	lineBytes = 64
	slabBytes = 96 << 10
	slabBufs  = 512
)

// A slab's reference count packs leases above bytes, so a release is one
// atomic add of leaseUnit plus the lease's capacity, and split reads both
// back. slabBias is a current slab's count before any release: far above
// anything a slab carves, so releases of a slab still being carved never
// reach zero.
const (
	leaseUnit = 1 << 32
	slabBias  = 1 << 62
)

// split unpacks a reference count into leases and bytes.
func split(v int64) (leases, bytes int64) { return v / leaseUnit, v % leaseUnit }

// slab is one pooled allocation: leases back to back in arrival order,
// and the Buf headers that lease them.
type slab struct {
	arena *Arena
	mem   []byte
	bufs  []Buf
	// carved and off count the leases and bytes handed out while the
	// slab is current, under the arena's mu.
	carved, off int
	// refs is slabBias minus the releases so far while the slab is
	// current. Retiring it trades the bias for what was carved, leaving
	// what is still out — live, written just before that trade — and the
	// release that takes refs to zero returns the slab.
	refs atomic.Int64
	live int64
}

// Arena leases payload buffers carved from pooled slabs. The zero value
// is ready to use; an Arena must not be copied after first use.
type Arena struct {
	// mu guards the carving side: the current slab and the two counters
	// a lease bumps. It is held for a cursor bump, or once per slab for
	// the swap.
	mu     sync.Mutex
	cur    *slab
	leases int64
	misses int64 // fresh allocations: a slab pool miss, or an oversize lease

	pool sync.Pool // fully released slabs

	// releases and bytesOut move once per slab — when it is retired and
	// when its last lease returns — and Stats adds what the slab still
	// being carved knows exactly. A slab retired with leases out reports
	// those until the last of them is back, so the accounting (exposed as
	// telemetry by the supervisor, and to the memory governor) is exact
	// whenever nothing is in flight and lags by less than a slab per slab
	// in flight otherwise. doubleReleases counts Release called twice on
	// one lease — always a bug upstream, made harmless here (the second
	// call is a no-op) but counted so it is visible.
	releases       atomic.Int64
	bytesOut       atomic.Int64
	doubleReleases atomic.Int64

	// debug selects the double-release policy: 0 follows the build
	// (panic under -race, count otherwise), 1 forces panic-with-origin,
	// -1 forces counted-no-op. See SetDebug.
	debug atomic.Int32
}

// SetDebug overrides the double-release debug guard: enabled, a second
// Release on one lease panics with the lease's origin (file:line of the
// Lease call) instead of being a counted no-op. The default — without a
// SetDebug call — is enabled in race-instrumented builds (`go test
// -race`) and disabled otherwise.
func (a *Arena) SetDebug(enabled bool) {
	if enabled {
		a.debug.Store(1)
	} else {
		a.debug.Store(-1)
	}
}

func (a *Arena) debugOn() bool {
	switch a.debug.Load() {
	case 1:
		return true
	case -1:
		return false
	default:
		return raceEnabled
	}
}

// BytesLeased reports the bytes currently out on lease (line-rounded
// capacities, not requested lengths) — what the arena pins until the
// engine releases the buffers back.
func (a *Arena) BytesLeased() int64 { return a.Stats().BytesLeased }

// leaseOrigin names the first caller outside this file, for the
// double-release diagnostic.
func leaseOrigin() string {
	var pcs [8]uintptr
	n := runtime.Callers(3, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	for {
		f, more := frames.Next()
		if !strings.HasSuffix(f.File, "arena.go") {
			return fmt.Sprintf("%s:%d", f.File, f.Line)
		}
		if !more {
			return "unknown"
		}
	}
}

// Buf is one leased buffer. It implements pcap.Owner: Release returns
// the buffer to its arena exactly once; further calls are counted
// no-ops. A Buf must not be used after Release.
type Buf struct {
	slab     *slab
	data     []byte
	released atomic.Bool
	// origin is the file:line of the Lease call, captured only while
	// the debug guard is on, so a double-release panic names the lease
	// site rather than the second Release site.
	origin string
}

// Data returns the leased storage, sized as requested by Lease; its
// capacity is the lease's size in the arena's books.
func (b *Buf) Data() []byte { return b.data }

// Release returns the buffer to the arena: a double-release check and one
// atomic add to its slab's count. Safe to call from any goroutine; only
// the first call has effect.
func (b *Buf) Release() {
	sl := b.slab
	if b.released.Swap(true) {
		a := sl.arena
		a.doubleReleases.Add(1)
		if a.debugOn() {
			origin := b.origin
			if origin == "" {
				origin = "unknown (lease predates debug guard)"
			}
			panic(fmt.Sprintf("input: double release of arena buffer leased at %s", origin))
		}
		return
	}
	if sl.refs.Add(-(leaseUnit + int64(cap(b.data)))) == 0 {
		sl.arena.returned(sl)
	}
}

// returned settles a retired slab whose last lease came back.
func (a *Arena) returned(sl *slab) {
	leases, bytes := split(sl.live)
	a.releases.Add(leases)
	a.bytesOut.Add(-bytes)
	if len(sl.mem) == slabBytes { // else oversize: let the GC have it
		a.pool.Put(sl)
	}
}

// newSlab allocates a slab of size bytes and n Buf headers.
func (a *Arena) newSlab(size, n int) *slab {
	sl := &slab{arena: a, mem: make([]byte, size), bufs: make([]Buf, n)}
	for i := range sl.bufs {
		sl.bufs[i].slab = sl
	}
	return sl
}

// next retires the exhausted current slab and returns the one to carve
// from now. Caller holds a.mu.
func (a *Arena) next() *slab {
	sl := a.cur
	if sl != nil {
		// Trade the bias for what was carved. live must be in place
		// before the trade lets a release see zero, hence the CAS.
		carved := int64(sl.carved)*leaseUnit + int64(sl.off)
		for {
			r := sl.refs.Load()
			sl.live = r - slabBias + carved
			if sl.refs.CompareAndSwap(r, sl.live) {
				break
			}
		}
		released, _ := split(carved - sl.live)
		_, out := split(sl.live)
		a.releases.Add(released)
		a.bytesOut.Add(out)
	}
	if sl == nil || sl.live > 0 { // else every lease is back already: carve it again
		if v := a.pool.Get(); v != nil {
			sl = v.(*slab)
		} else {
			a.misses++
			sl = a.newSlab(slabBytes, slabBufs)
		}
	}
	sl.carved, sl.off = 0, 0
	sl.refs.Store(slabBias)
	a.cur = sl
	return sl
}

// Lease returns a buffer whose Data() has length n. The buffer must be
// handed to the sink as an Owner or released by the caller; losing it is
// not a leak (the GC reclaims it) but pins its slab and defeats the
// pooling.
func (a *Arena) Lease(n int) *Buf {
	origin := ""
	if a.debugOn() {
		origin = leaseOrigin()
	}
	size := max(n+lineBytes-1, lineBytes) &^ (lineBytes - 1)
	a.mu.Lock()
	a.leases++
	if size > slabBytes {
		a.misses++
		a.mu.Unlock()
		// A slab of its own, born retired with its one lease out.
		a.bytesOut.Add(int64(n))
		sl := a.newSlab(n, 1)
		sl.live = leaseUnit + int64(n)
		sl.refs.Store(sl.live)
		b := &sl.bufs[0]
		b.data, b.origin = sl.mem, origin
		return b
	}
	sl := a.cur
	if sl == nil || sl.carved == slabBufs || sl.off+size > slabBytes {
		sl = a.next()
	}
	b := &sl.bufs[sl.carved]
	off := sl.off
	sl.carved++
	sl.off += size
	a.mu.Unlock()
	b.data, b.origin = sl.mem[off:off+n:off+size], origin
	b.released.Store(false)
	return b
}

// ArenaStats is a point-in-time accounting snapshot.
type ArenaStats struct {
	Leases         int64
	Releases       int64
	Misses         int64
	DoubleReleases int64
	BytesLeased    int64
}

// Stats reads the arena's counters.
func (a *Arena) Stats() ArenaStats {
	a.mu.Lock() // no slab is retired meanwhile
	st := ArenaStats{
		Leases:         a.leases,
		Misses:         a.misses,
		Releases:       a.releases.Load(),
		DoubleReleases: a.doubleReleases.Load(),
		BytesLeased:    a.bytesOut.Load(),
	}
	if sl := a.cur; sl != nil {
		released, bytes := split(slabBias - sl.refs.Load())
		st.Releases += released
		st.BytesLeased += int64(sl.off) - bytes
	}
	a.mu.Unlock()
	return st
}
