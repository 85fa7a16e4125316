// Buffer arena: the zero-copy half of the handoff contract.
//
// Sources lease a buffer, read a frame or payload into it, and pass the
// lease to the sink as the segment's pcap.Owner; the engine's shard
// releases it after the scan (the assembler copies anything it must
// retain, so post-scan release is safe). Leases are carved out of slabs:
// one pooled allocation per size class holds a run of frames back to back
// together with their Buf headers, so the pool round trip and the shared
// counters are touched once per slab, a lease is a bump of the slab's
// cursor, and a release is one atomic decrement that hands the slab back
// when its last frame returns. N concurrent sources keep a working set
// proportional to in-flight segments — queue depth, not traffic — instead
// of allocating per packet.
package input

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// arenaClasses are the lease size classes. Most Ethernet frames fit the
// first class; socket reads and jumbo captures use the larger ones.
// Leases beyond the last class fall back to a plain allocation that is
// handed to the garbage collector on release.
var arenaClasses = [...]int{2 << 10, 16 << 10, 64 << 10, 256 << 10}

// slabBytes is the slab size the frame count of a class aims for; the
// largest classes still get two frames, so a slab always amortizes
// something.
const slabBytes = 64 << 10

// slabBias is a current slab's reference count before any release: far
// above any frame count, so releases of a slab still being carved never
// reach zero.
const slabBias = 1 << 30

// slab is one pooled allocation: frames of one class back to back, and
// the Buf headers that lease them.
type slab struct {
	arena *Arena
	class int // index into arenaClasses; -1 = oversize, one frame, GC-owned
	frame int // bytes per frame
	mem   []byte
	bufs  []Buf
	// carved counts the frames handed out since the slab became current;
	// written under the arena's mu, fixed once the slab is retired.
	carved int
	// refs is slabBias minus the releases so far while the slab is current.
	// Retiring it trades the bias for the frames carved, leaving the
	// leases still out — live, written just before that trade — and the
	// release that takes refs to zero returns the slab.
	refs atomic.Int64
	live int64
}

// Arena leases payload buffers carved from size-classed, pooled slabs.
// The zero value is ready to use; an Arena must not be copied after first
// use.
type Arena struct {
	// mu guards the carving side: each class's current slab and the two
	// counters a lease bumps. It is held for a cursor bump, or once per
	// slab for the swap.
	mu     sync.Mutex
	cur    [len(arenaClasses)]*slab
	leases int64
	misses int64 // fresh allocations: a slab pool miss, or an oversize lease

	pools [len(arenaClasses)]sync.Pool // fully released slabs

	// releases and bytesOut move once per slab — when it is retired and
	// when its last lease returns — and Stats adds what the slabs still
	// being carved know exactly. A slab retired with leases out reports
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

// BytesLeased reports the bytes currently out on lease (buffer
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

// Data returns the leased storage, sized as requested by Lease. Its
// capacity may be larger (the size class).
func (b *Buf) Data() []byte { return b.data }

// Release returns the buffer to the arena: a double-release check and one
// decrement of its slab's count. Safe to call from any goroutine; only
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
	if sl.refs.Add(-1) == 0 {
		sl.arena.returned(sl)
	}
}

// returned settles a retired slab whose last lease came back.
func (a *Arena) returned(sl *slab) {
	a.releases.Add(sl.live)
	a.bytesOut.Add(-sl.live * int64(sl.frame))
	if sl.class >= 0 { // oversize: let the GC have it
		a.pools[sl.class].Put(sl)
	}
}

// newSlab allocates a slab of n frames of frame bytes each.
func (a *Arena) newSlab(class, n, frame int) *slab {
	sl := &slab{arena: a, class: class, frame: frame, mem: make([]byte, n*frame), bufs: make([]Buf, n)}
	for i := range sl.bufs {
		sl.bufs[i].slab = sl
	}
	return sl
}

// next retires a class's exhausted slab and returns the one to carve
// from now. Caller holds a.mu.
func (a *Arena) next(class int) *slab {
	sl := a.cur[class]
	if sl != nil {
		// Trade the bias for the frames carved. live must be in place
		// before the trade lets a release see zero, hence the CAS.
		for {
			r := sl.refs.Load()
			sl.live = r - slabBias + int64(sl.carved)
			if sl.refs.CompareAndSwap(r, sl.live) {
				break
			}
		}
		a.releases.Add(int64(sl.carved) - sl.live)
		a.bytesOut.Add(sl.live * int64(sl.frame))
	}
	if sl == nil || sl.live > 0 { // else every frame is back already: carve it again
		if v := a.pools[class].Get(); v != nil {
			sl = v.(*slab)
		} else {
			a.misses++
			frame := arenaClasses[class]
			sl = a.newSlab(class, max(slabBytes/frame, 2), frame)
		}
	}
	sl.carved = 0
	sl.refs.Store(slabBias)
	a.cur[class] = sl
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
	class := -1
	for i, size := range arenaClasses {
		if n <= size {
			class = i
			break
		}
	}
	a.mu.Lock()
	a.leases++
	if class < 0 {
		a.misses++
		a.mu.Unlock()
		// A slab of its own, born retired with its one lease out.
		a.bytesOut.Add(int64(n))
		sl := a.newSlab(-1, 1, n)
		sl.live = 1
		sl.refs.Store(1)
		b := &sl.bufs[0]
		b.data, b.origin = sl.mem, origin
		return b
	}
	sl := a.cur[class]
	if sl == nil || sl.carved == len(sl.bufs) {
		sl = a.next(class)
	}
	b := &sl.bufs[sl.carved]
	off := sl.carved * sl.frame
	sl.carved++
	a.mu.Unlock()
	b.data = sl.mem[off : off+n : off+sl.frame]
	b.origin = origin
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
	for _, sl := range a.cur {
		if sl != nil {
			released := slabBias - sl.refs.Load()
			st.Releases += released
			st.BytesLeased += (int64(sl.carved) - released) * int64(sl.frame)
		}
	}
	a.mu.Unlock()
	return st
}
