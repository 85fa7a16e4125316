package input

import (
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestArenaLeaseSizing(t *testing.T) {
	var a Arena
	for _, n := range []int{0, 1, 100, 2 << 10, 2<<10 + 1, 16 << 10, 64 << 10, 256 << 10, 256<<10 + 1, 1 << 20} {
		b := a.Lease(n)
		if len(b.Data()) != n {
			t.Fatalf("Lease(%d): got %d bytes", n, len(b.Data()))
		}
		b.Release()
	}
	st := a.Stats()
	if st.Leases != st.Releases {
		t.Fatalf("lease/release imbalance: %+v", st)
	}
}

func TestArenaRecycles(t *testing.T) {
	var a Arena
	// Fill a slab and keep its leases out, so the next lease retires it
	// with leases out and allocates a second slab; once they are back the
	// first slab sits in the pool, and retiring the second (also with a
	// lease out) must take it from there rather than allocate. sync.Pool
	// may shed entries under GC pressure, so accept recycling on any of
	// a few attempts.
	recycled := false
	for i := 0; i < 8 && !recycled; i++ {
		first := make([]*Buf, slabBufs)
		for j := range first {
			first[j] = a.Lease(100)
		}
		held := a.Lease(1500) // retires the full slab
		if len(held.Data()) != 1500 {
			t.Fatalf("resized lease: got %d bytes", len(held.Data()))
		}
		for _, b := range first {
			b.Release()
		}
		var rest []*Buf
		before := a.Stats().Misses
		for j := 0; j < slabBufs; j++ { // fills the second slab and retires it
			rest = append(rest, a.Lease(100))
		}
		recycled = a.Stats().Misses == before
		held.Release()
		for _, b := range rest {
			b.Release()
		}
	}
	if !recycled {
		t.Fatal("pool never recycled a released slab")
	}
	if st := a.Stats(); st.Leases != st.Releases || st.BytesLeased != 0 {
		t.Fatalf("books do not balance: %+v", st)
	}
}

func TestArenaDoubleReleaseCounted(t *testing.T) {
	var a Arena
	a.SetDebug(false) // the counted-no-op production policy, not the panic guard
	b := a.Lease(64)
	b.Release()
	b.Release()
	st := a.Stats()
	if st.DoubleReleases != 1 {
		t.Fatalf("double releases: got %d, want 1", st.DoubleReleases)
	}
	if st.Releases != 1 {
		t.Fatalf("releases: got %d, want 1 (second call must be a no-op)", st.Releases)
	}
}

// TestArenaDoubleReleaseDebugGuard is the regression test for the debug
// guard: with the guard on, a second Release panics and the message
// names the file:line of the Lease call, so the bug is caught at its
// source instead of surfacing as a silently shared buffer.
func TestArenaDoubleReleaseDebugGuard(t *testing.T) {
	var a Arena
	a.SetDebug(true)
	b := a.Lease(64)
	b.Release()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("second Release did not panic with the debug guard on")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "double release") || !strings.Contains(msg, "arena_test.go:") {
			t.Fatalf("panic %v does not name the lease origin", r)
		}
	}()
	b.Release()
}

func TestArenaBytesLeased(t *testing.T) {
	var a Arena
	b1 := a.Lease(100)     // two lines
	b2 := a.Lease(3 << 10) // 48 lines exactly
	b3 := a.Lease(1 << 20) // oversize: exact
	want := int64(128 + 3<<10 + 1<<20)
	if got := a.BytesLeased(); got != want {
		t.Fatalf("BytesLeased with three leases out = %d, want %d", got, want)
	}
	b1.Release()
	b2.Release()
	b3.Release()
	if got := a.BytesLeased(); got != 0 {
		t.Fatalf("BytesLeased after all releases = %d, want 0", got)
	}
	if st := a.Stats(); st.BytesLeased != 0 {
		t.Fatalf("Stats.BytesLeased = %d, want 0", st.BytesLeased)
	}
}

// TestArenaOversizeBypassesSlabs: a lease longer than a slab is a
// plain allocation of its own — it shares no slab, counts as a miss, and
// goes to the garbage collector, not to a pool, on release.
func TestArenaOversizeBypassesSlabs(t *testing.T) {
	var a Arena
	small := a.Lease(100)
	b := a.Lease(1 << 20)
	if len(b.slab.bufs) != 1 || b.slab == small.slab {
		t.Fatalf("oversize lease rides a slab of %d headers", len(b.slab.bufs))
	}
	if cap(b.Data()) != 1<<20 {
		t.Fatalf("oversize lease holds %d bytes, want exactly what was asked", cap(b.Data()))
	}
	b.Release()
	small.Release()
	if st := a.Stats(); st.Misses != 2 || st.Leases != 2 || st.Releases != 2 || st.BytesLeased != 0 {
		t.Fatalf("after one slab lease and one oversize lease: %+v", st)
	}
	if a.cur == b.slab {
		t.Fatal("oversize slab became the current slab")
	}
}

// TestArenaFramesAreDisjoint: leases carved from one slab never overlap,
// whatever their lengths, and a lease cannot grow into its neighbour.
func TestArenaFramesAreDisjoint(t *testing.T) {
	var a Arena
	var bufs []*Buf
	for i := 0; i < 100; i++ { // about 100 KiB: crosses into a second slab
		b := a.Lease(1 + i*20)
		for j := range b.Data() {
			b.Data()[j] = byte(i)
		}
		if c, want := cap(b.Data()), (1+i*20+lineBytes-1)/lineBytes*lineBytes; c != want {
			t.Fatalf("lease %d: capacity %d, want its length rounded up to a line, %d", i, c, want)
		}
		bufs = append(bufs, b)
	}
	for i, b := range bufs {
		if len(b.Data()) != 1+i*20 {
			t.Fatalf("lease %d: %d bytes", i, len(b.Data()))
		}
		for _, c := range b.Data() {
			if c != byte(i) {
				t.Fatalf("lease %d was overwritten by a neighbour", i)
			}
		}
		b.Release()
	}
	if st := a.Stats(); st.Leases != 100 || st.Releases != 100 || st.BytesLeased != 0 {
		t.Fatalf("after 100 leases and releases: %+v", st)
	}
}

// TestArenaPacksByLine: small leases sit back to back in one slab, each
// rounded up to whole cache lines, so no two share a line and the books
// charge the rounded size, not a fixed slot.
func TestArenaPacksByLine(t *testing.T) {
	var a Arena
	const n, frame, stride = 100, 150, 192
	bufs := make([]*Buf, n)
	for i := range bufs {
		bufs[i] = a.Lease(frame)
	}
	base := unsafe.Pointer(unsafe.SliceData(bufs[0].slab.mem))
	lines := make(map[uintptr]int)
	for i, b := range bufs {
		if b.slab != bufs[0].slab {
			t.Fatalf("lease %d left the first slab", i)
		}
		off := uintptr(unsafe.Pointer(unsafe.SliceData(b.Data()))) - uintptr(base)
		if off != uintptr(i*stride) {
			t.Fatalf("lease %d at offset %d, want %d", i, off, i*stride)
		}
		for l := off / lineBytes; l <= (off+frame-1)/lineBytes; l++ {
			if j, ok := lines[l]; ok {
				t.Fatalf("leases %d and %d share cache line %d", j, i, l)
			}
			lines[l] = i
		}
	}
	if got := a.BytesLeased(); got > n*stride {
		t.Fatalf("BytesLeased with %d %d-byte leases out = %d, want at most %d", n, frame, got, n*stride)
	}
	for _, b := range bufs {
		b.Release()
	}
	if st := a.Stats(); st.Leases != n || st.Releases != n || st.BytesLeased != 0 {
		t.Fatalf("after %d leases and releases: %+v", n, st)
	}
}

// TestArenaChaosBalances: leases of every class and beyond, taken by
// several goroutines and released by others in shuffled order across slab
// boundaries, leave the books balanced — the identity the chaos suite
// holds the whole pipeline to.
func TestArenaChaosBalances(t *testing.T) {
	var a Arena
	const leasers, each = 4, 3000
	sizes := []int{60, 150, 1500, 2 << 10, 9000, 60 << 10, 200 << 10, 300 << 10}
	handoff := make(chan []*Buf, 16)
	var lwg, rwg sync.WaitGroup
	for g := 0; g < leasers; g++ {
		lwg.Add(1)
		go func(seed int64) {
			defer lwg.Done()
			rng := rand.New(rand.NewSource(seed))
			for done := 0; done < each; {
				batch := make([]*Buf, 1+rng.Intn(70))
				for i := range batch {
					// Mostly frame-sized leases, as on a wire; the large
					// classes and oversize now and then.
					n := sizes[rng.Intn(3)]
					if rng.Intn(50) == 0 {
						n = sizes[rng.Intn(len(sizes))]
					}
					batch[i] = a.Lease(n)
				}
				done += len(batch)
				rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
				handoff <- batch
			}
		}(int64(g))
	}
	for g := 0; g < 2; g++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for batch := range handoff {
				for _, b := range batch {
					b.Release()
				}
			}
		}()
	}
	lwg.Wait()
	close(handoff)
	rwg.Wait()
	st := a.Stats()
	if st.Leases < leasers*each || st.Leases != st.Releases || st.DoubleReleases != 0 || st.BytesLeased != 0 {
		t.Fatalf("books do not balance after the run: %+v", st)
	}
	if got := a.BytesLeased(); got != 0 {
		t.Fatalf("BytesLeased = %d after every release", got)
	}
}

// BenchmarkArenaHandoff is the source-to-shard round trip of one frame:
// a lease filled on one goroutine, read and released on another, at the
// two frame sizes that dominate traffic (a small TCP segment and a full
// Ethernet frame).
func BenchmarkArenaHandoff(b *testing.B) {
	for _, size := range []int{150, 1514} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			var a Arena
			frame := make([]byte, size)
			handoff := make(chan *Buf, 256)
			done := make(chan int)
			go func() {
				sum := 0
				for buf := range handoff {
					sum += int(buf.Data()[0])
					buf.Release()
				}
				done <- sum
			}()
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				buf := a.Lease(size)
				copy(buf.Data(), frame)
				handoff <- buf
			}
			close(handoff)
			<-done
			if st := a.Stats(); st.Leases != st.Releases || st.BytesLeased != 0 {
				b.Fatalf("books do not balance: %+v", st)
			}
		})
	}
}
