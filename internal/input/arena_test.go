package input

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
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
	// Same size class, strictly sequential: the second lease should come
	// from the pool. sync.Pool may shed entries under GC pressure, so
	// accept recycling on any of a few attempts.
	recycled := false
	for i := 0; i < 8 && !recycled; i++ {
		b := a.Lease(1000)
		before := a.Stats().Misses
		b.Release()
		b2 := a.Lease(1500) // same class, different length
		if len(b2.Data()) != 1500 {
			t.Fatalf("resized lease: got %d bytes", len(b2.Data()))
		}
		recycled = a.Stats().Misses == before
		b2.Release()
	}
	if !recycled {
		t.Fatal("pool never recycled a released buffer")
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
	b1 := a.Lease(100)     // 2K class
	b2 := a.Lease(3 << 10) // 16K class
	b3 := a.Lease(1 << 20) // oversize: exact
	want := int64(2<<10 + 16<<10 + 1<<20)
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

// TestArenaOversizeBypassesSlabs: a lease beyond the last class is a
// plain allocation of its own — it shares no slab, counts as a miss, and
// goes to the garbage collector, not to a pool, on release.
func TestArenaOversizeBypassesSlabs(t *testing.T) {
	var a Arena
	small := a.Lease(100)
	b := a.Lease(1 << 20)
	if b.slab.class != -1 || len(b.slab.bufs) != 1 || b.slab == small.slab {
		t.Fatalf("oversize lease rides a class-%d slab of %d frames", b.slab.class, len(b.slab.bufs))
	}
	if cap(b.Data()) != 1<<20 {
		t.Fatalf("oversize lease holds %d bytes, want exactly what was asked", cap(b.Data()))
	}
	b.Release()
	small.Release()
	if st := a.Stats(); st.Misses != 2 || st.Leases != 2 || st.Releases != 2 || st.BytesLeased != 0 {
		t.Fatalf("after one slab lease and one oversize lease: %+v", st)
	}
	for i := range a.cur {
		if a.cur[i] == b.slab {
			t.Fatal("oversize slab became a class's current slab")
		}
	}
}

// TestArenaFramesAreDisjoint: leases carved from one slab never overlap,
// whatever their lengths, and a lease cannot grow into its neighbour.
func TestArenaFramesAreDisjoint(t *testing.T) {
	var a Arena
	var bufs []*Buf
	for i := 0; i < 100; i++ { // crosses several 2K-class slabs
		b := a.Lease(1 + i*20)
		for j := range b.Data() {
			b.Data()[j] = byte(i)
		}
		if c := cap(b.Data()); c != 2<<10 {
			t.Fatalf("lease %d: capacity %d, want its frame's 2048", i, c)
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
