package pmem

import (
	"math/rand"
	"testing"
)

func newCrashSet(t testing.TB, n int) *HeapSet {
	t.Helper()
	return NewSet(n, Config{Bytes: 1 << 20, Mode: ModeCrash, MaxThreads: 8})
}

func TestHeapSetIndependentState(t *testing.T) {
	s := newCrashSet(t, 3)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	// Allocations and root slots are fully independent per member.
	addrs := make([]Addr, s.Len())
	for i := 0; i < s.Len(); i++ {
		h := s.Heap(i)
		addrs[i] = h.AllocRaw(0, 64, 64)
		h.Store(0, addrs[i], uint64(100+i))
		h.Persist(0, addrs[i])
		h.Store(0, h.RootAddr(0), uint64(i))
	}
	for i := 0; i < s.Len(); i++ {
		h := s.Heap(i)
		if got := h.Load(0, addrs[i]); got != uint64(100+i) {
			t.Fatalf("heap %d: Load = %d, want %d", i, got, 100+i)
		}
		if got := h.Load(0, h.RootAddr(0)); got != uint64(i) {
			t.Fatalf("heap %d: root slot 0 = %d, want %d", i, got, i)
		}
	}
	// Stats accumulate per heap; the set sums them.
	one := s.Heap(0).TotalStats()
	if one.Fences == 0 {
		t.Fatal("heap 0 recorded no fences")
	}
	if tot := s.TotalStats(); tot.Fences < 3*one.Fences {
		t.Fatalf("set TotalStats.Fences = %d, want >= %d", tot.Fences, 3*one.Fences)
	}
}

// TestHeapSetCrashPropagates pins the shared-power-supply model: a
// crash scheduled on (or injected into) one member downs every member,
// so a thread working on another heap observes the crash at its next
// access there.
func TestHeapSetCrashPropagates(t *testing.T) {
	s := newCrashSet(t, 2)
	a0 := s.Heap(0).AllocRaw(0, 64, 64)
	a1 := s.Heap(1).AllocRaw(0, 64, 64)

	s.Heap(1).ScheduleCrashAtAccess(3)
	crashed := Protect(func() {
		for i := 0; i < 100; i++ {
			s.Heap(1).Store(0, a1, uint64(i))
		}
	})
	if !crashed {
		t.Fatal("scheduled crash on heap 1 never fired")
	}
	if !s.Heap(0).Crashed() || !s.Crashed() {
		t.Fatal("crash on heap 1 did not propagate to heap 0")
	}
	if !Protect(func() { s.Heap(0).Store(1, a0, 7) }) {
		t.Fatal("access on heap 0 after the set crashed did not panic")
	}

	s.FinalizeCrash(rand.New(rand.NewSource(1)))
	s.Restart()
	if s.Crashed() {
		t.Fatal("set still crashed after Restart")
	}
	// Both members are usable again.
	s.Heap(0).Store(0, a0, 1)
	s.Heap(1).Store(0, a1, 2)
}

// TestHeapSetDurabilityPerMember: fenced values on every member
// survive the whole-set crash; unfenced ones may not (minimal-prefix
// rng: they must not).
func TestHeapSetDurabilityPerMember(t *testing.T) {
	s := newCrashSet(t, 2)
	var addrs [2]Addr
	for i := 0; i < 2; i++ {
		h := s.Heap(i)
		addrs[i] = h.AllocRaw(0, 64, 64)
		h.Store(0, addrs[i], uint64(10+i))
		h.Persist(0, addrs[i])
		h.Store(0, addrs[i]+8, 99) // never flushed
	}
	s.CrashNow()
	s.FinalizeCrash(rand.New(zeroSource{}))
	s.Restart()
	for i := 0; i < 2; i++ {
		h := s.Heap(i)
		if got := h.Load(0, addrs[i]); got != uint64(10+i) {
			t.Fatalf("heap %d: persisted value = %d, want %d", i, got, 10+i)
		}
		if got := h.Load(0, addrs[i]+8); got != 0 {
			t.Fatalf("heap %d: unfenced store survived: %d", i, got)
		}
	}
}

// TestHeapSetFencesArePerHeap documents the property multi-heap
// structures must respect: a fence on one member does not cover
// NTStores outstanding on another.
func TestHeapSetFencesArePerHeap(t *testing.T) {
	s := newCrashSet(t, 2)
	a0 := s.Heap(0).AllocRaw(0, 64, 64)
	a1 := s.Heap(1).AllocRaw(0, 64, 64)
	s.Heap(0).NTStore(0, a0, 5)
	s.Heap(1).NTStore(0, a1, 6)
	s.Heap(0).Fence(0) // covers heap 0 only
	s.CrashNow()
	s.FinalizeCrash(rand.New(zeroSource{}))
	if got := s.Heap(0).RawImg(a0); got != 5 {
		t.Fatalf("fenced NTStore on heap 0 lost: %d", got)
	}
	if got := s.Heap(1).RawImg(a1); got != 0 {
		t.Fatalf("unfenced NTStore on heap 1 survived the minimal prefix: %d", got)
	}
}

func TestHeapSetRejectsDuplicates(t *testing.T) {
	h := New(Config{Bytes: 1 << 20})
	defer func() {
		if recover() == nil {
			t.Fatal("NewSetOf with a duplicate heap did not panic")
		}
	}()
	NewSetOf(h, h.View(0, 8)) // same simulator state twice
}

// TestHeapSetParallel: every member is visited, and a crash that fires
// on a fan-out goroutine comes back through the caller's Protect, after
// every child has stopped, instead of killing the process from a
// goroutine nobody protects.
func TestHeapSetParallel(t *testing.T) {
	s := newCrashSet(t, 3)
	visited := make([]int, s.Len())
	s.Parallel(func(i int, h *Heap) {
		if h != s.Heap(i) {
			t.Errorf("member %d handed a foreign heap", i)
		}
		visited[i]++
	})
	for i, n := range visited {
		if n != 1 {
			t.Fatalf("member %d visited %d times, want 1", i, n)
		}
	}

	s.Heap(1).ScheduleCrashAtAccess(5)
	stopped := make([]bool, s.Len())
	crashed := Protect(func() {
		s.Parallel(func(i int, h *Heap) {
			defer func() { stopped[i] = true }()
			for { // only the shared power failure ends a child
				h.Load(0, h.RootAddr(0))
			}
		})
	})
	if !crashed {
		t.Fatal("the crash never reached the caller's Protect")
	}
	for i, ok := range stopped {
		if !ok {
			t.Fatalf("Parallel returned while member %d's child was still running", i)
		}
	}
}

// TestParallelCarriesChildPanic: a panic on a fan-out goroutine other
// than the crash signal reaches the caller unchanged, after the join,
// even when a sibling was stopped by a crash; a set whose children only
// crash still reports the crash through the caller's Protect.
func TestParallelCarriesChildPanic(t *testing.T) {
	type sentinel struct{ member int }
	recovered := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}
	crash := func(h *Heap) {
		h.CrashNow()
		h.Load(0, h.RootAddr(0))
	}

	s := newCrashSet(t, 2)
	r := recovered(func() {
		s.Parallel(func(i int, h *Heap) {
			if i == 1 {
				panic(sentinel{1})
			}
		})
	})
	if r != (sentinel{1}) {
		t.Fatalf("a child's panic reached the caller as %v, want sentinel{1}", r)
	}

	r = recovered(func() {
		s.Parallel(func(i int, h *Heap) {
			if i == 0 {
				crash(h)
			}
			panic(sentinel{i})
		})
	})
	if r != (sentinel{1}) {
		t.Fatalf("with member 0 crashed and member 1 panicking, the caller recovered %v, want sentinel{1}", r)
	}
	s.FinalizeCrash(rand.New(zeroSource{}))
	s.Restart()

	if !Protect(func() { s.Parallel(func(_ int, h *Heap) { crash(h) }) }) {
		t.Fatal("a set whose children only crash did not report the crash through Protect")
	}
}
