package pmem

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

func nowNs() int64 { return time.Now().UnixNano() }

func newCrashHeap(t testing.TB) *Heap {
	t.Helper()
	return New(Config{Bytes: 1 << 20, Mode: ModeCrash, MaxThreads: 8})
}

func newPerfHeap(t testing.TB) *Heap {
	t.Helper()
	return New(Config{Bytes: 1 << 20, Mode: ModePerf, MaxThreads: 8})
}

func TestRootSlotsAreLineDisjoint(t *testing.T) {
	h := newPerfHeap(t)
	seen := map[Addr]bool{}
	for i := 0; i < NumRootSlots; i++ {
		a := h.RootAddr(i)
		if a%CacheLineBytes != 0 {
			t.Fatalf("root slot %d not line aligned: %d", i, a)
		}
		if a < CacheLineBytes {
			t.Fatalf("root slot %d overlaps heap metadata", i)
		}
		if Addr(a)+CacheLineBytes > dataStart {
			t.Fatalf("root slot %d overlaps data region", i)
		}
		if seen[a] {
			t.Fatalf("duplicate root slot address %d", a)
		}
		seen[a] = true
	}
}

func TestRootAddrPanicsOutOfRange(t *testing.T) {
	h := newPerfHeap(t)
	for _, slot := range []int{-1, NumRootSlots} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RootAddr(%d) did not panic", slot)
				}
			}()
			h.RootAddr(slot)
		}()
	}
}

func TestViewRemapsRootSlots(t *testing.T) {
	h := newPerfHeap(t)
	v := h.View(8, 4)
	if got := v.RootSlots(); got != 4 {
		t.Fatalf("view RootSlots = %d, want 4", got)
	}
	for i := 0; i < 4; i++ {
		if v.RootAddr(i) != h.RootAddr(8+i) {
			t.Fatalf("view slot %d maps to %d, want %d", i, v.RootAddr(i), h.RootAddr(8+i))
		}
	}
	// Views compose and share memory.
	vv := v.View(1, 2)
	if vv.RootAddr(0) != h.RootAddr(9) {
		t.Fatalf("nested view slot 0 maps to %d, want %d", vv.RootAddr(0), h.RootAddr(9))
	}
	vv.Store(0, vv.RootAddr(0), 7)
	if got := h.Load(0, h.RootAddr(9)); got != 7 {
		t.Fatalf("store through view not visible through parent: got %d", got)
	}
	for _, bad := range [][2]int{{-1, 2}, {0, 0}, {8, NumRootSlots}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("View(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			h.View(bad[0], bad[1])
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RootAddr(4) on a 4-slot view did not panic")
			}
		}()
		v.RootAddr(4)
	}()
}

// TestViewRejectsOverlap is the aliasing regression test: a view whose
// window overlaps one previously derived from the same parent must be
// rejected — a bad base would silently alias another structure's root
// slots. Disjoint siblings, nested narrowing, and re-derivation after
// Restart all remain legal.
func TestViewRejectsOverlap(t *testing.T) {
	h := New(Config{Bytes: 1 << 20, Mode: ModeCrash, MaxThreads: 2})
	h.View(0, 8)
	h.View(8, 8) // disjoint sibling: fine
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("exact duplicate", func() { h.View(0, 8) })
	mustPanic("partial overlap", func() { h.View(4, 8) })
	mustPanic("containing window", func() { h.View(0, 16) })
	// Narrowing an existing view is not a sibling conflict.
	v := h.View(16, 8)
	v.View(0, 4)
	v.View(4, 4)
	mustPanic("overlap within the nested window", func() { v.View(2, 4) })
	// After a restart, recovery re-derives the same windows.
	h.CrashNow()
	h.FinalizeCrash(rand.New(zeroSource{}))
	h.Restart()
	h.View(0, 8)
	h.View(8, 8)
}

func TestStoreLoadRoundTrip(t *testing.T) {
	for _, mode := range []Mode{ModePerf, ModeCrash} {
		h := New(Config{Bytes: 1 << 20, Mode: mode})
		a := h.AllocRaw(0, 64, 64)
		h.Store(0, a, 12345)
		h.Store(0, a+8, 67890)
		if got := h.Load(0, a); got != 12345 {
			t.Fatalf("mode %v: Load = %d, want 12345", mode, got)
		}
		if got := h.Load(0, a+8); got != 67890 {
			t.Fatalf("mode %v: Load = %d, want 67890", mode, got)
		}
	}
}

func TestCASSemantics(t *testing.T) {
	for _, mode := range []Mode{ModePerf, ModeCrash} {
		h := New(Config{Bytes: 1 << 20, Mode: mode})
		a := h.AllocRaw(0, 64, 64)
		h.Store(0, a, 1)
		if h.CAS(0, a, 2, 3) {
			t.Fatalf("mode %v: CAS with wrong expected succeeded", mode)
		}
		if !h.CAS(0, a, 1, 2) {
			t.Fatalf("mode %v: CAS with right expected failed", mode)
		}
		if got := h.Load(0, a); got != 2 {
			t.Fatalf("mode %v: after CAS Load = %d, want 2", mode, got)
		}
	}
}

func TestDCASSemantics(t *testing.T) {
	for _, mode := range []Mode{ModePerf, ModeCrash} {
		h := New(Config{Bytes: 1 << 20, Mode: mode})
		a := h.AllocRaw(0, 64, 64)
		h.Store(0, a, 10)
		h.Store(0, a+8, 20)
		if h.DCAS(0, a, 10, 99, 11, 21) {
			t.Fatalf("mode %v: DCAS with wrong pair succeeded", mode)
		}
		if !h.DCAS(0, a, 10, 20, 11, 21) {
			t.Fatalf("mode %v: DCAS with right pair failed", mode)
		}
		v0, v1 := h.LoadPair(0, a)
		if v0 != 11 || v1 != 21 {
			t.Fatalf("mode %v: LoadPair = (%d,%d), want (11,21)", mode, v0, v1)
		}
	}
}

func TestDCASRequires16ByteAlignment(t *testing.T) {
	h := newPerfHeap(t)
	a := h.AllocRaw(0, 64, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("DCAS on 8-byte-aligned address did not panic")
		}
	}()
	h.DCAS(0, a+8, 0, 0, 1, 1)
}

func TestFlushInvalidatesAndAccessCharges(t *testing.T) {
	h := newPerfHeap(t)
	a := h.AllocRaw(0, 64, 64)
	h.Store(0, a, 7)
	before := h.StatsOf(0)
	h.Flush(0, a)
	h.Fence(0)
	// First access after the flush is a post-flush access.
	_ = h.Load(0, a)
	mid := h.StatsOf(0)
	if got := mid.PostFlushAccesses - before.PostFlushAccesses; got != 1 {
		t.Fatalf("post-flush accesses after flushed load = %d, want 1", got)
	}
	// The line is back in the cache: further accesses are free.
	_ = h.Load(0, a)
	h.Store(0, a+8, 1)
	after := h.StatsOf(0)
	if got := after.PostFlushAccesses - mid.PostFlushAccesses; got != 0 {
		t.Fatalf("extra post-flush accesses on cached line = %d, want 0", got)
	}
}

func TestFlushRetainsLineMode(t *testing.T) {
	h := New(Config{Bytes: 1 << 20, FlushRetainsLine: true})
	a := h.AllocRaw(0, 64, 64)
	h.Store(0, a, 7)
	h.Flush(0, a)
	h.Fence(0)
	_ = h.Load(0, a)
	if got := h.StatsOf(0).PostFlushAccesses; got != 0 {
		t.Fatalf("post-flush accesses with FlushRetainsLine = %d, want 0", got)
	}
}

func TestNTStoreDoesNotTouchCacheState(t *testing.T) {
	h := newPerfHeap(t)
	a := h.AllocRaw(0, 64, 64)
	h.Store(0, a, 1)
	h.Flush(0, a)
	h.Fence(0)
	// NTStore to the invalidated line: no post-flush access, and the
	// line stays invalidated for ordinary accesses.
	h.NTStore(0, a, 2)
	if got := h.StatsOf(0).PostFlushAccesses; got != 0 {
		t.Fatalf("NTStore charged a post-flush access: %d", got)
	}
	_ = h.Load(0, a)
	if got := h.StatsOf(0).PostFlushAccesses; got != 1 {
		t.Fatalf("load after NTStore on invalidated line: post-flush = %d, want 1", got)
	}
	if got := h.Load(0, a); got != 2 {
		t.Fatalf("NTStore value not visible: got %d, want 2", got)
	}
}

func TestPersistMakesValueDurable(t *testing.T) {
	h := newCrashHeap(t)
	a := h.AllocRaw(0, 64, 64)
	h.Store(0, a, 42)
	h.Persist(0, a)
	if got := h.RawImg(a); got != 42 {
		t.Fatalf("img after Persist = %d, want 42", got)
	}
}

func TestNTStoreDurableAfterFence(t *testing.T) {
	h := newCrashHeap(t)
	a := h.AllocRaw(0, 64, 64)
	h.NTStore(0, a, 99)
	h.Fence(0)
	if got := h.RawImg(a); got != 99 {
		t.Fatalf("img after NTStore+Fence = %d, want 99", got)
	}
}

func TestUnfencedStoreMayBeLost(t *testing.T) {
	// With an rng that always picks the minimal prefix, an unflushed
	// store must not appear in the image.
	h := newCrashHeap(t)
	a := h.AllocRaw(0, 64, 64)
	h.Store(0, a, 5)
	h.Persist(0, a)
	h.Store(0, a, 6) // not flushed
	h.CrashNow()
	h.FinalizeCrash(rand.New(zeroSource{}))
	if got := h.RawImg(a); got != 5 {
		t.Fatalf("img = %d, want the fenced value 5", got)
	}
	h.Restart()
	if got := h.Load(0, a); got != 5 {
		t.Fatalf("post-restart load = %d, want 5", got)
	}
}

// zeroSource drives math/rand to always return the minimum.
type zeroSource struct{}

func (zeroSource) Int63() int64 { return 0 }
func (zeroSource) Seed(int64)   {}

func TestCrashPrefixSemantics(t *testing.T) {
	// Property: after a crash, each cache line's image content equals
	// the replay of some prefix of the stores to that line, and that
	// prefix covers at least the last fenced flush.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := newCrashHeap(t)
		const nLines = 3
		base := h.AllocRaw(0, nLines*CacheLineBytes, CacheLineBytes)
		type st struct {
			w Addr
			v uint64
		}
		history := make([][]st, nLines)
		guaranteed := make([]int, nLines)
		flushedAt := make([]int, nLines) // pending flush coverage
		for i := range flushedAt {
			flushedAt[i] = -1
		}
		nOps := 30 + rng.Intn(60)
		for i := 0; i < nOps; i++ {
			line := rng.Intn(nLines)
			a := base + Addr(line*CacheLineBytes)
			switch rng.Intn(4) {
			case 0, 1: // store
				w := a + Addr(rng.Intn(WordsPerLine))*WordBytes
				v := rng.Uint64()
				h.Store(0, w, v)
				history[line] = append(history[line], st{w, v})
			case 2: // flush
				h.Flush(0, a)
				flushedAt[line] = len(history[line])
			case 3: // fence
				h.Fence(0)
				for l := range flushedAt {
					if flushedAt[l] >= 0 {
						if flushedAt[l] > guaranteed[l] {
							guaranteed[l] = flushedAt[l]
						}
						flushedAt[l] = -1
					}
				}
			}
		}
		h.CrashNow()
		h.FinalizeCrash(rng)
		// For each line, the image must equal replay of a prefix k,
		// guaranteed[line] <= k <= len(history[line]).
		for line := 0; line < nLines; line++ {
			a := base + Addr(line*CacheLineBytes)
			found := false
			for k := guaranteed[line]; k <= len(history[line]); k++ {
				var want [WordsPerLine]uint64
				for _, s := range history[line][:k] {
					want[(s.w-a)/WordBytes] = s.v
				}
				match := true
				for w := 0; w < WordsPerLine; w++ {
					if h.RawImg(a+Addr(w*WordBytes)) != want[w] {
						match = false
						break
					}
				}
				if match {
					found = true
					break
				}
			}
			if !found {
				t.Logf("seed %d line %d: image is not a valid store prefix >= %d", seed, line, guaranteed[line])
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDCASIsAtomicAtCrash(t *testing.T) {
	// A DCAS's two words must never be split by the crash prefix.
	for seed := int64(0); seed < 50; seed++ {
		h := newCrashHeap(t)
		a := h.AllocRaw(0, 64, 64) // 64-aligned => 16-aligned
		h.Store(0, a, 1)
		h.Store(0, a+8, 100)
		if !h.DCAS(0, a, 1, 100, 2, 200) {
			t.Fatal("setup DCAS failed")
		}
		h.CrashNow()
		h.FinalizeCrash(rand.New(rand.NewSource(seed)))
		v0, v1 := h.RawImg(a), h.RawImg(a+8)
		okOld := v0 == 1 && v1 == 100
		okNew := v0 == 2 && v1 == 200
		okZero := v0 == 0 && v1 == 0 // nothing evicted
		okPart1 := v0 == 1 && v1 == 0
		okPart2 := v0 == 0 && v1 == 100
		if !okOld && !okNew && !okZero && !okPart1 && !okPart2 {
			t.Fatalf("seed %d: torn DCAS in image: (%d,%d)", seed, v0, v1)
		}
	}
}

func TestProtectCatchesCrashOnly(t *testing.T) {
	h := newCrashHeap(t)
	a := h.AllocRaw(0, 64, 64)
	h.CrashNow()
	crashed := Protect(func() { h.Store(0, a, 1) })
	if !crashed {
		t.Fatal("Protect did not report the crash")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Protect swallowed a non-crash panic")
		}
	}()
	Protect(func() { panic("boom") })
}

func TestScheduleCrashAtAccess(t *testing.T) {
	h := newCrashHeap(t)
	a := h.AllocRaw(0, 64, 64)
	h.ScheduleCrashAtAccess(5)
	n := 0
	crashed := Protect(func() {
		for i := 0; i < 100; i++ {
			h.Store(0, a, uint64(i))
			n++
		}
	})
	if !crashed {
		t.Fatal("scheduled crash never fired")
	}
	if n != 4 {
		t.Fatalf("crash fired after %d completed stores, want 4", n)
	}
}

func TestRestartReloadsImage(t *testing.T) {
	h := newCrashHeap(t)
	a := h.AllocRaw(0, 64, 64)
	h.Store(0, a, 11)
	h.Persist(0, a)
	h.Store(0, a, 22) // volatile only
	h.CrashNow()
	h.FinalizeCrash(rand.New(zeroSource{}))
	h.Restart()
	if got := h.Load(0, a); got != 11 {
		t.Fatalf("after restart Load = %d, want 11", got)
	}
	if h.Crashed() {
		t.Fatal("heap still marked crashed after Restart")
	}
}

func TestAllocRawSurvivesCrash(t *testing.T) {
	h := newCrashHeap(t)
	a1 := h.AllocRaw(0, 128, 64)
	h.CrashNow()
	h.FinalizeCrash(rand.New(zeroSource{}))
	h.Restart()
	a2 := h.AllocRaw(0, 128, 64)
	if a2 < a1+128 {
		t.Fatalf("post-crash allocation %d overlaps pre-crash allocation %d", a2, a1)
	}
}

func TestAllocRawAlignmentAndExhaustion(t *testing.T) {
	h := New(Config{Bytes: 1 << 20})
	a := h.AllocRaw(0, 100, 256)
	if a%256 != 0 {
		t.Fatalf("allocation not 256-aligned: %d", a)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("exhausting the heap did not panic")
		}
	}()
	h.AllocRaw(0, 64<<20, 64)
}

// TestInitRangeZeroesBothViews: InitRange writes only what is not zero
// already, and what a line held before it, fenced or not, is content. A
// line stored to between AllocRaw and InitRange ends up zero in both
// views, with its journal closed, and a store after InitRange that no
// fence covers starts its crash prefix from zero.
func TestInitRangeZeroesBothViews(t *testing.T) {
	for _, fenced := range []bool{true, false} {
		h := newCrashHeap(t)
		a := h.AllocRaw(0, 2*CacheLineBytes, CacheLineBytes)
		h.Store(0, a, 9)
		if fenced {
			h.Persist(0, a)
		}
		h.InitRange(0, a, 2*CacheLineBytes)
		checkZeroLine(t, h, a, fmt.Sprintf("fenced=%v", fenced))
		h.Store(0, a, 3)
		h.CrashNow()
		h.FinalizeCrash(rand.New(zeroSource{}))
		if got := h.RawImg(a); got != 0 {
			t.Fatalf("fenced=%v: img = %d, want 0 (store after InitRange unfenced)", fenced, got)
		}
	}
}

// TestInitRangeZeroesImageUnderZeroView: a line whose working view is
// zero can still be set in the image. A fenced 7 then an unfenced 0
// leave mem zero over a persisted 7 with the journal open; InitRange
// must close the journal and zero the image as well.
func TestInitRangeZeroesImageUnderZeroView(t *testing.T) {
	h := newCrashHeap(t)
	a := h.AllocRaw(0, CacheLineBytes, CacheLineBytes)
	h.Store(0, a, 7)
	h.Persist(0, a)
	h.Store(0, a, 0)
	if h.RawMem(a) != 0 || h.RawImg(a) != 7 || h.jidx[a/CacheLineBytes] == 0 {
		t.Fatalf("setup: mem %d, img %d, journal open %v", h.RawMem(a), h.RawImg(a), h.jidx[a/CacheLineBytes] != 0)
	}
	h.InitRange(0, a, CacheLineBytes)
	checkZeroLine(t, h, a, "mem 0 over a persisted 7")
}

// checkZeroLine fails unless the line at a is zero in both views and has
// no open journal.
func checkZeroLine(t *testing.T, h *Heap, a Addr, what string) {
	t.Helper()
	for w := a; w < a+CacheLineBytes; w += WordBytes {
		if h.RawMem(w) != 0 || h.RawImg(w) != 0 {
			t.Fatalf("%s: word %d: mem %d, img %d after InitRange", what, w, h.RawMem(w), h.RawImg(w))
		}
	}
	if h.jidx[a/CacheLineBytes] != 0 || len(h.openJournals()) != 0 {
		t.Fatalf("%s: a journal is still open after InitRange", what)
	}
}

// TestPerfHeapKeepsNoImage: nothing reads a ModePerf heap's image, so
// it has none. New allocates the working view and the cache flags (68
// MiB for 64 MiB of heap; an image would add 64 more), and RawImg
// refuses, as CrashNow does.
func TestPerfHeapKeepsNoImage(t *testing.T) {
	const size = 64 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := New(Config{Bytes: size, MaxThreads: 1})
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > size+size/8 {
		t.Fatalf("New of a %d MiB ModePerf heap allocated %d MiB", size>>20, got>>20)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RawImg on a ModePerf heap did not panic")
		}
	}()
	h.RawImg(h.RootAddr(0))
}

// TestInitRangeChargesTheRangeNotItsContent: InitRange skips the lines
// that are zero already, but what it counts and charges is the range's.
// A clean range and one with set, flushed and unfenced lines read the
// same Stats and modelled nanoseconds, in both modes.
func TestInitRangeChargesTheRangeNotItsContent(t *testing.T) {
	const lines = 16
	for _, mode := range []Mode{ModePerf, ModeCrash} {
		var stats [2]Stats
		var spun [2]int64
		for i, dirty := range []bool{false, true} {
			h := New(Config{Bytes: 1 << 20, Mode: mode, MaxThreads: 2, Latency: DefaultLatency()})
			a := h.AllocRaw(0, lines*CacheLineBytes, CacheLineBytes)
			if dirty {
				for l := Addr(0); l < lines; l += 3 {
					h.Store(0, a+l*CacheLineBytes, uint64(l)+1)
					h.Flush(0, a+l*CacheLineBytes)
				}
			}
			h.Fence(0) // closes the drain window, so InitRange alone is measured
			if dirty {
				for l := Addr(1); l < lines; l += 5 { // unfenced: open journals in ModeCrash
					h.Store(0, a+l*CacheLineBytes, uint64(l)+1)
				}
			}
			d, at := h.TotalDelta(), h.threads[0].spun
			h.InitRange(0, a, lines*CacheLineBytes)
			stats[i] = d.Delta()
			spun[i] = h.threads[0].spun - at
			for w := a; w < a+lines*CacheLineBytes; w += WordBytes {
				if h.Load(1, w) != 0 {
					t.Fatalf("mode %d dirty=%v: word %d is %d", mode, dirty, w, h.RawMem(w))
				}
			}
			if got := h.StatsOf(1).PostFlushAccesses; got != 0 {
				t.Fatalf("mode %d dirty=%v: %d flushed lines survived InitRange", mode, dirty, got)
			}
		}
		if stats[0] != stats[1] || spun[0] != spun[1] {
			t.Fatalf("mode %d: clean range %+v and %d ns, dirty range %+v and %d ns", mode, stats[0], spun[0], stats[1], spun[1])
		}
		if want := DefaultLatency().FenceNs + lines*DefaultLatency().DrainNsPerLine; spun[0] != want {
			t.Fatalf("mode %d: InitRange charged %d ns, want %d", mode, spun[0], want)
		}
	}
}

func TestStatsCounting(t *testing.T) {
	h := newPerfHeap(t)
	a := h.AllocRaw(0, 64, 64)
	h.ResetStats()
	h.Store(1, a, 1)
	_ = h.Load(1, a)
	h.CAS(1, a, 1, 2)
	h.Flush(1, a)
	h.Fence(1)
	h.NTStore(1, a+8, 3)
	s := h.StatsOf(1)
	if s.Stores != 1 || s.Loads != 1 || s.CASes != 1 || s.Flushes != 1 || s.Fences != 1 || s.NTStores != 1 {
		t.Fatalf("unexpected stats: %+v", s)
	}
	tot := h.TotalStats()
	if tot.Stores != 1 {
		t.Fatalf("TotalStats.Stores = %d, want 1", tot.Stores)
	}
}

func TestConcurrentFenceTruncationRace(t *testing.T) {
	// Regression test for the generation logic: thread 0 flushes,
	// thread 1 flushes+fences (truncating the journal), new stores
	// arrive, then thread 0 fences. The new stores must not become
	// guaranteed-durable, and nothing may panic.
	h := newCrashHeap(t)
	a := h.AllocRaw(0, 64, 64)
	h.Store(0, a, 1)
	h.Flush(0, a) // thread 0 flush covers store 1
	h.Store(1, a+8, 2)
	h.Flush(1, a)
	h.Fence(1) // truncates the line journal
	h.Store(1, a+16, 3)
	h.Fence(0) // stale pending entry: must be a no-op
	h.CrashNow()
	h.FinalizeCrash(rand.New(zeroSource{}))
	if got := h.RawImg(a + 16); got != 0 {
		t.Fatalf("store after truncation leaked into guaranteed image: %d", got)
	}
	if h.RawImg(a) != 1 || h.RawImg(a+8) != 2 {
		t.Fatalf("fenced values lost: (%d,%d)", h.RawImg(a), h.RawImg(a+8))
	}
}

func TestLatencyModelInjectsDelay(t *testing.T) {
	h := New(Config{Bytes: 1 << 20, Latency: LatencyModel{FenceNs: 200_000}})
	a := h.AllocRaw(0, 64, 64)
	h.Store(0, a, 1)
	h.Flush(0, a)
	start := nowNs()
	h.Fence(0)
	if el := nowNs() - start; el < 50_000 {
		t.Fatalf("fence with 200us model returned in %dns", el)
	}
}

// --- The write-pending-queue drain model (LatencyModel.DrainNsPerLine) ---

// A burst of burstLines lines at burstDrainNs each drains in burstNs:
// long enough that the bounds below hold on a loaded box.
const (
	burstLines   = 20
	burstDrainNs = 250_000
	burstNs      = burstLines * burstDrainNs
)

// lineIssuers are the two ways a thread queues a line.
var lineIssuers = []struct {
	name  string
	issue func(h *Heap, a Addr)
}{
	{"NTStore", func(h *Heap, a Addr) { h.NTStore(0, a, 1) }},
	{"Flush", func(h *Heap, a Addr) { h.Flush(0, a) }},
}

// issueBurst queues burstLines lines back to back on a fresh heap whose
// only prices are DrainNsPerLine and fenceNs, and returns the heap and
// the instant just before the first line.
func issueBurst(mode Mode, fenceNs int64, issue func(h *Heap, a Addr)) (*Heap, time.Time) {
	h := New(Config{Bytes: 1 << 20, Mode: mode,
		Latency: LatencyModel{FenceNs: fenceNs, DrainNsPerLine: burstDrainNs}})
	base := h.AllocRaw(0, burstLines*CacheLineBytes, CacheLineBytes)
	start := time.Now()
	for i := 0; i < burstLines; i++ {
		issue(h, base+Addr(i*CacheLineBytes))
	}
	return h, start
}

// fenceWithin fails the test if an attempt's Fence is charged any
// residual drain, or unless some attempt's Fence returns within bound;
// a fence the scheduler preempted says nothing about the model, so a
// slow attempt is retried.
func fenceWithin(t *testing.T, bound time.Duration, attempt func() *Heap) {
	t.Helper()
	var el time.Duration
	for try := 0; try < 3; try++ {
		h := attempt()
		before := h.threads[0].drainWaitNs
		t0 := time.Now()
		h.Fence(0)
		el = time.Since(t0)
		if w := h.threads[0].drainWaitNs - before; w != 0 {
			t.Fatalf("Fence was charged %dns of residual drain, want 0", w)
		}
		if el <= bound {
			return
		}
	}
	t.Fatalf("Fence took %v, want at most %v", el, bound)
}

// TestFenceWaitsForBurstDrain: a Fence issued right behind a burst
// blocks until the burst has drained — burstNs from its first line.
func TestFenceWaitsForBurstDrain(t *testing.T) {
	for _, li := range lineIssuers {
		t.Run(li.name, func(t *testing.T) {
			h, start := issueBurst(ModePerf, 0, li.issue)
			h.Fence(0)
			if el := time.Since(start); el < burstNs/2 {
				t.Fatalf("burst + Fence returned after %v, want about %v", el, time.Duration(burstNs))
			}
		})
	}
}

// TestDrainOverlapsWorkBeforeFence: the drain runs while the thread
// does something else, so a Fence issued once burstNs have passed pays
// its own price and no residual.
func TestDrainOverlapsWorkBeforeFence(t *testing.T) {
	const fenceNs = burstNs / 16
	for _, li := range lineIssuers {
		t.Run(li.name, func(t *testing.T) {
			fenceWithin(t, 4*fenceNs, func() *Heap {
				h, start := issueBurst(ModePerf, fenceNs, li.issue)
				for time.Since(start) < burstNs+burstNs/8 {
				}
				return h
			})
		})
	}
}

// TestRestartClearsBurstDrain: the write-pending queue is volatile, so
// a window left open by a crash charges nothing to the first fence
// after Restart.
func TestRestartClearsBurstDrain(t *testing.T) {
	fenceWithin(t, burstNs/4, func() *Heap {
		h, _ := issueBurst(ModeCrash, 0, lineIssuers[0].issue)
		h.CrashNow()
		h.FinalizeCrash(rand.New(zeroSource{}))
		h.Restart()
		return h
	})
}

// TestClockReadingsPerFenceWindow pins what the drain model costs the
// simulator itself. A window the modelled clock can price — one line, or
// any length whose issue prices cover its drain — reads no clock; a
// longer one reads it at the line where its drain bound first exceeds
// one line's drain and in its Fence, however many lines it holds; a
// thread with nothing queued, or a model without DrainNsPerLine, reads
// none.
func TestClockReadingsPerFenceWindow(t *testing.T) {
	for _, mode := range []Mode{ModePerf, ModeCrash} {
		h := New(Config{Bytes: 1 << 20, Mode: mode, Latency: LatencyModel{DrainNsPerLine: 1}})
		base := h.AllocRaw(0, 56*CacheLineBytes, CacheLineBytes)
		ts := &h.threads[0]
		// window issues n lines, Flush and NTStore alternating, and the
		// Fence; it returns the readings that took.
		window := func(n int) uint64 {
			before := ts.clockReads
			for i := 0; i < n; i++ {
				if a := base + Addr(i*CacheLineBytes); i%2 == 0 {
					h.NTStore(0, a, uint64(i))
				} else {
					h.Flush(0, a)
				}
			}
			h.Fence(0)
			return ts.clockReads - before
		}
		// Back to back at zero issue price: every window starts afresh.
		fresh := func(when string) {
			t.Helper()
			for _, c := range []struct {
				lines int
				want  uint64
			}{{1, 0}, {7, 2}, {56, 2}, {0, 0}} {
				if got := window(c.lines); got != c.want {
					t.Errorf("mode %v, %s: %d lines + Fence read the clock %d times, want %d",
						mode, when, c.lines, got, c.want)
				}
			}
		}
		fresh("new heap")
		h.NTStore(0, base, 1) // a measured window, left open across the restart
		h.NTStore(0, base, 2)
		h.Restart()
		fresh("after Restart")
		h.SetLatency(LatencyModel{FlushNs: 1, NTStoreNs: 1, DrainNsPerLine: 1})
		for _, n := range []int{1, 7, 56} {
			if got := window(n); got != 0 {
				t.Errorf("mode %v: %d lines whose issue prices cover their drain read the clock %d times, want 0", mode, n, got)
			}
		}
		h.SetLatency(LatencyModel{FenceNs: 1, FlushNs: 1, NTStoreNs: 1})
		if got := window(7); got != 0 {
			t.Errorf("mode %v: DrainNsPerLine == 0 read the clock %d times, want 0", mode, got)
		}
	}
}

// TestModelledClockIsExact: a charge with no clock reading in it is
// arithmetic, so every price lands on the thread's modelled clock to the
// nanosecond — the issue prices, a read of flushed content, InitRange —
// and a lone line's Fence is charged exactly the drain its issue price
// left over.
func TestModelledClockIsExact(t *testing.T) {
	lat := DefaultLatency()
	for _, mode := range []Mode{ModePerf, ModeCrash} {
		h := New(Config{Bytes: 1 << 20, Mode: mode, Latency: lat})
		a := h.AllocRaw(0, 4*CacheLineBytes, CacheLineBytes)
		ts := &h.threads[0]
		for _, c := range []struct {
			name        string
			op          func()
			spun, drain int64
		}{
			{"Fence, nothing queued", func() { h.Fence(0) }, lat.FenceNs, 0},
			{"Flush+Fence", func() { h.Flush(0, a); h.Fence(0) }, lat.FlushNs + 5 + lat.FenceNs, 5},
			{"Load of the flushed line", func() { h.Load(0, a) }, lat.NVMReadNs, 0},
			{"NTStore+Fence", func() { h.NTStore(0, a, 1); h.Fence(0) }, lat.NTStoreNs + 15 + lat.FenceNs, 15},
			{"InitRange inside an open window",
				func() { h.NTStore(0, a, 1); h.InitRange(0, a, 4*CacheLineBytes); h.Fence(0) },
				lat.NTStoreNs + lat.FenceNs + 4*lat.DrainNsPerLine + lat.FenceNs, 0},
		} {
			spun, drain, reads := ts.spun, ts.drainWaitNs, ts.clockReads
			c.op()
			if got := ts.spun - spun; got != c.spun {
				t.Errorf("mode %v, %s: charged %dns, want %d", mode, c.name, got, c.spun)
			}
			if got := ts.drainWaitNs - drain; got != c.drain {
				t.Errorf("mode %v, %s: %dns of it residual drain, want %d", mode, c.name, got, c.drain)
			}
			if got := ts.clockReads - reads; got != 0 {
				t.Errorf("mode %v, %s: read the clock %d times, want 0", mode, c.name, got)
			}
		}
	}
}

// TestDrainChargeBounds: whatever a window's lines and prices, one that
// read no clock is charged at most one line's drain, and a measured one
// at most the drain of all its lines.
func TestDrainChargeBounds(t *testing.T) {
	rng := newTestRand(22)
	h := New(Config{Bytes: 1 << 20})
	base := h.AllocRaw(0, 12*CacheLineBytes, CacheLineBytes)
	ts := &h.threads[0]
	var unmeasured, measured int
	for i := 0; i < 400; i++ {
		lat := LatencyModel{
			FenceNs:        rng.Int63n(30),
			FlushNs:        rng.Int63n(40),
			NTStoreNs:      rng.Int63n(40),
			DrainNsPerLine: 1 + rng.Int63n(40),
		}
		h.SetLatency(lat)
		lines := 1 + rng.Int63n(12)
		drain, reads := ts.drainWaitNs, ts.clockReads
		for l := int64(0); l < lines; l++ {
			lineIssuers[rng.Intn(len(lineIssuers))].issue(h, base+Addr(l*CacheLineBytes))
		}
		h.Fence(0)
		charged, bound := ts.drainWaitNs-drain, lines*lat.DrainNsPerLine
		if ts.clockReads == reads {
			unmeasured++
			bound = lat.DrainNsPerLine
		} else {
			measured++
		}
		if charged < 0 || charged > bound {
			t.Fatalf("window %d (%d lines, %+v, %d clock readings) was charged %dns of drain, want at most %d",
				i, lines, lat, ts.clockReads-reads, charged, bound)
		}
	}
	if unmeasured < 50 || measured < 50 {
		t.Fatalf("%d unmeasured and %d measured windows: the seed no longer covers both", unmeasured, measured)
	}
}

// TestSetLatencyAcrossOpenWindow: the harness prefills at ZeroLatency
// and then switches the measured model on, and back. A window open
// across either switch charges no drain, and the next one is priced as
// on a fresh heap.
func TestSetLatencyAcrossOpenWindow(t *testing.T) {
	h := New(Config{Bytes: 1 << 20, Latency: DefaultLatency()})
	a := h.AllocRaw(0, CacheLineBytes, CacheLineBytes)
	ts := &h.threads[0]
	fence := func(when string, want int64) {
		t.Helper()
		drain := ts.drainWaitNs
		h.Fence(0)
		if got := ts.drainWaitNs - drain; got != want {
			t.Errorf("%s: Fence was charged %dns of drain, want %d", when, got, want)
		}
	}
	h.NTStore(0, a, 1)
	h.SetLatency(ZeroLatency())
	fence("one line, then ZeroLatency", 0)
	h.NTStore(0, a, 1)
	h.SetLatency(DefaultLatency())
	fence("a line under ZeroLatency, then DefaultLatency", 0)
	for i := 0; i < 3; i++ { // long enough to take its reading
		h.NTStore(0, a, 1)
	}
	h.SetLatency(ZeroLatency())
	fence("a measured window, then ZeroLatency", 0)
	h.SetLatency(DefaultLatency())
	h.NTStore(0, a, 1)
	fence("the next window", 15)
}

// reportDrain adds to a benchmark's ns/op what the drain model cost
// (clock-reads/op) and what it charged (drain-wait-ns/op, the residual
// the fences waited out) since the two counters read reads and wait.
func reportDrain(b *testing.B, ts *threadCtx, reads uint64, wait int64) {
	b.ReportMetric(float64(ts.clockReads-reads)/float64(b.N), "clock-reads/op")
	b.ReportMetric(float64(ts.drainWaitNs-wait)/float64(b.N), "drain-wait-ns/op")
}

func BenchmarkStoreFlushFence(b *testing.B) {
	h := New(Config{Bytes: 1 << 20, Latency: DefaultLatency()})
	a := h.AllocRaw(0, 64, 64)
	ts := &h.threads[0]
	reads, wait := ts.clockReads, ts.drainWaitNs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Store(0, a, uint64(i))
		h.Flush(0, a)
		h.Fence(0)
	}
	reportDrain(b, ts, reads, wait)
}

func BenchmarkLoadCached(b *testing.B) {
	h := New(Config{Bytes: 1 << 20, Latency: DefaultLatency()})
	a := h.AllocRaw(0, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Load(0, a)
	}
}

// BenchmarkNTStoreBurstFence is one fence window of n word NTStores
// under the default prices: 1 is the window paper-pairs opens, 56 the
// one a heap-delay PublishAtBatch(8) opens.
func BenchmarkNTStoreBurstFence(b *testing.B) {
	for _, n := range []int{1, 56} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			h := New(Config{Bytes: 1 << 20, Latency: DefaultLatency()})
			a := h.AllocRaw(0, int64(n)*WordBytes, CacheLineBytes)
			ts := &h.threads[0]
			reads, wait := ts.clockReads, ts.drainWaitNs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for w := 0; w < n; w++ {
					h.NTStore(0, a+Addr(w*WordBytes), uint64(i))
				}
				h.Fence(0)
			}
			reportDrain(b, ts, reads, wait)
		})
	}
}
