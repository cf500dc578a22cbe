package ssmem

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/pmem"
)

func newHeap(t testing.TB, mode pmem.Mode) *pmem.Heap {
	t.Helper()
	return pmem.New(pmem.Config{Bytes: 8 << 20, Mode: mode, MaxThreads: 8})
}

func TestAllocDistinctAlignedZeroed(t *testing.T) {
	h := newHeap(t, pmem.ModePerf)
	p := NewPool(h, Config{SlotBytes: 64, SlotsPerArea: 16, Threads: 2, RootSlot: 0})
	seen := map[pmem.Addr]bool{}
	for i := 0; i < 100; i++ {
		a := p.Alloc(0)
		if a%64 != 0 {
			t.Fatalf("slot %d not line aligned", a)
		}
		if seen[a] {
			t.Fatalf("slot %d allocated twice", a)
		}
		seen[a] = true
		for w := pmem.Addr(0); w < 64; w += 8 {
			if h.Load(0, a+w) != 0 {
				t.Fatalf("fresh slot %d not zeroed at +%d", a, w)
			}
		}
	}
	if p.AreaCount() < 100/16 {
		t.Fatalf("expected multiple areas, got %d", p.AreaCount())
	}
}

func TestRetireReuseAfterEpochs(t *testing.T) {
	h := newHeap(t, pmem.ModePerf)
	p := NewPool(h, Config{SlotBytes: 64, SlotsPerArea: 8, Threads: 1, RootSlot: 0})
	a := p.Alloc(0)
	p.Enter(0)
	p.Retire(0, a)
	p.Exit(0)
	// Cycle enough retire/advance rounds for the limbo to mature.
	for i := 0; i < 10*retireAdvanceN; i++ {
		p.Enter(0)
		b := p.Alloc(0)
		p.Retire(0, b)
		p.Exit(0)
	}
	if p.Stats().ThreadFree == 0 {
		t.Fatal("nothing was ever reclaimed")
	}
}

// TestEBRBlocksReuseWhileActive holds an epoch open on one thread and
// checks that a slot retired meanwhile is handed to nobody — neither
// to the thread that retired it nor, through the depot, to another —
// until the holder leaves.
func TestEBRBlocksReuseWhileActive(t *testing.T) {
	for _, tc := range []struct {
		name          string
		reuser, ahead int
	}{
		{"same-tid", 1, 0},
		// A thread keeps the bottom two chunks of its free list to
		// itself; retire that many ahead of the victim so that the
		// victim is among what thread 1 gives away.
		{"other-tid", 2, 2 * chunkSlots},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHeap(t, pmem.ModePerf)
			p := NewPool(h, Config{SlotBytes: 64, SlotsPerArea: 8, Threads: 3, RootSlot: 0})
			var ahead []pmem.Addr
			for i := 0; i < tc.ahead; i++ {
				ahead = append(ahead, p.Alloc(1))
			}
			victim := p.Alloc(1)

			p.Enter(0) // thread 0 holds an epoch open, as if mid-operation
			p.Enter(1)
			for _, a := range ahead {
				p.Retire(1, a)
			}
			p.Retire(1, victim)
			p.Exit(1)

			// churn allocates on the reuser and retires on thread 1, so
			// with reuser != 1 every reused slot crossed the depot.
			churn := func(rounds int) (sawVictim bool) {
				for i := 0; i < rounds; i++ {
					p.Enter(tc.reuser)
					b := p.Alloc(tc.reuser)
					p.Exit(tc.reuser)
					sawVictim = sawVictim || b == victim
					p.Enter(1)
					p.Retire(1, b)
					p.Exit(1)
				}
				return sawVictim
			}
			if churn(20 * chunkSlots) {
				t.Fatal("victim reused while another thread was active in an older epoch")
			}
			p.Exit(0)
			if !churn(20 * chunkSlots) {
				t.Fatal("victim never reclaimed after all threads exited")
			}
		})
	}
}

func TestConcurrentAllocNoDoubleHandout(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 32 << 20, MaxThreads: 8})
	const threads, per = 4, 2000
	p := NewPool(h, Config{SlotBytes: 64, SlotsPerArea: 128, Threads: threads, RootSlot: 0})
	var mu sync.Mutex
	seen := map[pmem.Addr]int{}
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			local := make([]pmem.Addr, 0, per)
			for i := 0; i < per; i++ {
				p.Enter(tid)
				local = append(local, p.Alloc(tid))
				p.Exit(tid)
			}
			mu.Lock()
			for _, a := range local {
				seen[a]++
			}
			mu.Unlock()
		}(tid)
	}
	wg.Wait()
	for a, n := range seen {
		if n != 1 {
			t.Fatalf("slot %d handed out %d times", a, n)
		}
	}
	if len(seen) != threads*per {
		t.Fatalf("expected %d distinct slots, got %d", threads*per, len(seen))
	}
}

// TestSplitTidsNoDoubleHandout is the asymmetric hammer: half the tids
// only allocate, the other half only retire what they are handed, so
// every reused slot crossed the depot. No slot may be handed out while
// its previous holder has not let go of it, and the pool must stop
// growing although it serves many times its own size — also when the
// scheduler parks a tid inside Enter/Exit for milliseconds, which pins
// the epoch and used to cost 20-40k slots a run (awaitGrace).
func TestSplitTidsNoDoubleHandout(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 32 << 20, MaxThreads: 8})
	const threads, per, slotsPerArea = 4, 40000, 128
	p := NewPool(h, Config{SlotBytes: 64, SlotsPerArea: slotsPerArea, Threads: threads, RootSlot: 0})
	var mu sync.Mutex
	held := map[pmem.Addr]bool{}
	// The buffer is the backlog a consumer may fall behind by; with the
	// limbo and the free lists it bounds the slots in use at once.
	handoff := make(chan pmem.Addr, 64)
	var producers, consumers sync.WaitGroup
	for tid := 0; tid < threads/2; tid++ {
		producers.Add(1)
		go func(tid int) {
			defer producers.Done()
			for i := 0; i < per; i++ {
				p.Enter(tid)
				a := p.Alloc(tid)
				p.Exit(tid)
				mu.Lock()
				if held[a] {
					t.Errorf("slot %d handed to tid %d while still held", a, tid)
				}
				held[a] = true
				mu.Unlock()
				handoff <- a
			}
		}(tid)
	}
	for tid := threads / 2; tid < threads; tid++ {
		consumers.Add(1)
		go func(tid int) {
			defer consumers.Done()
			for a := range handoff {
				mu.Lock()
				delete(held, a)
				mu.Unlock()
				p.Enter(tid)
				p.Retire(tid, a)
				p.Exit(tid)
			}
		}(tid)
	}
	producers.Wait()
	close(handoff)
	consumers.Wait()
	served := threads / 2 * per
	if slots := p.AreaCount() * slotsPerArea; slots > served/4 {
		t.Fatalf("pool grew to %d slots to serve %d allocations: slots retired on one tid are not reaching the allocating tids", slots, served)
	}
	st := p.Stats()
	if free := st.ThreadFree + st.DepotFree + st.Limbo; free != st.Areas*slotsPerArea {
		t.Fatalf("everything was retired, but %+v accounts for %d of %d slots", st, free, st.Areas*slotsPerArea)
	}
}

// TestSteadyStateAllocatesNothing pins the split-tid cycle — tid 0
// allocates, tid 1 retires — at zero Go allocations and zero new areas
// once the limbo ring, the free lists and the depot's chunk buffers
// have reached their working size.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	h := newHeap(t, pmem.ModePerf)
	p := NewPool(h, Config{SlotBytes: 64, Threads: 2, RootSlot: 0})
	cycle := func() {
		for i := 0; i < 4*chunkSlots; i++ {
			a := p.Alloc(0)
			p.Enter(1)
			p.Retire(1, a)
			p.Exit(1)
		}
	}
	for i := 0; i < 50; i++ {
		cycle()
	}
	areas := p.AreaCount()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("warmed Alloc/Retire cycle across tids = %v allocs per %d slots, want 0", got, 4*chunkSlots)
	}
	if p.AreaCount() != areas || areas != 1 {
		t.Fatalf("areas %d -> %d over a one-slot-deep cycle, want 1 throughout", areas, p.AreaCount())
	}
}

func TestRecoverPoolRebuildsFreeLists(t *testing.T) {
	h := newHeap(t, pmem.ModeCrash)
	cfg := Config{SlotBytes: 64, SlotsPerArea: 16, Threads: 2, RootSlot: 0}
	p := NewPool(h, cfg)
	liveSet := map[pmem.Addr]bool{}
	for i := 0; i < 40; i++ {
		a := p.Alloc(0)
		if i%3 == 0 {
			liveSet[a] = true // pretend these are still in the structure
		}
	}
	total := p.AreaCount() * cfg.SlotsPerArea

	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(1)))
	h.Restart()

	seen := 0
	rp := RecoverPool(h, cfg, func(a pmem.Addr) bool {
		seen++
		return liveSet[a]
	})
	if seen != total {
		t.Fatalf("live() saw %d slots, want %d", seen, total)
	}
	free := total - len(liveSet)
	if st := rp.Stats(); st.DepotFree != free || st.ThreadFree != 0 || st.Limbo != 0 {
		t.Fatalf("recovered pool %+v, want all %d non-live slots in the depot", st, free)
	}
	allocAllOnce(t, rp, 1, free, liveSet)
}

// allocAllOnce checks that tid alone can allocate every one of the
// pool's free slots exactly once, none of them live, before the pool
// opens a new area.
func allocAllOnce(t testing.TB, p *Pool, tid, free int, live map[pmem.Addr]bool) {
	t.Helper()
	areas := p.AreaCount()
	seen := map[pmem.Addr]bool{}
	for i := 0; i < free; i++ {
		a := p.Alloc(tid)
		if live[a] || seen[a] {
			t.Fatalf("allocation %d handed out slot %d (live %v, already handed out %v)", i, a, live[a], seen[a])
		}
		seen[a] = true
	}
	if st := p.Stats(); st != (Stats{Areas: areas}) {
		t.Fatalf("after allocating every free slot: %+v, want nothing free in %d areas", st, areas)
	}
	if p.Alloc(tid); p.AreaCount() != areas+1 {
		t.Fatalf("the allocation after the last free slot left %d areas, want %d", p.AreaCount(), areas+1)
	}
}

func TestRecoverPoolSurvivesCrashBeforeAnyArea(t *testing.T) {
	h := newHeap(t, pmem.ModeCrash)
	cfg := Config{SlotBytes: 64, SlotsPerArea: 16, Threads: 1, RootSlot: 3}
	NewPool(h, cfg)
	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(2)))
	h.Restart()
	rp := RecoverPool(h, cfg, func(pmem.Addr) bool { return false })
	if rp.AreaCount() != 0 {
		t.Fatalf("expected 0 areas, got %d", rp.AreaCount())
	}
	if a := rp.Alloc(0); a == 0 {
		t.Fatal("Alloc after empty recovery returned nil addr")
	}
}

func TestNewPoolPanicsOnUsedRootSlot(t *testing.T) {
	h := newHeap(t, pmem.ModePerf)
	cfg := Config{SlotBytes: 64, Threads: 1, RootSlot: 0}
	NewPool(h, cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool on used root slot did not panic")
		}
	}()
	NewPool(h, cfg)
}

// TestAreasRefusesCorruptCount: a registry count no pool could have
// written is a panic naming the registry, which a caller can recover
// from, not a 1<<40-entry allocation, which kills the process.
func TestAreasRefusesCorruptCount(t *testing.T) {
	h := newHeap(t, pmem.ModePerf)
	cfg := Config{SlotBytes: 64, SlotsPerArea: 16, Threads: 1, RootSlot: 0}
	p := NewPool(h, cfg)
	p.Alloc(0)
	if n := len(Areas(h, cfg)); n != 1 {
		t.Fatalf("Areas = %d areas, want 1", n)
	}
	h.Store(0, pmem.Addr(h.Load(0, h.RootAddr(cfg.RootSlot))), 1<<40)
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "corrupt area registry") {
			t.Fatalf("Areas on a 1<<40 count: recovered %v, want the corrupt-registry panic", r)
		}
	}()
	Areas(h, cfg)
}

func TestFreshSlotsArePersistentlyZero(t *testing.T) {
	// The paper relies on designated areas being zeroed *in NVRAM* so
	// recovery ignores never-used slots even right after a crash.
	h := newHeap(t, pmem.ModeCrash)
	p := NewPool(h, Config{SlotBytes: 64, SlotsPerArea: 8, Threads: 1, RootSlot: 0})
	a := p.Alloc(0)
	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(3)))
	for w := pmem.Addr(0); w < 64; w += 8 {
		if h.RawImg(a+w) != 0 {
			t.Fatalf("fresh slot not zero in NVRAM image at +%d", w)
		}
	}
}
