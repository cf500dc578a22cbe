package ssmem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pmem"
)

// TestQuickAllocRetireNoDoubleHandout drives random alloc/retire
// interleavings (testing/quick over the seed) and asserts the
// fundamental allocator invariant: a slot handed out is never handed
// out again until it was retired and its grace period elapsed.
func TestQuickAllocRetireNoDoubleHandout(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := pmem.New(pmem.Config{Bytes: 8 << 20, MaxThreads: 3})
		p := NewPool(h, Config{SlotBytes: 64, SlotsPerArea: 8, Threads: 2, RootSlot: 0})
		held := map[pmem.Addr]bool{}
		var order []pmem.Addr
		for i := 0; i < 2000; i++ {
			tid := rng.Intn(2)
			p.Enter(tid)
			if len(order) > 0 && rng.Intn(2) == 0 {
				// Retire a random held slot.
				k := rng.Intn(len(order))
				a := order[k]
				order = append(order[:k], order[k+1:]...)
				delete(held, a)
				p.Retire(tid, a)
			} else {
				a := p.Alloc(tid)
				if held[a] {
					t.Logf("seed %d: slot %d double-handed", seed, a)
					return false
				}
				held[a] = true
				order = append(order, a)
			}
			p.Exit(tid)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAreasDisjoint asserts that designated areas never overlap
// each other, the registry, or the root region, across random growth
// patterns.
func TestQuickAreasDisjoint(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := pmem.New(pmem.Config{Bytes: 16 << 20, MaxThreads: 3})
		slots := 4 + rng.Intn(16)
		p := NewPool(h, Config{SlotBytes: 64, SlotsPerArea: slots, Threads: 2, RootSlot: 1})
		n := 50 + rng.Intn(400)
		for i := 0; i < n; i++ {
			p.Alloc(rng.Intn(2))
		}
		areas := Areas(h, Config{SlotBytes: 64, SlotsPerArea: slots, Threads: 2, RootSlot: 1})
		type iv struct{ lo, hi pmem.Addr }
		var ivs []iv
		for _, a := range areas {
			ivs = append(ivs, iv{a.Base, a.Base + pmem.Addr(a.Slots*64)})
		}
		for i := range ivs {
			if ivs[i].lo < h.RootAddr(pmem.NumRootSlots-1) {
				t.Logf("seed %d: area %d overlaps the root region", seed, i)
				return false
			}
			for j := i + 1; j < len(ivs); j++ {
				if ivs[i].lo < ivs[j].hi && ivs[j].lo < ivs[i].hi {
					t.Logf("seed %d: areas %d and %d overlap", seed, i, j)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRecoverPartition asserts that after a crash, RecoverPool
// partitions every slot exactly once between the live set and the
// depot, for arbitrary live subsets, and that either tid can then
// allocate all of the depot before any new area opens.
func TestQuickRecoverPartition(t *testing.T) {
	prop := func(seed int64, liveMask uint64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := pmem.New(pmem.Config{Bytes: 8 << 20, Mode: pmem.ModeCrash, MaxThreads: 3})
		cfg := Config{SlotBytes: 64, SlotsPerArea: 8, Threads: 2, RootSlot: 0}
		p := NewPool(h, cfg)
		var all []pmem.Addr
		for i := 0; i < 30+rng.Intn(40); i++ {
			all = append(all, p.Alloc(0))
		}
		live := map[pmem.Addr]bool{}
		for i, a := range all {
			if liveMask>>(uint(i)%64)&1 == 1 {
				live[a] = true
			}
		}
		h.CrashNow()
		h.FinalizeCrash(rng)
		h.Restart()
		seen := map[pmem.Addr]int{}
		rp := RecoverPool(h, cfg, func(a pmem.Addr) bool {
			seen[a]++
			return live[a]
		})
		total := rp.Stats().Areas * cfg.SlotsPerArea
		if len(seen) != total {
			t.Logf("seed %d: live() saw %d slots, want %d", seed, len(seen), total)
			return false
		}
		for a, n := range seen {
			if n != 1 {
				t.Logf("seed %d: slot %d visited %d times", seed, a, n)
				return false
			}
		}
		if free := rp.Stats().DepotFree; free != total-len(live) {
			t.Logf("seed %d: free %d, want %d", seed, free, total-len(live))
			return false
		}
		allocAllOnce(t, rp, rng.Intn(2), total-len(live), live)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
