package pmem

import (
	"math/rand"
	"testing"
)

// eightStores is what StoreLine must be indistinguishable from.
func eightStores(h *Heap, tid int, a Addr, v *[WordsPerLine]uint64) {
	for w, x := range v {
		h.Store(tid, a+Addr(w*WordBytes), x)
	}
}

// TestStoreLineMatchesStores: one seeded script of whole-line writes,
// flushes and fences over sixteen lines, once through StoreLine and once
// through eight Stores a line, leaves the same statistics, the same
// modelled clock, the same working view and the same image, in both
// modes.
func TestStoreLineMatchesStores(t *testing.T) {
	const lines = 16
	type lineWriter func(h *Heap, tid int, a Addr, v *[WordsPerLine]uint64)
	// No drain model: a long window's residual is a clock reading, and
	// the charges compared below must be arithmetic.
	lat := DefaultLatency()
	lat.DrainNsPerLine = 0
	for _, mode := range []Mode{ModePerf, ModeCrash} {
		run := func(write lineWriter) (*Heap, Addr) {
			h := New(Config{Bytes: 1 << 20, Mode: mode, MaxThreads: 2, Latency: lat})
			base := h.AllocRaw(0, lines*CacheLineBytes, CacheLineBytes)
			rng := rand.New(rand.NewSource(24))
			for i := 0; i < 300; i++ {
				a := base + Addr(rng.Intn(lines))*CacheLineBytes
				var v [WordsPerLine]uint64
				for w := range v {
					v[w] = rng.Uint64()
				}
				write(h, 0, a, &v)
				switch rng.Intn(3) {
				case 0:
					h.Flush(0, a)
				case 1:
					h.Persist(0, a)
				}
			}
			return h, base
		}
		one, base := run((*Heap).StoreLine)
		eight, _ := run(eightStores)
		same := func(when string) {
			t.Helper()
			if a, b := one.TotalStats(), eight.TotalStats(); a != b {
				t.Fatalf("mode %d %s: stats %+v through StoreLine, %+v through Stores", mode, when, a, b)
			}
			if a, b := one.threads[0].spun, eight.threads[0].spun; a != b {
				t.Fatalf("mode %d %s: charged %d ns through StoreLine, %d through Stores", mode, when, a, b)
			}
			for a := base; a < base+lines*CacheLineBytes; a += WordBytes {
				if one.RawMem(a) != eight.RawMem(a) || one.RawImg(a) != eight.RawImg(a) {
					t.Fatalf("mode %d %s: word %d differs: mem %#x / %#x, img %#x / %#x", mode, when, a,
						one.RawMem(a), eight.RawMem(a), one.RawImg(a), eight.RawImg(a))
				}
			}
		}
		same("after the script")
		if one.TotalStats().PostFlushAccesses == 0 {
			t.Fatalf("mode %d: the script never rewrote a flushed line", mode)
		}
		for _, h := range []*Heap{one, eight} {
			for l := 0; l < lines; l++ {
				h.Flush(0, base+Addr(l*CacheLineBytes))
			}
			h.Fence(0)
		}
		same("after Flush+Fence of every line")
		if mode == ModeCrash {
			for a := base; a < base+lines*CacheLineBytes; a += WordBytes {
				if one.RawImg(a) != one.RawMem(a) {
					t.Fatalf("word %d: image %#x behind the fenced view %#x", a, one.RawImg(a), one.RawMem(a))
				}
			}
		}
		// Every line is flushed now: rewriting one is one access to
		// flushed content and one NVRAM read, however it is written.
		for _, w := range []struct {
			h     *Heap
			write lineWriter
		}{{one, (*Heap).StoreLine}, {eight, eightStores}} {
			before, spun := w.h.StatsOf(0), w.h.threads[0].spun
			w.write(w.h, 0, base, &[WordsPerLine]uint64{1, 2, 3, 4, 5, 6, 7, 8})
			d := w.h.StatsOf(0).Sub(before)
			if d != (Stats{Stores: WordsPerLine, PostFlushAccesses: 1}) {
				t.Fatalf("mode %d: rewriting a flushed line cost %+v", mode, d)
			}
			if got := w.h.threads[0].spun - spun; got != w.h.lat.NVMReadNs {
				t.Fatalf("mode %d: rewriting a flushed line charged %d ns, want one NVMReadNs = %d", mode, got, w.h.lat.NVMReadNs)
			}
		}
	}
}

func TestStoreLineRequiresLineAlignment(t *testing.T) {
	for _, mode := range []Mode{ModePerf, ModeCrash} {
		h := New(Config{Bytes: 1 << 20, Mode: mode})
		a := h.AllocRaw(0, 2*CacheLineBytes, CacheLineBytes)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("mode %d: StoreLine on a word-aligned address did not panic", mode)
				}
			}()
			h.StoreLine(0, a+WordBytes, &[WordsPerLine]uint64{})
		}()
	}
}

// TestStoreLineCrashPoints: a power cut at each of the eight accesses of
// a StoreLine, at its Flush, at its Fence and after it, under twenty
// eviction choices each. The image line is always a word-order prefix of
// the new content over the old — never a later word without every
// earlier one, which is the order a seal in the last word rests on — no
// longer than the stores that completed, and whole once fenced.
func TestStoreLineCrashPoints(t *testing.T) {
	const accesses = WordsPerLine + 2 // eight stores, Flush, Fence
	for k := int64(1); k <= accesses+1; k++ {
		for seed := int64(0); seed < 20; seed++ {
			h := newCrashHeap(t)
			a := h.AllocRaw(0, CacheLineBytes, CacheLineBytes)
			var old, fresh [WordsPerLine]uint64
			for w := range old {
				old[w], fresh[w] = 100+uint64(w), 200+uint64(w)
			}
			h.StoreLine(0, a, &old)
			h.Persist(0, a)
			h.ScheduleCrashAtAccess(k)
			crashed := Protect(func() {
				h.StoreLine(0, a, &fresh)
				h.Flush(0, a)
				h.Fence(0)
			})
			if crashed != (k <= accesses) {
				t.Fatalf("cut %d: crashed = %v", k, crashed)
			}
			if !crashed {
				h.CrashNow()
			}
			h.FinalizeCrash(rand.New(rand.NewSource(seed)))
			p := 0
			for p < WordsPerLine && h.RawImg(a+Addr(p*WordBytes)) == fresh[p] {
				p++
			}
			for w := p; w < WordsPerLine; w++ {
				if got := h.RawImg(a + Addr(w*WordBytes)); got != old[w] {
					t.Fatalf("cut %d seed %d: word %d is %d behind a %d-word prefix: a later word without an earlier one", k, seed, w, got, p)
				}
			}
			if done := int(min(k-1, WordsPerLine)); p > done {
				t.Fatalf("cut %d seed %d: %d words durable, only %d stored", k, seed, p, done)
			}
			if k > accesses && p != WordsPerLine {
				t.Fatalf("seed %d: fenced line has only %d words durable", seed, p)
			}
		}
	}
}
