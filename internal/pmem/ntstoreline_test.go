package pmem

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// ntStores is what NTStoreLine must equal but for its drain: one
// NTStore per word mask selects, in word order.
func ntStores(h *Heap, tid int, a Addr, words *[WordsPerLine]uint64, mask uint8) {
	for i, v := range words {
		if mask&(1<<i) != 0 {
			h.NTStore(tid, a+Addr(i*WordBytes), v)
		}
	}
}

// sameButDrain checks that l.one, which wrote through NTStoreLine, and
// l.seq, which wrote the same words through NTStore, differ in nothing
// but the lines they queued: gap more over the run and open more in
// the window open now. Statistics (DrainLines less gap), post-flush
// hook calls, access numbers, working view and, on a ModeCrash heap,
// image, open journals and pending flushes are equal. The modelled
// clock is equal without the drain model; with it, both windows have
// spun the same since they opened, the drain bound differs by the
// drain of the open extra lines alone, and the NTStoreLine window is
// measured only if the NTStore one is too.
func (l *lockstep) sameButDrain(t *testing.T, when string, gap, open int64) {
	t.Helper()
	one, seq := l.one.h, l.seq.h
	a, b := one.TotalStats(), seq.TotalStats()
	a.DrainLines += uint64(gap)
	if a != b {
		t.Fatalf("%s: stats %+v through NTStoreLine (DrainLines +%d), %+v through NTStore", when, a, gap, b)
	}
	if !slices.Equal(l.one.hooks, l.seq.hooks) {
		t.Fatalf("%s: post-flush hook calls %v through NTStoreLine, %v through NTStore", when, l.one.hooks, l.seq.hooks)
	}
	if x, y := one.AccessCount(), seq.AccessCount(); x != y {
		t.Fatalf("%s: %d accesses through NTStoreLine, %d through NTStore", when, x, y)
	}
	for w := l.base; w < l.base+Addr(l.lines)*CacheLineBytes; w += WordBytes {
		if one.RawMem(w) != seq.RawMem(w) {
			t.Fatalf("%s: word %d differs: mem %#x / %#x", when, w, one.RawMem(w), seq.RawMem(w))
		}
		if l.c.mode == ModeCrash && one.RawImg(w) != seq.RawImg(w) {
			t.Fatalf("%s: word %d differs: img %#x / %#x", when, w, one.RawImg(w), seq.RawImg(w))
		}
	}
	if l.c.mode == ModeCrash {
		x, y := one.openJournals(), seq.openJournals()
		if len(x) != len(y) {
			t.Fatalf("%s: %d open journals through NTStoreLine, %d through NTStore", when, len(x), len(y))
		}
		for i := range x {
			if x[i].line != y[i].line || x[i].persisted != y[i].persisted || x[i].base != y[i].base ||
				!slices.Equal(x[i].entries, y[i].entries) {
				t.Fatalf("%s: journal %d is %+v through NTStoreLine, %+v through NTStore", when, i, *x[i], *y[i])
			}
		}
		if p, q := one.threads[0].pending, seq.threads[0].pending; !slices.Equal(p, q) {
			t.Fatalf("%s: pending flushes %v through NTStoreLine, %v through NTStore", when, p, q)
		}
	}
	x, y := &one.threads[0], &seq.threads[0]
	d := l.c.lat.DrainNsPerLine
	if d == 0 {
		if x.spun != y.spun {
			t.Fatalf("%s: charged %d ns through NTStoreLine, %d through NTStore", when, x.spun, y.spun)
		}
		return
	}
	if x.window.lines+open != y.window.lines || x.window.measured && !y.window.measured ||
		y.window.lines > 0 && (x.spun-x.window.spunAtOpen != y.spun-y.window.spunAtOpen || y.drainBound(d)-x.drainBound(d) != open*d) {
		t.Fatalf("%s: window %+v (bound %d) through NTStoreLine, %+v (bound %d) through NTStore, %d extra lines open",
			when, x.window, x.drainBound(d), y.window, y.drainBound(d), open)
	}
}

// TestNTStoreLineMatchesNTStores: one seeded script of NTStoreLines
// under random masks, interleaved with Stores, Flushes and Fences over
// 16 lines, played in lockstep through NTStoreLine and through one
// NTStore per masked word, leaves the same statistics, hook calls,
// access numbers, working view, image, journals and pending flushes,
// and a modelled clock that differs only in drain: an NTStoreLine of n
// words queues one line where the NTStores queue n (see sameButDrain).
func TestNTStoreLineMatchesNTStores(t *testing.T) {
	const lines = 16
	for _, c := range lockstepConfigs() {
		t.Run(c.name, func(t *testing.T) {
			l := newLockstep(c, lines, "NTStoreLine", "NTStore")
			if c.mode == ModeCrash {
				// Armed out of reach, so every crash check counts an access.
				for _, x := range l.both() {
					x.h.ScheduleCrashAtAccess(1 << 60)
				}
			}
			write := [2]func(h *Heap, tid int, a Addr, words *[WordsPerLine]uint64, mask uint8){(*Heap).NTStoreLine, ntStores}
			rng := rand.New(rand.NewSource(37))
			var gap, open int64
			var lineCalls int
			for i := 0; i < 1500; i++ {
				line := l.base + Addr(rng.Intn(lines))*CacheLineBytes
				a := line + Addr(rng.Intn(WordsPerLine))*WordBytes
				switch op := rng.Intn(20); {
				case op < 10:
					var words [WordsPerLine]uint64
					for w := range words {
						words[w] = rng.Uint64()
					}
					mask := []uint8{0xff, 0xf7, uint8(rng.Intn(256))}[rng.Intn(3)]
					for i, x := range l.both() {
						write[i](x.h, 0, line, &words, mask)
					}
					if n := int64(bits.OnesCount8(mask)); n > 0 {
						gap, open = gap+n-1, open+n-1
						lineCalls++
					}
				case op < 14:
					v := rng.Uint64()
					for _, x := range l.both() {
						x.h.Store(0, a, v)
					}
				case op < 17:
					for _, x := range l.both() {
						x.h.Flush(0, a)
					}
				default:
					l.sameButDrain(t, "before a Fence", gap, open)
					for _, x := range l.both() {
						x.h.Fence(0)
					}
					open = 0
				}
				l.sameButDrain(t, fmt.Sprintf("after step %d", i), gap, open)
			}
			if lineCalls == 0 || gap == 0 {
				t.Fatal("the script stored no line of more than one word")
			}
			for _, x := range l.both() {
				x.h.Fence(0)
			}
			l.sameButDrain(t, "after the last Fence", gap, 0)
		})
	}
}

// TestNTStoreLineQueuesOneLine pins what NTStoreLine saves, in both
// modes: one line queued where the same words through NTStore queue
// one each, and, under the default prices, a fence window that reads
// no clock and is charged exactly NTStoreNs a word plus one line's
// drain bound, where the NTStores' window must be measured.
func TestNTStoreLineQueuesOneLine(t *testing.T) {
	lat := DefaultLatency()
	for _, mode := range []Mode{ModePerf, ModeCrash} {
		for _, mask := range []uint8{0xff, 0xf7, 0x03, 0x01} {
			t.Run(fmt.Sprintf("mode%d/%#02x", mode, mask), func(t *testing.T) {
				n := int64(bits.OnesCount8(mask))
				var words [WordsPerLine]uint64
				for w := range words {
					words[w] = uint64(w + 1)
				}
				for _, c := range []struct {
					name  string
					write func(h *Heap, tid int, a Addr, words *[WordsPerLine]uint64, mask uint8)
					lines int64
				}{{"NTStoreLine", (*Heap).NTStoreLine, 1}, {"NTStore", ntStores, n}} {
					h := New(Config{Bytes: 1 << 20, Mode: mode, MaxThreads: 1, Latency: lat})
					a := h.AllocRaw(0, CacheLineBytes, CacheLineBytes)
					ts := &h.threads[0]
					before, spun, reads := h.StatsOf(0), ts.spun, ts.clockReads
					c.write(h, 0, a, &words, mask)
					h.Fence(0)
					d := h.StatsOf(0).Sub(before)
					if want := (Stats{NTStores: uint64(n), Fences: 1, DrainLines: uint64(c.lines)}); d != want {
						t.Fatalf("%s cost %+v, want %+v", c.name, d, want)
					}
					// One line's bound never exceeds a line's drain, so no
					// clock is read; n lines' does once n > 1 under these prices.
					if measured := ts.clockReads != reads; measured != (c.lines > 1) {
						t.Fatalf("%s of %d words took %d clock readings", c.name, n, ts.clockReads-reads)
					}
					if c.lines == 1 {
						want := n*lat.NTStoreNs + lat.FenceNs + max(0, lat.DrainNsPerLine-n*lat.NTStoreNs)
						if got := ts.spun - spun; got != want {
							t.Fatalf("%s of %d words and a Fence charged %d ns, want %d", c.name, n, got, want)
						}
					}
					for w := 0; w < WordsPerLine; w++ {
						want := uint64(0)
						if mask&(1<<w) != 0 {
							want = words[w]
						}
						if got := h.RawMem(a + Addr(w*WordBytes)); got != want {
							t.Fatalf("%s: word %d is %d, want %d", c.name, w, got, want)
						}
					}
				}
			})
		}
	}
}

func TestNTStoreLineRequiresLineAlignment(t *testing.T) {
	for _, mode := range []Mode{ModePerf, ModeCrash} {
		h := New(Config{Bytes: 1 << 20, Mode: mode})
		a := h.AllocRaw(0, 2*CacheLineBytes, CacheLineBytes)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("mode %d: NTStoreLine at a word-aligned address did not panic", mode)
				}
			}()
			h.NTStoreLine(0, a+WordBytes, &[WordsPerLine]uint64{}, 0xff)
		}()
	}
}

// TestNTStoreLineCrashPoints: a power cut at each access of an
// NTStoreLine (one a masked word) and at its Fence, and after it, under
// twenty eviction choices each, for a full line, a line without word 3
// (dheap's entry header) and a sparse mask. Every image line is a
// word-order prefix of the masked words' new content over the old —
// never a later word without every earlier one, which is the order a
// checksum in the last word rests on — no longer than the words stored
// before the cut, and whole once fenced; an unmasked word keeps its old
// content.
func TestNTStoreLineCrashPoints(t *testing.T) {
	for _, mask := range []uint8{0xff, 0xf7, 0x5a} {
		t.Run(strconv.Itoa(int(mask)), func(t *testing.T) {
			var masked []int
			for w := 0; w < WordsPerLine; w++ {
				if mask&(1<<w) != 0 {
					masked = append(masked, w)
				}
			}
			accesses := int64(len(masked)) + 1 // a word each, then the Fence
			var old, fresh [WordsPerLine]uint64
			for w := range old {
				old[w], fresh[w] = 100+uint64(w), 200+uint64(w)
			}
			for k := int64(1); k <= accesses+1; k++ {
				for seed := int64(0); seed < 20; seed++ {
					h := newCrashHeap(t)
					a := h.AllocRaw(0, CacheLineBytes, CacheLineBytes)
					h.NTStoreLine(0, a, &old, 0xff)
					h.Fence(0)
					start := h.AccessCount()
					h.ScheduleCrashAtAccess(k)
					crashed := Protect(func() {
						h.NTStoreLine(0, a, &fresh, mask)
						h.Fence(0)
					})
					if crashed != (k <= accesses) {
						t.Fatalf("cut %d: crashed = %v", k, crashed)
					}
					if !crashed {
						if got := h.AccessCount() - start; got != accesses {
							t.Fatalf("NTStoreLine of %d words and a Fence made %d accesses, want %d", len(masked), got, accesses)
						}
						h.CrashNow()
					}
					h.FinalizeCrash(rand.New(rand.NewSource(seed)))
					p := 0
					for p < len(masked) && h.RawImg(a+Addr(masked[p]*WordBytes)) == fresh[masked[p]] {
						p++
					}
					for w := 0; w < WordsPerLine; w++ {
						if mask&(1<<w) != 0 && slices.Index(masked, w) < p {
							continue
						}
						if got := h.RawImg(a + Addr(w*WordBytes)); got != old[w] {
							t.Fatalf("cut %d seed %d: word %d is %d behind a %d-word prefix: a later word without an earlier one",
								k, seed, w, got, p)
						}
					}
					if done := min(int(k-1), len(masked)); p > done {
						t.Fatalf("cut %d seed %d: %d words durable, only %d stored", k, seed, p, done)
					}
					if k > accesses && p != len(masked) {
						t.Fatalf("seed %d: fenced line has only %d of %d words durable", seed, p, len(masked))
					}
				}
			}
		})
	}
}

// BenchmarkNTStoreLineFence is one fence window of n whole lines
// written by NTStoreLine under the default prices: 1 is the window a
// heap-delay entry opens, 8 the one a PublishAtBatch(8) opens, against
// BenchmarkNTStoreBurstFence's 56 word NTStores for the same batch.
func BenchmarkNTStoreLineFence(b *testing.B) {
	for _, n := range []int{1, 8} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			h := New(Config{Bytes: 1 << 20, Latency: DefaultLatency()})
			a := h.AllocRaw(0, int64(n)*CacheLineBytes, CacheLineBytes)
			ts := &h.threads[0]
			var words [WordsPerLine]uint64
			reads, wait := ts.clockReads, ts.drainWaitNs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				words[0] = uint64(i)
				for l := 0; l < n; l++ {
					h.NTStoreLine(0, a+Addr(l*CacheLineBytes), &words, 0xf7)
				}
				h.Fence(0)
			}
			reportDrain(b, ts, reads, wait)
		})
	}
}
