package pmem

import (
	"fmt"
	"math/rand"
	"testing"
)

// storeFlush is what WriteBack must be indistinguishable from: eight
// Stores and then one Flush per line, line by line.
func storeFlush(h *Heap, tid int, a Addr, words []uint64) {
	for l := 0; l < len(words)/WordsPerLine; l++ {
		base := a + Addr(l*CacheLineBytes)
		for w, x := range words[l*WordsPerLine : (l+1)*WordsPerLine] {
			h.Store(tid, base+Addr(w*WordBytes), x)
		}
		h.Flush(tid, base)
	}
}

type lockstepConfig struct {
	name   string
	mode   Mode
	lat    LatencyModel
	retain bool
}

// lockstepConfigs are the heap configurations a lockstep test runs in:
// both modes, both flush behaviours, with and without the drain model.
func lockstepConfigs() []lockstepConfig {
	noDrain := DefaultLatency()
	noDrain.DrainNsPerLine = 0
	return []lockstepConfig{
		{"perf", ModePerf, noDrain, false},
		{"crash", ModeCrash, noDrain, false},
		{"perf/retain", ModePerf, noDrain, true},
		{"crash/retain", ModeCrash, noDrain, true},
		{"perf/drain", ModePerf, DefaultLatency(), false},
		{"crash/drain", ModeCrash, DefaultLatency(), false},
	}
}

// lockstep is two heaps of one configuration, each with lines cache lines
// allocated at base, that a test drives through the same script by two
// routes (one and seq, in the order both returns them) and compares
// with same.
type lockstep struct {
	c        lockstepConfig
	base     Addr
	lines    int
	one, seq *lockstepHeap
	// names says which route each heap takes, for failure messages.
	names [2]string
}

type lockstepHeap struct {
	h     *Heap
	hooks []Addr
}

func newLockstep(c lockstepConfig, lines int, one, seq string) *lockstep {
	l := &lockstep{c: c, lines: lines, one: &lockstepHeap{}, seq: &lockstepHeap{}, names: [2]string{one, seq}}
	for _, x := range l.both() {
		x.h = New(Config{Bytes: 1 << 20, Mode: c.mode, MaxThreads: 2, Latency: c.lat, FlushRetainsLine: c.retain})
		l.base = x.h.AllocRaw(0, int64(lines)*CacheLineBytes, CacheLineBytes)
		x.h.SetPostFlushHook(func(_ int, a Addr) { x.hooks = append(x.hooks, a) })
	}
	return l
}

func (l *lockstep) both() []*lockstepHeap { return []*lockstepHeap{l.one, l.seq} }

// same checks that the two heaps leave the same statistics, post-flush
// hook calls, working view and, on a ModeCrash heap, image (a ModePerf
// heap keeps none). Without the drain model the two
// modelled clocks agree to the nanosecond. With it, a measured window's
// Fence charges by the real clock, so the clocks agree only within a
// window: both heaps have read the clock as often, hold the same lines,
// agree whether the window is measured and have spun the same since it
// opened.
func (l *lockstep) same(t *testing.T, when string) {
	t.Helper()
	one, seq, n := l.one, l.seq, l.names
	if a, b := one.h.TotalStats(), seq.h.TotalStats(); a != b {
		t.Fatalf("%s: stats %+v through %s, %+v through %s", when, a, n[0], b, n[1])
	}
	if len(one.hooks) != len(seq.hooks) {
		t.Fatalf("%s: %d post-flush hook calls through %s, %d through %s", when, len(one.hooks), n[0], len(seq.hooks), n[1])
	}
	for i := range one.hooks {
		if one.hooks[i] != seq.hooks[i] {
			t.Fatalf("%s: hook call %d at %d through %s, %d through %s", when, i, one.hooks[i], n[0], seq.hooks[i], n[1])
		}
	}
	a, b := &one.h.threads[0], &seq.h.threads[0]
	if a.clockReads != b.clockReads || a.window.lines != b.window.lines || a.window.measured != b.window.measured ||
		a.spun-a.window.spunAtOpen != b.spun-b.window.spunAtOpen {
		t.Fatalf("%s: window %+v after %d clock readings through %s, %+v after %d through %s",
			when, a.window, a.clockReads, n[0], b.window, b.clockReads, n[1])
	}
	if l.c.lat.DrainNsPerLine == 0 && a.spun != b.spun {
		t.Fatalf("%s: charged %d ns through %s, %d through %s", when, a.spun, n[0], b.spun, n[1])
	}
	for w := l.base; w < l.base+Addr(l.lines)*CacheLineBytes; w += WordBytes {
		if one.h.RawMem(w) != seq.h.RawMem(w) {
			t.Fatalf("%s: word %d differs: mem %#x / %#x", when, w, one.h.RawMem(w), seq.h.RawMem(w))
		}
		if l.c.mode == ModeCrash && one.h.RawImg(w) != seq.h.RawImg(w) {
			t.Fatalf("%s: word %d differs: img %#x / %#x", when, w, one.h.RawImg(w), seq.h.RawImg(w))
		}
	}
}

// fence fences both heaps after checking them, and tallies the window it
// closes as measured or unmeasured.
func (l *lockstep) fence(t *testing.T, measured, unmeasured *int) {
	t.Helper()
	l.same(t, "before a Fence")
	if w := l.one.h.threads[0].window; w.measured {
		*measured++
	} else if w.lines > 0 {
		*unmeasured++
	}
	for _, x := range l.both() {
		x.h.Fence(0)
	}
}

// covered fails the test unless the script rewrote a flushed line and,
// with the drain model, fenced both kinds of window.
func (l *lockstep) covered(t *testing.T, measured, unmeasured int) {
	t.Helper()
	if got := l.one.h.TotalStats().PostFlushAccesses; got == 0 && !l.c.retain {
		t.Fatal("the script never rewrote a flushed line")
	}
	if l.c.lat.DrainNsPerLine > 0 && (measured == 0 || unmeasured == 0) {
		t.Fatalf("%d measured and %d unmeasured windows fenced: the seed no longer covers both", measured, unmeasured)
	}
}

// TestWriteBackMatchesStoreFlush: one seeded script of runs of whole
// lines written back, allocator recycling (ClearLineState) and fences
// over 32 lines, played in lockstep through WriteBack and through
// storeFlush, leaves the same statistics, post-flush hook calls, working
// view, image and modelled clock (see lockstep.same).
func TestWriteBackMatchesStoreFlush(t *testing.T) {
	const lines = 32
	for _, c := range lockstepConfigs() {
		t.Run(c.name, func(t *testing.T) {
			l := newLockstep(c, lines, "WriteBack", "Store+Flush")
			write := [2]func(h *Heap, tid int, a Addr, words []uint64){(*Heap).WriteBack, storeFlush}
			base := l.base
			rng := rand.New(rand.NewSource(29))
			var measured, unmeasured int
			for i := 0; i < 300; i++ {
				n := 1 + rng.Intn(3)
				a := base + Addr(rng.Intn(lines-n+1))*CacheLineBytes
				words := make([]uint64, n*WordsPerLine)
				for w := range words {
					words[w] = rng.Uint64()
				}
				switch rng.Intn(4) {
				case 0: // a recycled slot: its lines are no longer flushed
					for _, x := range l.both() {
						for k := 0; k < n; k++ {
							x.h.ClearLineState(a + Addr(k*CacheLineBytes))
						}
					}
				case 1:
					l.fence(t, &measured, &unmeasured)
				}
				for i, x := range l.both() {
					write[i](x.h, 0, a, words)
				}
				l.same(t, "after a write-back")
			}
			l.covered(t, measured, unmeasured)
			for _, x := range l.both() {
				x.h.Fence(0)
			}
			l.same(t, "after the last Fence")
			if c.mode == ModeCrash {
				for w := base; w < base+lines*CacheLineBytes; w += WordBytes {
					if l.one.h.RawImg(w) != l.one.h.RawMem(w) {
						t.Fatalf("word %d: image %#x behind the fenced view %#x", w, l.one.h.RawImg(w), l.one.h.RawMem(w))
					}
				}
			}
			if c.retain || c.lat.DrainNsPerLine > 0 {
				return
			}
			// Every line written back is flushed now: rewriting a run of
			// two is two accesses to flushed content and two NVRAM reads
			// beside the two flushes, however it is written.
			for i, x := range l.both() {
				x.h.WriteBack(0, base, make([]uint64, 2*WordsPerLine))
				x.h.Fence(0)
				before, spun := x.h.StatsOf(0), x.h.threads[0].spun
				write[i](x.h, 0, base, make([]uint64, 2*WordsPerLine))
				if d := x.h.StatsOf(0).Sub(before); d != (Stats{Stores: 2 * WordsPerLine, Flushes: 2, PostFlushAccesses: 2, DrainLines: 2}) {
					t.Fatalf("rewriting two flushed lines cost %+v", d)
				}
				if got, want := x.h.threads[0].spun-spun, 2*(x.h.lat.NVMReadNs+x.h.lat.FlushNs); got != want {
					t.Fatalf("rewriting two flushed lines charged %d ns, want %d", got, want)
				}
			}
		})
	}
}

// TestStoreOwnedMatchesStore: one seeded script of single-word stores,
// flushes, fences and allocator recycling (ClearLineState) over 16
// lines, played in lockstep through StoreOwned and FlushOwned and
// through Store and Flush, leaves the same statistics, post-flush hook
// calls, working view, image and modelled clock (see lockstep.same).
// Some of the script's flushes are plain Flushes on both sides, so the
// owned and the shared paths also meet on one line. The script is
// single-threaded, so every line is owned by the one thread that
// writes it.
func TestStoreOwnedMatchesStore(t *testing.T) {
	const lines = 16
	for _, c := range lockstepConfigs() {
		t.Run(c.name, func(t *testing.T) {
			l := newLockstep(c, lines, "StoreOwned+FlushOwned", "Store+Flush")
			store := [2]func(h *Heap, tid int, a Addr, v uint64){(*Heap).StoreOwned, (*Heap).Store}
			flush := [2]func(h *Heap, tid int, a Addr){(*Heap).FlushOwned, (*Heap).Flush}
			rng := rand.New(rand.NewSource(31))
			var measured, unmeasured int
			for i := 0; i < 2000; i++ {
				a := l.base + Addr(rng.Intn(lines*WordsPerLine))*WordBytes
				switch op := rng.Intn(20); {
				case op < 10:
					v := rng.Uint64()
					for i, x := range l.both() {
						store[i](x.h, 0, a, v)
					}
				case op < 15:
					for i, x := range l.both() {
						flush[i](x.h, 0, a)
					}
				case op < 17:
					for _, x := range l.both() {
						x.h.Flush(0, a)
					}
				case op < 19:
					for _, x := range l.both() {
						x.h.ClearLineState(a)
					}
				default:
					l.fence(t, &measured, &unmeasured)
				}
				l.same(t, fmt.Sprintf("after step %d", i))
			}
			l.covered(t, measured, unmeasured)
			for _, x := range l.both() {
				x.h.Fence(0)
			}
			l.same(t, "after the last Fence")
		})
	}
}

func TestWriteBackRequiresLineAlignment(t *testing.T) {
	for _, mode := range []Mode{ModePerf, ModeCrash} {
		h := New(Config{Bytes: 1 << 20, Mode: mode})
		a := h.AllocRaw(0, 2*CacheLineBytes, CacheLineBytes)
		for _, c := range []struct {
			name  string
			a     Addr
			words int
		}{{"word-aligned address", a + WordBytes, WordsPerLine}, {"partial line", a, WordsPerLine + 1}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("mode %d: WriteBack of a %s did not panic", mode, c.name)
					}
				}()
				h.WriteBack(0, c.a, make([]uint64, c.words))
			}()
		}
	}
}

// TestWriteBackCrashPoints: a power cut at each of the 9n accesses of a
// WriteBack of n = 3 lines (eight stores and a Flush a line), at its
// Fence and after it, under twenty eviction choices each. Every image
// line is a word-order prefix of its new content over the old — never a
// later word without every earlier one, which is the order a seal in the
// last word rests on — no longer than the stores that completed on it,
// and whole once fenced.
func TestWriteBackCrashPoints(t *testing.T) {
	const (
		n        = 3
		accesses = n*(WordsPerLine+1) + 1 // n × (eight stores, Flush), Fence
	)
	for k := int64(1); k <= accesses+1; k++ {
		for seed := int64(0); seed < 20; seed++ {
			h := newCrashHeap(t)
			a := h.AllocRaw(0, n*CacheLineBytes, CacheLineBytes)
			old, fresh := make([]uint64, n*WordsPerLine), make([]uint64, n*WordsPerLine)
			for w := range old {
				old[w], fresh[w] = 100+uint64(w), 200+uint64(w)
			}
			h.WriteBack(0, a, old)
			h.Fence(0)
			h.ScheduleCrashAtAccess(k)
			crashed := Protect(func() {
				h.WriteBack(0, a, fresh)
				h.Fence(0)
			})
			if crashed != (k <= accesses) {
				t.Fatalf("cut %d: crashed = %v", k, crashed)
			}
			if !crashed {
				h.CrashNow()
			}
			h.FinalizeCrash(rand.New(rand.NewSource(seed)))
			for l := 0; l < n; l++ {
				line := a + Addr(l*CacheLineBytes)
				p := 0
				for p < WordsPerLine && h.RawImg(line+Addr(p*WordBytes)) == fresh[l*WordsPerLine+p] {
					p++
				}
				for w := p; w < WordsPerLine; w++ {
					if got := h.RawImg(line + Addr(w*WordBytes)); got != old[l*WordsPerLine+w] {
						t.Fatalf("cut %d seed %d line %d: word %d is %d behind a %d-word prefix: a later word without an earlier one",
							k, seed, l, w, got, p)
					}
				}
				// The accesses before the cut that were stores to this line.
				done := min(max(int(k-1)-l*(WordsPerLine+1), 0), WordsPerLine)
				if p > done {
					t.Fatalf("cut %d seed %d line %d: %d words durable, only %d stored", k, seed, l, p, done)
				}
				if k > accesses && p != WordsPerLine {
					t.Fatalf("seed %d line %d: fenced line has only %d words durable", seed, l, p)
				}
			}
		}
	}
}
