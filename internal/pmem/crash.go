package pmem

import "math/rand"

// crashSignal is the panic payload used to stop a thread at a
// simulated crash. It is deliberately an unexported type so that
// Protect cannot be fooled by arbitrary panics.
type crashSignal struct{}

func (crashSignal) Error() string { return "pmem: simulated full-system crash" }

// Protect runs f and reports whether it was interrupted by a simulated
// crash. Any other panic is re-raised. Worker goroutines in crash
// tests wrap their operation loops in Protect.
func Protect(f func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashSignal); ok {
				crashed = true
				return
			}
			panic(r)
		}
	}()
	f()
	return false
}

// ScheduleCrashAtAccess arms a crash that fires when n further
// simulated memory accesses (counted across all threads) have
// occurred. n <= 0 disarms. Arming requires ModeCrash: a ModePerf heap
// counts no accesses, so its crash would never fire.
func (h *Heap) ScheduleCrashAtAccess(n int64) {
	if n <= 0 {
		h.crashAt.Store(0)
		return
	}
	if h.cfg.Mode != ModeCrash {
		panic("pmem: ScheduleCrashAtAccess requires ModeCrash")
	}
	h.crashAt.Store(h.accessNo.Load() + n)
}

// CrashNow marks the system as crashed: every subsequent simulated
// access by any thread panics with the crash signal (catch it with
// Protect). If the heap belongs to a HeapSet, the crash propagates to
// every member — the set shares one power supply. Only meaningful in
// ModeCrash.
func (h *Heap) CrashNow() {
	if h.cfg.Mode != ModeCrash {
		panic("pmem: CrashNow requires ModeCrash")
	}
	h.triggerCrash()
}

// triggerCrash marks this heap and every sibling in its crash group as
// crashed. Idempotent; safe from multiple threads.
func (h *heapState) triggerCrash() {
	h.crashed.Store(true)
	for _, s := range h.crashGroup {
		s.crashed.Store(true)
	}
}

// Crashed reports whether a crash has been triggered and not yet
// cleared by Restart.
func (h *Heap) Crashed() bool { return h.crashed.Load() }

func (h *Heap) crashCheck() {
	if h.crashed.Load() {
		panic(crashSignal{})
	}
	if at := h.crashAt.Load(); at > 0 && h.accessNo.Add(1) >= at {
		h.triggerCrash()
		panic(crashSignal{})
	}
}

// FinalizeCrash materializes the NVRAM image at the crash point: for
// every journalled cache line, a durable prefix of its stores is
// chosen uniformly at random between the prefix guaranteed by fences
// and the full store sequence (modelling unpredictable implicit cache
// evictions under Assumption 1), and applied to the journal's base,
// which is the line's image. Must be called after all worker goroutines
// have observed the crash and stopped.
//
// Only lines with an open journal are visited (every other line's image
// is its working view). They are visited in line order, so rng is drawn
// from in the order a walk over every line would draw. Their journals
// are emptied but stay open until Restart, which reloads exactly those
// lines from their bases; until then the working view still holds what
// ran before the crash.
func (h *Heap) FinalizeCrash(rng *rand.Rand) {
	if h.cfg.Mode != ModeCrash {
		panic("pmem: FinalizeCrash requires ModeCrash")
	}
	if !h.crashed.Load() {
		panic("pmem: FinalizeCrash called before a crash was triggered")
	}
	for _, j := range h.openJournals() {
		k := j.persisted
		if n := len(j.entries) - k; n > 0 {
			k += rng.Intn(n + 1)
		}
		for _, e := range j.entries[:k] {
			copy(j.base[e.off:], e.v[:e.n])
		}
		j.entries = j.entries[:0]
		j.persisted = 0
	}
}

// AccessCount reports how many crash-checked simulated accesses have
// occurred since the last Restart while a crash was armed. Exhaustive
// crash-point tests use it to enumerate injection points.
func (h *Heap) AccessCount() int64 { return h.accessNo.Load() }

// Restart models rebooting after a crash (or simply reopening the
// persistent heap): the working view is reloaded from the NVRAM
// image, all volatile simulator state (cache flags, pending flushes,
// the crash flag, and the root-slot windows claimed by View) is
// discarded, and new threads may run. Statistics are preserved across
// restarts.
//
// In ModeCrash only the lines with an open journal have an image other
// than their working view, so only they are reloaded, each from its
// journal's base, and their journals are closed.
// A ModePerf heap never crashes, so its working view is what a clean
// shutdown left durable: it is kept as it stands, and only the volatile
// state is discarded.
func (h *Heap) Restart() {
	if h.cfg.Mode == ModeCrash {
		for _, j := range h.openJournals() {
			copy(h.mem[j.line*WordsPerLine:], j.base[:])
			h.closeJournal(h.shard(j.line), j)
		}
	}
	clear(h.flags)
	for i := range h.threads {
		h.threads[i].pending = h.threads[i].pending[:0]
		h.threads[i].window = drainWindow{}
	}
	h.viewMu.Lock()
	h.views = nil
	h.viewMu.Unlock()
	h.crashed.Store(false)
	h.accessNo.Store(0)
	h.crashAt.Store(0)
}
