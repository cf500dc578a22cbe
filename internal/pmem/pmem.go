// Package pmem simulates byte-addressable non-volatile main memory
// (NVRAM) with the persistence semantics assumed by "Durable Queues:
// The Second Amendment" (Sela & Petrank, SPAA 2021).
//
// The simulator keeps one copy of memory, the working view ("mem"),
// which models the cache-coherent state that running threads observe.
// In ModeCrash it also keeps a journal for every line written since its
// last persist: the journal's base is the line's content when it opened,
// and its entries are the stores since. The NVRAM image, which models
// what survives a full-system crash, is therefore no second copy: a
// line's image is its open journal's base, or its working view when it
// has no open journal. A ModePerf heap cannot crash, so it keeps the
// working view alone.
//
// Threads interact with the heap through Load/Store/CAS/DCAS (ordinary
// cached accesses), Flush (an asynchronous cache-line write-back such
// as CLWB, which on Cascade Lake also invalidates the line), Fence (an
// SFENCE that blocks until previously issued flushes and non-temporal
// stores are durable), NTStore (a movnti-style non-temporal store that
// bypasses the cache) and NTStoreLine (a thread's movnti stores to one
// line, combined in one write-combining buffer).
//
// The simulator implements the paper's Assumption 1: a cache line is
// evicted to memory atomically, so after a crash the NVRAM content of
// each line reflects a prefix of the stores performed on that line.
// In ModeCrash every store is journalled per line; at crash time each
// line's durable content is its base with a random prefix of its
// entries applied, at least the prefix guaranteed by the last completed
// fence covering the line. A line's journal is open only from its first
// store after its last persist until a Fence persists all of it (or
// InitRange or Restart discards it). Journals are pooled per lock shard
// and found through a pointer-free per-line index, so the journal state
// a heap keeps is the lines a run leaves unfenced, and FinalizeCrash and
// Restart visit only those.
//
// The simulator also implements the paper's central performance
// observation: flushing a line invalidates it, so the next ordinary
// access to that line misses the cache and pays the (high) NVRAM read
// latency. Those events are counted as "post-flush accesses" and are
// charged according to the configured LatencyModel.
package pmem

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// Addr is a byte offset into the simulated persistent heap.
// The zero Addr plays the role of a nil pointer; no allocation is ever
// placed at offset 0.
type Addr uint64

// Memory geometry constants. One queue node per cache line is the
// layout used throughout this repository (the paper's footnote 3).
const (
	CacheLineBytes = 64
	WordBytes      = 8
	WordsPerLine   = CacheLineBytes / WordBytes
)

// NumRootSlots is the number of cache-line-sized persistent root slots
// available through RootAddr on a full heap. Recovery procedures
// locate all durable state starting from these slots. Multi-structure
// systems (e.g. internal/broker) carve the slot space into per-shard
// windows with View.
const NumRootSlots = 1022

const (
	magicWord  = 0x447572515632  // "DurQV2"
	brkAddr    = Addr(8)         // persistent heap break (byte offset)
	dataStart  = Addr(1024 * 64) // first allocatable byte
	lockShards = 1024
	lineValid  = uint32(1) // flag bit: line was flushed and invalidated
)

// Mode selects the simulation fidelity.
type Mode int

const (
	// ModePerf is the fast path used for benchmarking: no store
	// journalling and no NVRAM image, crashes are not allowed.
	ModePerf Mode = iota
	// ModeCrash journals every store per cache line so that a crash
	// can be materialized with per-line prefix semantics. Slower.
	ModeCrash
)

// Config parameterizes a Heap.
type Config struct {
	// Bytes is the size of the persistent heap. Default 64 MiB.
	Bytes int64
	// Mode selects ModePerf (default) or ModeCrash.
	Mode Mode
	// MaxThreads bounds the thread ids that may be passed to heap
	// operations. Default 64.
	MaxThreads int
	// Latency configures the injected delays. The zero value injects
	// no delays (counting still happens).
	Latency LatencyModel
	// FlushRetainsLine, when true, models a platform whose flush
	// instruction writes the line back without invalidating it (the
	// Ice Lake behaviour the paper conjectures about). Default false
	// models Cascade Lake: every flush invalidates the line.
	FlushRetainsLine bool
}

type pendingFlush struct {
	line int
	upTo int
	gen  uint64
}

type logEntry struct {
	off uint8 // word offset within the line (0..7)
	n   uint8 // number of words written atomically (1 or 2)
	v   [2]uint64
}

// journal holds one line's stores since the line was last persisted
// whole. base is the line's content when the journal opened, which is
// the line's image for as long as the journal stays open; applying all
// the entries to base yields the line's mem.
type journal struct {
	entries   []logEntry
	line      int    // the journalled line; -1 while the journal is pooled
	persisted int    // prefix guaranteed durable by a completed fence
	gen       uint64 // its shard's generation when the journal was opened
	base      [WordsPerLine]uint64
}

// shard is one of the lockShards line-lock stripes, a cache line wide.
// In ModeCrash it also pools the journals of its lines: journals holds
// every journal the shard has opened, free the indices of those not
// open now, and gen is bumped on every open, so a pending flush names
// one opening of a line's journal and never a later one.
type shard struct {
	mu       sync.Mutex
	journals []journal
	free     []uint32
	gen      uint64
}

// threadCtx is per-thread simulator state. Each context is owned by a
// single goroutine; padding avoids false sharing between contexts.
type threadCtx struct {
	stats   Stats
	pending []pendingFlush // ModeCrash: flushes issued since last fence
	// spun is the thread's modelled clock: the nanoseconds of price it
	// has been charged (see charge). It only grows; the fence window
	// reads it where it would otherwise read the real clock.
	spun   int64
	window drainWindow
	// clockReads counts this thread's clock readings and drainWaitNs
	// sums the residual drain its fences were charged. They are kept out
	// of Stats, whose whole-value comparisons must stay deterministic;
	// the package's tests and benchmarks read them.
	clockReads  uint64
	drainWaitNs int64
	_           [64]byte
}

// drainWindow is a thread's fence window: the lines it has queued since
// its last Fence (see LatencyModel.DrainNsPerLine). The zero value is a
// closed window; lines are counted only while DrainNsPerLine > 0. Only
// the owning goroutine touches it, so no synchronization is needed.
type drainWindow struct {
	lines      int64 // lines queued since the last Fence
	spunAtOpen int64 // the modelled clock when the first was queued
	// measured says the window's drain bound exceeded one line's drain
	// at some line, where the window took its one clock reading; first
	// is that reading back-dated by the modelled time since the window
	// opened, i.e. the latest instant its first line can have been issued.
	measured bool
	first    int64
}

// charge makes the thread pay a price: ns modelled nanoseconds on its
// modelled clock, spent spinning. Every price the simulator injects goes
// through here, or a spin the modelled clock missed would be charged a
// second time as residual drain by the window open around it. WriteBack
// alone adds its prices to the modelled clock itself and spins their sum.
func (ts *threadCtx) charge(ns int64) {
	if ns > 0 {
		ts.spun += ns
		spinFor(ns)
	}
}

// now reads the package clock on behalf of the thread's drain model.
func (ts *threadCtx) now() int64 {
	ts.clockReads++
	return monotonicNs()
}

// drainBound is the most the open window can still have left to drain:
// every line at d apiece, less the modelled time since the first was
// queued. Real time elapsed is never less than time spun, so this is an
// upper bound on the true residual, and it costs no clock reading.
func (ts *threadCtx) drainBound(d int64) int64 {
	return ts.window.lines*d - (ts.spun - ts.window.spunAtOpen)
}

// Heap is a simulated persistent memory arena.
//
// All exported methods taking a tid are safe for concurrent use as
// long as each tid is used by at most one goroutine at a time.
//
// A Heap value is a lightweight header over shared simulator state: it
// pairs the state with a root-slot window [rootBase, rootBase+rootSlots).
// New returns a header spanning the whole slot space; View derives
// headers with narrower windows so that several independent durable
// structures — each written against the package-queues convention of
// absolute slots 0..k — can coexist on one heap without colliding.
type Heap struct {
	*heapState
	rootBase  int
	rootSlots int
}

// heapState is the shared simulator state behind one or more Heap
// headers. It is never copied after construction (it holds mutexes and
// atomics); headers share it by pointer.
type heapState struct {
	cfg Config
	lat LatencyModel
	mem []uint64
	// flags holds each line's cache state (lineValid). Shared paths use
	// atomic.Load/StoreUint32 on it, as they do on mem; the paths that
	// work on a line the calling thread owns privately (WriteBack,
	// StoreOwned, FlushOwned, ClearLineState) use plain loads and stores.
	flags []uint32
	lines int

	threads []threadCtx
	allocMu sync.Mutex

	shards [lockShards]shard
	// jidx maps a line to its open journal in its shard (index+1; 0 is
	// none). ModeCrash only; read and written under the line's shard lock.
	jidx []uint32

	crashed  atomic.Bool
	accessNo atomic.Int64
	crashAt  atomic.Int64 // 0 = no scheduled crash

	// crashGroup lists the sibling states of a HeapSet this heap
	// belongs to (nil for a lone heap). A crash on any member marks
	// every member crashed — the set shares one power supply. Set by
	// NewSetOf before concurrent activity begins.
	crashGroup []*heapState

	// viewMu guards views, the windows claimed by View. Each claim
	// records its parent window so that sibling views of the same
	// parent are rejected when they overlap (narrowing an existing
	// view remains legal).
	viewMu sync.Mutex
	views  []viewClaim

	// postFlushHook, when set, observes every access to a flushed
	// line (see SetPostFlushHook).
	postFlushHook func(tid int, a Addr)
}

// viewClaim records one window handed out by View, in absolute slot
// coordinates, together with the extent of the parent window it was
// derived from.
type viewClaim struct {
	parentBase, parentEnd int
	base, end             int
}

// New creates a heap. It panics on invalid configuration; a simulated
// memory that cannot be constructed is unusable, so this mirrors the
// "panic during initialization" convention.
func New(cfg Config) *Heap {
	if cfg.Bytes == 0 {
		cfg.Bytes = 64 << 20
	}
	if cfg.Bytes < int64(dataStart)+CacheLineBytes {
		panic(fmt.Sprintf("pmem: heap of %d bytes is too small", cfg.Bytes))
	}
	if cfg.MaxThreads == 0 {
		cfg.MaxThreads = 64
	}
	cfg.Bytes = (cfg.Bytes + CacheLineBytes - 1) &^ (CacheLineBytes - 1)
	words := int(cfg.Bytes / WordBytes)
	h := &Heap{
		heapState: &heapState{
			cfg:     cfg,
			lat:     cfg.Latency,
			mem:     make([]uint64, words),
			flags:   make([]uint32, words/WordsPerLine),
			lines:   words / WordsPerLine,
			threads: make([]threadCtx, cfg.MaxThreads),
		},
		rootSlots: NumRootSlots,
	}
	h.mem[0], h.mem[1] = magicWord, uint64(dataStart)
	if cfg.Mode == ModeCrash {
		h.jidx = make([]uint32, h.lines)
	}
	return h
}

// Bytes reports the heap size in bytes.
func (h *Heap) Bytes() int64 { return h.cfg.Bytes }

// Mode reports the simulation mode.
func (h *Heap) Mode() Mode { return h.cfg.Mode }

// MaxThreads reports the configured thread-id bound.
func (h *Heap) MaxThreads() int { return h.cfg.MaxThreads }

// RootAddr returns the address of persistent root slot i, resolved
// within this header's root-slot window. Each slot occupies a full
// private cache line so that flushing one root never invalidates
// another.
func (h *Heap) RootAddr(slot int) Addr {
	if slot < 0 || slot >= h.rootSlots {
		panic(fmt.Sprintf("pmem: root slot %d out of range [0,%d)", slot, h.rootSlots))
	}
	return Addr((1 + h.rootBase + slot) * CacheLineBytes)
}

// RootSlots reports how many root slots this header's window exposes
// (NumRootSlots for a heap returned by New).
func (h *Heap) RootSlots() int { return h.rootSlots }

// View returns a heap header sharing all simulated memory and
// statistics with h but exposing only the root-slot window
// [baseSlot, baseSlot+slots) of h's own window, re-indexed from zero.
// A durable structure built against absolute slots 0..slots-1 (the
// package-queues convention) runs unmodified inside a view, so many
// such structures can share one heap; recovery re-creates the same
// views from recorded bases. Views compose: v.View(b, s) narrows v.
//
// View rejects bad windows with a panic: out-of-range windows, and
// windows that overlap a view previously derived from the same parent
// window — a silently aliased base would let one durable structure
// scribble over another's root slots. (Narrowing an existing view is
// always legal: the child is checked only against its own siblings.)
// Restart clears the claims, so recovery re-derives the same windows
// after a crash without conflict.
func (h *Heap) View(baseSlot, slots int) *Heap {
	if baseSlot < 0 || slots <= 0 || baseSlot+slots > h.rootSlots {
		panic(fmt.Sprintf("pmem: view [%d,%d) outside root-slot window [0,%d)",
			baseSlot, baseSlot+slots, h.rootSlots))
	}
	claim := viewClaim{
		parentBase: h.rootBase,
		parentEnd:  h.rootBase + h.rootSlots,
		base:       h.rootBase + baseSlot,
		end:        h.rootBase + baseSlot + slots,
	}
	h.viewMu.Lock()
	for _, c := range h.views {
		if c.parentBase == claim.parentBase && c.parentEnd == claim.parentEnd &&
			claim.base < c.end && c.base < claim.end {
			h.viewMu.Unlock()
			panic(fmt.Sprintf(
				"pmem: view [%d,%d) overlaps existing view [%d,%d) of the same window — root slots would alias another structure",
				claim.base, claim.end, c.base, c.end))
		}
	}
	h.views = append(h.views, claim)
	h.viewMu.Unlock()
	return &Heap{heapState: h.heapState, rootBase: h.rootBase + baseSlot, rootSlots: slots}
}

// ReleaseView returns v's window — previously derived from h by View —
// to h, so the same slots can be claimed by a later View without a
// Restart. This is the primitive behind durable-structure retirement
// (e.g. broker.DeleteTopic): the caller guarantees the structure
// inside the window is dead — no goroutine will access the heap
// through v again — before releasing, exactly as a free() caller
// guarantees no dangling use. Releasing a window that was not claimed
// by View on h panics: it would mask a double-release bug.
func (h *Heap) ReleaseView(v *Heap) {
	claim := viewClaim{
		parentBase: h.rootBase,
		parentEnd:  h.rootBase + h.rootSlots,
		base:       v.rootBase,
		end:        v.rootBase + v.rootSlots,
	}
	h.viewMu.Lock()
	defer h.viewMu.Unlock()
	for i, c := range h.views {
		if c == claim {
			h.views = append(h.views[:i], h.views[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("pmem: ReleaseView of window [%d,%d) not claimed from parent [%d,%d) — double release or wrong parent",
		claim.base, claim.end, claim.parentBase, claim.parentEnd))
}

func (h *Heap) shard(line int) *shard {
	return &h.shards[line&(lockShards-1)]
}

// journalOf returns line's open journal, or nil. The caller holds s, the
// line's shard.
func (h *heapState) journalOf(s *shard, line int) *journal {
	if i := h.jidx[line]; i != 0 {
		return &s.journals[i-1]
	}
	return nil
}

// open returns line's journal, opening one from s's pool if the line has
// none; a journal opens with the line's content as its base. The caller
// holds s, the line's shard, and is about to write the line's mem: it
// appends the entry once it has.
func (h *heapState) open(s *shard, line int) *journal {
	if j := h.journalOf(s, line); j != nil {
		return j
	}
	var i uint32
	if n := len(s.free); n > 0 {
		i, s.free = s.free[n-1], s.free[:n-1]
	} else {
		s.journals = append(s.journals, journal{})
		i = uint32(len(s.journals))
	}
	h.jidx[line] = i
	s.gen++
	j := &s.journals[i-1]
	j.line, j.gen = line, s.gen
	copy(j.base[:], h.mem[line*WordsPerLine:])
	return j
}

// entry is the journal entry of n words written at word w.
func entry(w Addr, v0, v1 uint64, n uint8) logEntry {
	return logEntry{off: uint8(w % WordsPerLine), n: n, v: [2]uint64{v0, v1}}
}

// closeJournal returns j, an open journal of s, to s's pool. The caller
// holds s, and the line's durable content is now its mem.
func (h *heapState) closeJournal(s *shard, j *journal) {
	i := h.jidx[j.line]
	h.jidx[j.line] = 0
	j.entries, j.line, j.persisted = j.entries[:0], -1, 0
	s.free = append(s.free, i)
}

// openJournals returns every open journal, in line order.
func (h *heapState) openJournals() []*journal {
	var open []*journal
	for i := range h.shards {
		s := &h.shards[i]
		for k := range s.journals {
			if s.journals[k].line >= 0 {
				open = append(open, &s.journals[k])
			}
		}
	}
	slices.SortFunc(open, func(a, b *journal) int { return cmp.Compare(a.line, b.line) })
	return open
}

// touch performs the crash check and the cache-miss accounting shared
// by all ordinary (cached) accesses.
func (h *Heap) touch(tid int, a Addr) {
	if h.cfg.Mode == ModeCrash {
		h.crashCheck()
	}
	f := &h.flags[a/CacheLineBytes]
	if atomic.LoadUint32(f)&lineValid != 0 {
		atomic.StoreUint32(f, 0)
		h.postFlushAccess(tid, a)
	}
}

// postFlushAccess accounts an access at a to a line that was flushed and
// invalidated, once the caller has cleared the line's flag: the count,
// the hook and the NVRAM read it pays.
func (h *Heap) postFlushAccess(tid int, a Addr) {
	ts := &h.threads[tid]
	ts.stats.PostFlushAccesses++
	if h.postFlushHook != nil {
		h.postFlushHook(tid, a)
	}
	ts.charge(h.lat.NVMReadNs)
}

// SetPostFlushHook installs an observer invoked on every access to an
// explicitly flushed cache line — the event the paper's design
// guideline says to avoid. Algorithm developers use it to attribute
// guideline violations to concrete addresses (see the queues tests
// for usage). Set it before concurrent activity begins; the hook runs
// on the accessing goroutine.
func (h *Heap) SetPostFlushHook(fn func(tid int, a Addr)) { h.postFlushHook = fn }

// Load returns the current (cache-coherent) value of the word at a.
func (h *Heap) Load(tid int, a Addr) uint64 {
	h.touch(tid, a)
	h.threads[tid].stats.Loads++
	return atomic.LoadUint64(&h.mem[a/WordBytes])
}

// Store writes v to the word at a, as an ordinary cached store.
func (h *Heap) Store(tid int, a Addr, v uint64) {
	h.touch(tid, a)
	h.threads[tid].stats.Stores++
	w := a / WordBytes
	if h.cfg.Mode == ModeCrash {
		line := int(a / CacheLineBytes)
		s := h.shard(line)
		s.mu.Lock()
		j := h.open(s, line)
		atomic.StoreUint64(&h.mem[w], v)
		j.entries = append(j.entries, entry(w, v, 0, 1))
		s.mu.Unlock()
		return
	}
	atomic.StoreUint64(&h.mem[w], v)
}

// StoreOwned is Store for a word of a line the calling thread owns
// privately (see WriteBack for the rule), as FlushOwned is Flush for
// such a line. In ModeCrash it is exactly Store: the same access
// number, crash point and journal entry. In ModePerf every statistic,
// hook call and modelled nanosecond reads as Store's would, but the
// flag and the word are plain loads and stores where Store pays atomic
// flag accesses and an atomic exchange for the word.
func (h *Heap) StoreOwned(tid int, a Addr, v uint64) {
	if h.cfg.Mode == ModeCrash {
		h.Store(tid, a, v)
		return
	}
	if f := &h.flags[a/CacheLineBytes]; *f&lineValid != 0 {
		*f = 0
		h.postFlushAccess(tid, a)
	}
	h.threads[tid].stats.Stores++
	h.mem[a/WordBytes] = v
}

// CAS atomically compares-and-swaps the word at a.
func (h *Heap) CAS(tid int, a Addr, old, new uint64) bool {
	h.touch(tid, a)
	h.threads[tid].stats.CASes++
	w := a / WordBytes
	if h.cfg.Mode == ModeCrash {
		line := int(a / CacheLineBytes)
		s := h.shard(line)
		s.mu.Lock()
		ok := atomic.LoadUint64(&h.mem[w]) == old
		if ok {
			j := h.open(s, line)
			atomic.StoreUint64(&h.mem[w], new)
			j.entries = append(j.entries, entry(w, new, 0, 1))
		}
		s.mu.Unlock()
		return ok
	}
	return atomic.CompareAndSwapUint64(&h.mem[w], old, new)
}

// DCAS is a double-width (16-byte) compare-and-swap over the adjacent
// words at a and a+8; a must be 16-byte aligned so both words share a
// cache line. Go has no 128-bit CAS, so DCAS serializes through a
// sharded lock; the words it manages must only ever be written through
// DCAS (concurrent Load is fine and may observe a torn pair, exactly
// as a pair of 64-bit loads would on x86).
func (h *Heap) DCAS(tid int, a Addr, old0, old1, new0, new1 uint64) bool {
	if a%16 != 0 {
		panic("pmem: DCAS address must be 16-byte aligned")
	}
	h.touch(tid, a)
	h.threads[tid].stats.DCASes++
	w := a / WordBytes
	line := int(a / CacheLineBytes)
	s := h.shard(line)
	s.mu.Lock()
	ok := atomic.LoadUint64(&h.mem[w]) == old0 && atomic.LoadUint64(&h.mem[w+1]) == old1
	if ok {
		var j *journal
		if h.cfg.Mode == ModeCrash {
			j = h.open(s, line)
		}
		atomic.StoreUint64(&h.mem[w], new0)
		atomic.StoreUint64(&h.mem[w+1], new1)
		if j != nil {
			j.entries = append(j.entries, entry(w, new0, new1, 2))
		}
	}
	s.mu.Unlock()
	return ok
}

// LoadPair reads the two adjacent words at a and a+8. The pair may be
// torn with respect to a concurrent DCAS, as on real hardware.
func (h *Heap) LoadPair(tid int, a Addr) (uint64, uint64) {
	h.touch(tid, a)
	h.threads[tid].stats.Loads += 2
	w := a / WordBytes
	return atomic.LoadUint64(&h.mem[w]), atomic.LoadUint64(&h.mem[w+1])
}

// Flush issues an asynchronous write-back (CLWB-style) of the cache
// line containing a. Durability is only guaranteed after a subsequent
// Fence by the same thread. Unless the heap was configured with
// FlushRetainsLine, the line is invalidated: the next ordinary access
// to it pays the NVRAM read latency and is counted as a post-flush
// access.
func (h *Heap) Flush(tid int, a Addr) {
	if h.cfg.Mode == ModeCrash {
		h.crashCheck()
	}
	line := int(a / CacheLineBytes)
	ts := &h.threads[tid]
	ts.stats.Flushes++
	if !h.cfg.FlushRetainsLine {
		atomic.StoreUint32(&h.flags[line], lineValid)
	}
	if h.cfg.Mode == ModeCrash {
		// A line with no open journal is already durable as it stands:
		// there is nothing for a later Fence to apply.
		s := h.shard(line)
		s.mu.Lock()
		if j := h.journalOf(s, line); j != nil {
			ts.pending = append(ts.pending, pendingFlush{line: line, upTo: len(j.entries), gen: j.gen})
		}
		s.mu.Unlock()
	}
	ts.queueLine(h.lat.DrainNsPerLine, ts.spun)
	ts.charge(h.lat.FlushNs)
}

// FlushOwned is Flush for a line the calling thread owns privately (see
// WriteBack for the rule). In ModeCrash it is exactly Flush. In ModePerf
// every statistic, hook call and modelled nanosecond reads as Flush's
// would, but the cache flag is written with a plain store where Flush
// pays an atomic exchange.
func (h *Heap) FlushOwned(tid int, a Addr) {
	if h.cfg.Mode == ModeCrash {
		h.Flush(tid, a)
		return
	}
	ts := &h.threads[tid]
	ts.stats.Flushes++
	if !h.cfg.FlushRetainsLine {
		h.flags[a/CacheLineBytes] = lineValid
	}
	ts.queueLine(h.lat.DrainNsPerLine, ts.spun)
	ts.charge(h.lat.FlushNs)
}

// WriteBack writes whole cache lines starting at the line-aligned a —
// words holds eight words a line — and issues a Flush of each, for
// lines the calling thread owns privately. That is the rule WriteBack,
// StoreOwned, FlushOwned, ClearLineState and NTStoreLine share: no
// other thread accesses the lines, and ownership passes to other
// threads only by an atomic publish after it (a queue's link CAS, an
// allocator's hand-off; a queue's node line stays its enqueuer's after
// the link too, because no normal-path reader loads it). In ModeCrash it is exactly eight
// Stores in word order and then one Flush per line, line by line: the
// same access numbers, crash points and journal entries. In ModePerf every statistic, every hook call and
// every modelled nanosecond reads as that sequence would, and the drain
// window takes its reading at the same line; but the flags are plain
// loads and stores, the words are one copy and the whole price is one
// spin, where the sequence pays an atomic exchange a word, two a line
// and a spin a price. Store stays atomic for the lines another thread
// may access at any time: roots, local and ack lines, and a comparison
// queue's node words once the node is published. A line that a mutex
// hands from thread to thread, such as a lease or catalog line, is
// owned by whoever holds the mutex.
func (h *Heap) WriteBack(tid int, a Addr, words []uint64) {
	if a%CacheLineBytes != 0 || len(words)%WordsPerLine != 0 {
		panic("pmem: WriteBack needs whole lines at a cache-line-aligned address")
	}
	n := len(words) / WordsPerLine
	if h.cfg.Mode == ModeCrash {
		for l := 0; l < n; l++ {
			base := a + Addr(l*CacheLineBytes)
			for w, x := range words[l*WordsPerLine : (l+1)*WordsPerLine] {
				h.Store(tid, base+Addr(w*WordBytes), x)
			}
			h.Flush(tid, base)
		}
		return
	}
	ts := &h.threads[tid]
	flag := lineValid
	if h.cfg.FlushRetainsLine {
		flag = 0
	}
	// The prices are added to the modelled clock line by line, as the
	// sequence would charge them, and spun once at the end: until then
	// the real clock stands where the modelled one stood at the start.
	start := ts.spun
	first := int(a / CacheLineBytes)
	flags := h.flags[first : first+n : first+n]
	for l := range flags {
		if flags[l]&lineValid != 0 {
			ts.stats.PostFlushAccesses++
			if h.postFlushHook != nil {
				h.postFlushHook(tid, a+Addr(l*CacheLineBytes))
			}
			ts.spun += h.lat.NVMReadNs
		}
		flags[l] = flag
		ts.queueLine(h.lat.DrainNsPerLine, start)
		ts.spun += h.lat.FlushNs
	}
	w := a / WordBytes
	copy(h.mem[w:w+Addr(len(words))], words)
	ts.stats.Stores += uint64(len(words))
	ts.stats.Flushes += uint64(n)
	if ns := ts.spun - start; ns > 0 {
		spinFor(ns)
	}
}

// queueLine models one cache line entering the calling thread's
// write-pending queue, which drains one line per d nanoseconds from the
// issue of the window's first line, not from the fence. While the issue
// prices charged since then keep the drain bound within one line's
// drain, Fence will charge the bound itself and no clock is read; the
// line at which the bound first exceeds that takes the window's one
// reading. at is the modelled clock the real clock stands at: ts.spun,
// unless the caller has added prices it has not spun yet. It is the one
// place a line is counted in Stats.DrainLines, whether or not drain is
// modelled.
func (ts *threadCtx) queueLine(d, at int64) {
	ts.stats.DrainLines++
	if d == 0 {
		return
	}
	w := &ts.window
	if w.lines == 0 {
		w.spunAtOpen = ts.spun
	}
	w.lines++
	if !w.measured && ts.drainBound(d) > d {
		w.measured = true
		w.first = ts.now() - (at - w.spunAtOpen)
	}
}

// Fence is a store fence (SFENCE): it blocks until every Flush and
// NTStore previously issued by this thread is durable in the NVRAM
// image.
//
// Latency: the write-pending queue drains in the background from the
// issue of the window's first line (see LatencyModel.DrainNsPerLine),
// so the fence pays FenceNs plus only the *residual* drain — zero if
// enough time has passed since then. This is what makes pipelined
// persists (issue the next window before fencing the previous one) pay
// off in wall-clock time while the fence *count* stays exactly the
// same. Only a window that took a reading while it filled takes one
// here; a window the prices already charged have drained, a short one
// (which is charged its drain bound) and a fence with nothing queued
// read no clock.
func (h *Heap) Fence(tid int) {
	if h.cfg.Mode == ModeCrash {
		h.crashCheck()
	}
	ts := &h.threads[tid]
	ts.stats.Fences++
	if h.cfg.Mode == ModeCrash {
		for _, p := range ts.pending {
			s := h.shard(p.line)
			s.mu.Lock()
			// No open journal of the flush's generation means another
			// thread's fence (or InitRange) already closed the one this
			// flush point was in; there is nothing left to guarantee. A
			// journal persisted whole closes, applying nothing: mem is
			// already its base with every entry applied.
			if j := h.journalOf(s, p.line); j != nil && j.gen == p.gen {
				if p.upTo > j.persisted {
					j.persisted = p.upTo
				}
				if j.persisted == len(j.entries) {
					h.closeJournal(s, j)
				}
			}
			s.mu.Unlock()
		}
		ts.pending = ts.pending[:0]
	}
	price := h.lat.FenceNs
	if w := &ts.window; w.lines > 0 {
		d := h.lat.DrainNsPerLine
		resid := ts.drainBound(d)
		if resid > 0 && w.measured {
			resid = w.first + w.lines*d - ts.now()
		}
		if resid > 0 {
			price += resid
			ts.drainWaitNs += resid
		}
		*w = drainWindow{}
	}
	ts.charge(price)
}

// Persist is the convenience pairing of Flush and Fence used when a
// single location must become durable immediately.
func (h *Heap) Persist(tid int, a Addr) {
	h.Flush(tid, a)
	h.Fence(tid)
}

// NTStore performs a non-temporal store (movnti-style): the value is
// written back toward memory bypassing the cache. It neither loads the
// line into the cache nor clears or sets its invalidation state, so it
// never causes a post-flush access. Durability is guaranteed only
// after a subsequent Fence by the same thread.
func (h *Heap) NTStore(tid int, a Addr, v uint64) {
	ts := &h.threads[tid]
	if h.cfg.Mode == ModeCrash {
		h.ntStoreCrash(ts, a/WordBytes, v)
	} else {
		ts.stats.NTStores++
		atomic.StoreUint64(&h.mem[a/WordBytes], v)
	}
	ts.queueLine(h.lat.DrainNsPerLine, ts.spun)
	ts.charge(h.lat.NTStoreNs)
}

// ntStoreCrash is a ModeCrash NTStore of v to word w short of its drain
// line and its price: the crash check, the count, the journal entry and
// the pending entry that makes the word durable at the thread's next
// Fence.
func (h *Heap) ntStoreCrash(ts *threadCtx, w Addr, v uint64) {
	h.crashCheck()
	ts.stats.NTStores++
	line := int(w / WordsPerLine)
	s := h.shard(line)
	s.mu.Lock()
	j := h.open(s, line)
	atomic.StoreUint64(&h.mem[w], v)
	j.entries = append(j.entries, entry(w, v, 0, 1))
	ts.pending = append(ts.pending, pendingFlush{line: line, upTo: len(j.entries), gen: j.gen})
	s.mu.Unlock()
}

// NTStoreLine NT-stores the words of the line-aligned line at a that
// mask selects (bit i selects words[i]), in word order. It models a
// thread's back-to-back MOVNTIs to one line, which the core combines in
// one write-combining buffer, so the line enters the write-pending
// queue once: each word is counted in Stats.NTStores and priced
// NTStoreNs, in one charge, and the line queues one drain line where
// the same words through NTStore queue one each. In ModeCrash each word
// is exactly an NTStore: the same access number, crash point, journal
// entry and pending entry, so per-line prefix truncation leaves a
// word-order prefix of the masked words. An empty mask stores nothing
// and queues nothing.
//
// The line follows WriteBack's ownership rule: no other thread accesses
// it while it is written, and it reaches another thread only through
// an atomic publish or a mutex. So in ModePerf the masked words are
// plain stores, one copy for a whole line, where NTStore pays an atomic
// exchange a word; every count, drain line and price is the same.
func (h *Heap) NTStoreLine(tid int, a Addr, words *[WordsPerLine]uint64, mask uint8) {
	if a%CacheLineBytes != 0 {
		panic("pmem: NTStoreLine needs a cache-line-aligned address")
	}
	if mask == 0 {
		return
	}
	ts := &h.threads[tid]
	w := a / WordBytes
	n := bits.OnesCount8(mask)
	if h.cfg.Mode == ModeCrash {
		for i, v := range words {
			if mask&(1<<i) != 0 {
				h.ntStoreCrash(ts, w+Addr(i), v)
			}
		}
	} else {
		line := (*[WordsPerLine]uint64)(h.mem[w:])
		if mask == 0xff {
			*line = *words
		} else {
			for i, v := range words {
				if mask&(1<<i) != 0 {
					line[i] = v
				}
			}
		}
		ts.stats.NTStores += uint64(n)
	}
	ts.queueLine(h.lat.DrainNsPerLine, ts.spun)
	ts.charge(h.lat.NTStoreNs * int64(n))
}

// ErrOutOfSpace is what AllocRaw panics with, wrapped with the sizes,
// when the bump region cannot hold the request: a caller that can
// refuse its operation instead recovers exactly this value.
var ErrOutOfSpace = errors.New("pmem: out of simulated persistent memory")

// AllocRaw carves size bytes (aligned to align, a power of two ≥ 8)
// out of the heap's bump region. The heap break itself is persisted so
// that allocations made before a crash are never handed out again
// after recovery. AllocRaw is intended for rare, large allocations
// (allocator areas, registries, logs); per-node allocation goes
// through package ssmem. A request past the heap's end panics with an
// error wrapping ErrOutOfSpace and moves nothing.
//
// The allocator knows its break without reading NVRAM, as one that
// keeps a volatile copy does: the break is read without a touch, and
// persisted with an NTStore and a fence, so no allocation touches the
// break's line after an earlier one wrote it.
func (h *Heap) AllocRaw(tid int, size, align int64) Addr {
	if align < WordBytes || align&(align-1) != 0 {
		panic("pmem: AllocRaw alignment must be a power of two >= 8")
	}
	h.allocMu.Lock()
	defer h.allocMu.Unlock()
	brk := int64(atomic.LoadUint64(&h.mem[brkAddr/WordBytes]))
	a := (brk + align - 1) &^ (align - 1)
	end := a + size
	if end > h.cfg.Bytes {
		panic(fmt.Errorf("%w (%d + %d > %d)", ErrOutOfSpace, a, size, h.cfg.Bytes))
	}
	h.NTStore(tid, brkAddr, uint64(end))
	h.Fence(tid)
	return Addr(a)
}

// InitRange zeroes a freshly allocated range in both the working view
// and the NVRAM image, modelling the paper's area initialization:
// zero the area, issue asynchronous flushes for the whole area, and
// one SFENCE. The range must not be concurrently accessed.
//
// The charge is the whole range's, but only content that is not zero
// already is written: in ModeCrash a line's open journal is closed, so
// its image is its working view again, and the working view is zeroed
// where it holds a set word; a cache flag is cleared only when it is
// set. A line nothing ever wrote is thus only read, and the kernel keeps
// backing it with the shared zero page: a fresh range costs no resident
// memory.
func (h *Heap) InitRange(tid int, a Addr, size int64) {
	if a%CacheLineBytes != 0 || size%CacheLineBytes != 0 {
		panic("pmem: InitRange range must be cache-line aligned")
	}
	ts := &h.threads[tid]
	firstLine := int(a / CacheLineBytes)
	nLines := int(size / CacheLineBytes)
	for line := firstLine; line < firstLine+nLines; line++ {
		base := line * WordsPerLine
		if h.cfg.Mode == ModeCrash {
			s := h.shard(line)
			s.mu.Lock()
			if j := h.journalOf(s, line); j != nil {
				h.closeJournal(s, j)
			}
			s.mu.Unlock()
		}
		zeroWords(h.mem[base : base+WordsPerLine])
		if f := &h.flags[line]; atomic.LoadUint32(f) != 0 {
			atomic.StoreUint32(f, 0)
		}
	}
	ts.stats.Flushes += uint64(nLines)
	ts.stats.Fences++
	ts.charge(h.lat.FenceNs + h.lat.DrainNsPerLine*int64(nLines))
}

// zeroWords zeroes the words of ws that are not zero already.
func zeroWords(ws []uint64) {
	for i := range ws {
		if atomic.LoadUint64(&ws[i]) != 0 {
			atomic.StoreUint64(&ws[i], 0)
		}
	}
}

// ClearLineState resets the cache-simulation state of the line
// containing a, without any charge or event counting. Allocators call
// it when recycling a node: the write-miss a fresh allocation incurs
// on real hardware is an ordinary cold miss that every algorithm pays
// (including volatile ones), not an algorithmic access to flushed
// content in the paper's sense.
//
// The slot it is called on has just been allocated, so the calling
// thread owns the line privately and the flag is written with a plain
// store (see WriteBack).
func (h *Heap) ClearLineState(a Addr) {
	h.flags[a/CacheLineBytes] = 0
}

// RawImg reads a word directly from the NVRAM image, bypassing the
// simulation (no charges, no crash checks): the word of the line's open
// journal's base, or of the working view if the line has none. Intended
// for tests and debugging tools only. Only a ModeCrash heap has an image.
func (h *Heap) RawImg(a Addr) uint64 {
	if h.cfg.Mode != ModeCrash {
		panic("pmem: RawImg requires ModeCrash")
	}
	line := int(a / CacheLineBytes)
	s := h.shard(line)
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := h.journalOf(s, line); j != nil {
		return j.base[a/WordBytes%WordsPerLine]
	}
	return atomic.LoadUint64(&h.mem[a/WordBytes])
}

// RawMem reads a word directly from the working view, bypassing the
// simulation. Intended for tests and debugging tools only.
func (h *Heap) RawMem(a Addr) uint64 { return atomic.LoadUint64(&h.mem[a/WordBytes]) }
