// Package ssmem is a durable, epoch-based memory manager for
// fixed-size nodes in simulated persistent memory, modelled on the
// ssmem allocator the paper adopts from Zuriel et al. (Section 9).
//
// Nodes are allocated from designated areas: large, cache-line aligned
// regions carved out of the persistent heap, zeroed and persisted on
// creation so that never-used slots are ignored by recovery
// procedures. A persistent area registry lets recovery enumerate every
// slot that was ever handed to the data structure. Each thread owns a
// volatile free list; reclamation is deferred through a three-epoch
// EBR scheme so that a node is only reused once no operation that
// might still reference it is in flight.
//
// Free slots also move between threads, through a shared volatile
// depot: a thread whose free list passes two chunks donates the top
// one, a thread whose list is empty takes one before it touches fresh
// memory, and recovery files every non-live slot there. Without it a
// thread that only allocates (a producer) would open new areas for
// ever while the thread that only retires (its consumer) hoarded the
// slots. Only a free list feeds the depot, so every address in it has
// already passed its grace period and is safe for any thread; the
// depot is volatile, and RecoverPool rebuilds it from the liveness
// scan; and moving an address persists nothing.
//
// What the depot cannot hand over is what sits in limbo behind a
// thread stalled inside Enter/Exit, so a thread about to grow the pool
// first waits, briefly and boundedly, for that thread to run
// (awaitGrace): areas are for ever, a descheduled thread is not.
package ssmem

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pmem"
)

// Config parameterizes a Pool.
type Config struct {
	// SlotBytes is the node size; it must be a multiple of the cache
	// line size. The paper's queues use one line a node; a node of the
	// queue core whose payload spans further lines (the paper's footnote
	// 3) is one slot of that many lines.
	SlotBytes int
	// SlotsPerArea is the number of nodes per designated area
	// (default 4096).
	SlotsPerArea int
	// Threads is the number of thread ids that will use the pool.
	Threads int
	// RootSlot is the pmem root slot that anchors the persistent
	// area registry, so recovery can find it after a crash.
	RootSlot int
	// InitTid is the thread id NewPool charges its construction
	// persists to (registry allocation, root-slot anchor). Default 0 —
	// fine for quiescent construction; a pool created while other
	// threads run (e.g. a broker topic created on a live system) must
	// use a tid owned by the constructing goroutine, because fences are
	// per-thread. Must be in [0, Threads).
	InitTid int
}

const (
	maxAreas      = 4096
	regEntryWords = 2 // base, slots (slot size is in the pool config)
	// regBytes is the registry's size: the count, then maxAreas entries,
	// rounded up to whole lines.
	regBytes       = ((1+maxAreas*regEntryWords)*pmem.WordBytes + pmem.CacheLineBytes - 1) &^ (pmem.CacheLineBytes - 1)
	retireAdvanceN = 64
	ebrIdle        = ^uint64(0)
	// chunkSlots is the unit in which free slots cross threads. A
	// thread donates down to two chunks once it holds more, so it keeps
	// more than one for itself and takes the depot lock once per chunk.
	chunkSlots = 128
	// limboRing is the number of limbo buckets a thread needs: a bucket
	// is drained two epochs after it was filled, so only the current
	// and the previous epoch's are ever occupied together.
	limboRing = 3
	// graceWaits bounds the sleeps (each at least a microsecond, a timer
	// tick in practice) an empty Alloc spends on a held-back epoch
	// before it opens a new area regardless.
	graceWaits = 20
	// maxSpare bounds the emptied chunk buffers the depot keeps for the
	// next donation; steady traffic needs one or two, and a recovered
	// depot being drained should hand the rest to the collector.
	maxSpare = 8
)

type ebrSlot struct {
	announce atomic.Uint64
	_        [56]byte
}

type limboBucket struct {
	epoch uint64
	addrs []pmem.Addr
}

type threadState struct {
	free     []pmem.Addr
	areaNext pmem.Addr
	areaEnd  pmem.Addr
	// limbo[e%limboRing] collects what was retired in epoch e; the
	// buckets' backing arrays are reused from epoch to epoch.
	limbo   [limboRing]limboBucket
	retires uint64
	// gaveUp is the epoch (plus one) at which awaitGrace last waited in
	// vain; while the epoch stands there it does not wait again.
	gaveUp uint64
	_      [40]byte
}

// depot holds the free slots that belong to no thread, in chunks of at
// most chunkSlots addresses.
type depot struct {
	mu    sync.Mutex
	full  [][]pmem.Addr
	spare [][]pmem.Addr // emptied chunk buffers
	// free counts the addresses in full; read without mu by Alloc, so
	// that a pool nobody donates to never takes the lock.
	free atomic.Int64
}

// Pool is a durable fixed-size allocator. Methods taking a tid are
// safe for concurrent use as long as each tid is driven by one
// goroutine at a time.
type Pool struct {
	h       *pmem.Heap
	cfg     Config
	regAddr pmem.Addr
	areaMu  sync.Mutex
	areas   atomic.Int64 // volatile copy of the registry's count
	// bases holds every area's base in ascending order, for Locate; it
	// is replaced, never written in place, so readers take no lock.
	bases atomic.Pointer[[]pmem.Addr]
	epoch atomic.Uint64
	slots []ebrSlot
	per   []threadState
	depot depot
}

func validate(cfg *Config) {
	if cfg.SlotBytes <= 0 || cfg.SlotBytes%pmem.CacheLineBytes != 0 {
		panic(fmt.Sprintf("ssmem: SlotBytes %d must be a positive multiple of %d", cfg.SlotBytes, pmem.CacheLineBytes))
	}
	if cfg.SlotsPerArea == 0 {
		cfg.SlotsPerArea = 4096
	}
	if cfg.Threads <= 0 {
		panic("ssmem: Threads must be positive")
	}
	if cfg.InitTid < 0 || cfg.InitTid >= cfg.Threads {
		panic(fmt.Sprintf("ssmem: InitTid %d out of range [0,%d)", cfg.InitTid, cfg.Threads))
	}
}

// NewPool creates a fresh pool anchored at cfg.RootSlot. The root slot
// must be empty (use RecoverPool after a crash).
func NewPool(h *pmem.Heap, cfg Config) *Pool {
	validate(&cfg)
	p := newPoolCommon(h, cfg)
	tid := cfg.InitTid
	root := h.RootAddr(cfg.RootSlot)
	if h.Load(tid, root) != 0 {
		panic("ssmem: NewPool on a non-empty root slot (did you mean RecoverPool?)")
	}
	p.regAddr = h.AllocRaw(tid, regBytes, pmem.CacheLineBytes)
	h.InitRange(tid, p.regAddr, regBytes)
	h.Store(tid, root, uint64(p.regAddr))
	h.Persist(tid, root)
	return p
}

// RecoverPool re-attaches to the pool anchored at cfg.RootSlot after a
// crash and restart. live reports whether a slot is still owned by the
// recovered data structure; every non-live slot goes to the depot,
// where whichever thread allocates first finds it. live is invoked
// exactly once per slot of the registry's areas, in registry and slot
// order, which Areas reads and checks. An empty root slot, or a
// registry Areas refuses, is a panic with an error wrapping
// pmem.ErrCorrupt.
//
// The depot hands the slots out in that order too, so the slots in use
// before the crash are reused before the never-used tail of the newest
// area.
func RecoverPool(h *pmem.Heap, cfg Config, live func(pmem.Addr) bool) *Pool {
	validate(&cfg)
	p := newPoolCommon(h, cfg)
	r := pmem.NewReader(h)
	var areas []Area
	p.regAddr, areas = readAreas(r, h, cfg)
	if p.regAddr == 0 {
		r.Errorf("ssmem: RecoverPool on an empty root slot")
	}
	r.Raise()
	p.areas.Store(int64(len(areas)))
	d := &p.depot
	free := 0
	bases := make([]pmem.Addr, 0, len(areas))
	for _, ar := range areas {
		bases = append(bases, ar.Base)
		for s := 0; s < ar.Slots; s++ {
			a := ar.Base + pmem.Addr(s*cfg.SlotBytes)
			if live(a) {
				continue
			}
			if free%chunkSlots == 0 {
				d.full = append(d.full, make([]pmem.Addr, 0, chunkSlots))
			}
			c := &d.full[len(d.full)-1]
			*c = append(*c, a)
			free++
		}
	}
	// An allocation takes the depot's last chunk and a chunk's last slot.
	slices.Reverse(d.full)
	for _, c := range d.full {
		slices.Reverse(c)
	}
	slices.Sort(bases)
	p.bases.Store(&bases)
	d.free.Store(int64(free))
	return p
}

func newPoolCommon(h *pmem.Heap, cfg Config) *Pool {
	p := &Pool{
		h:     h,
		cfg:   cfg,
		slots: make([]ebrSlot, cfg.Threads),
		per:   make([]threadState, cfg.Threads),
	}
	for i := range p.slots {
		p.slots[i].announce.Store(ebrIdle)
	}
	p.bases.Store(new([]pmem.Addr))
	return p
}

// Enter begins an EBR-protected operation for tid. Every data
// structure operation must be bracketed by Enter/Exit so reclaimed
// nodes are not reused while the operation may still reference them.
func (p *Pool) Enter(tid int) {
	p.slots[tid].announce.Store(p.epoch.Load())
}

// Exit ends tid's EBR-protected operation.
func (p *Pool) Exit(tid int) {
	p.slots[tid].announce.Store(ebrIdle)
}

// Alloc returns a node slot for tid. Freshly created areas are zeroed
// and persisted (a single fence per area), so first-time slots are
// persistently zero; reused slots retain their previous contents, as
// on real hardware.
func (p *Pool) Alloc(tid int) pmem.Addr {
	ts := &p.per[tid]
	if len(ts.free) == 0 && !p.takeChunk(ts) &&
		// Out of area too: the depot gets a second look after a wait.
		!(ts.areaNext == ts.areaEnd && p.awaitGrace(tid) && p.takeChunk(ts)) {
		if ts.areaNext == ts.areaEnd {
			p.newArea(tid)
		}
		a := ts.areaNext
		ts.areaNext += pmem.Addr(p.cfg.SlotBytes)
		return a
	}
	n := len(ts.free) - 1
	a := ts.free[n]
	ts.free = ts.free[:n]
	p.clearSlotState(a)
	return a
}

// takeChunk moves one chunk from the depot to ts's empty free list.
func (p *Pool) takeChunk(ts *threadState) bool {
	d := &p.depot
	if d.free.Load() == 0 {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.full)
	if n == 0 {
		return false
	}
	c := d.full[n-1]
	d.full = d.full[:n-1]
	d.free.Add(-int64(len(c)))
	ts.free = append(ts.free, c...)
	if len(d.spare) < maxSpare {
		d.spare = append(d.spare, c[:0])
	}
	return true
}

// donate moves the top of ts's free list to the depot, chunk by chunk,
// until no more than two chunks are left. Everything on a free list is
// past its grace period, so any thread may reuse it.
func (p *Pool) donate(ts *threadState) {
	d := &p.depot
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(ts.free) > 2*chunkSlots {
		var c []pmem.Addr
		if n := len(d.spare); n > 0 {
			c, d.spare = d.spare[n-1], d.spare[:n-1]
		} else {
			c = make([]pmem.Addr, 0, chunkSlots)
		}
		top := len(ts.free) - chunkSlots
		d.full = append(d.full, append(c, ts.free[top:]...))
		d.free.Add(chunkSlots)
		ts.free = ts.free[:top]
	}
}

// clearSlotState resets the cache-simulation state of a recycled
// slot's lines: re-populating a recycled node is an allocation cold
// miss common to all algorithms, not a post-flush access.
func (p *Pool) clearSlotState(a pmem.Addr) {
	for off := 0; off < p.cfg.SlotBytes; off += pmem.CacheLineBytes {
		p.h.ClearLineState(a + pmem.Addr(off))
	}
}

// Retire hands a node to the EBR machinery; it will reappear on a free
// list — tid's, or through the depot another thread's — once two epoch
// advances prove no concurrent operation can still hold a reference.
func (p *Pool) Retire(tid int, a pmem.Addr) {
	ts := &p.per[tid]
	e := p.epoch.Load()
	p.drainLimbo(ts, e)
	// The drain left this bucket empty or already on epoch e: anything
	// else in it is at least limboRing epochs old.
	b := &ts.limbo[e%limboRing]
	b.epoch = e
	b.addrs = append(b.addrs, a)
	ts.retires++
	if ts.retires%retireAdvanceN == 0 {
		p.tryAdvance()
	}
}

// FreeImmediate returns a node straight to tid's free list. Only safe
// when no concurrent operation can reference it (e.g. during
// single-threaded recovery).
func (p *Pool) FreeImmediate(tid int, a pmem.Addr) {
	ts := &p.per[tid]
	ts.free = append(ts.free, a)
	if len(ts.free) > 2*chunkSlots {
		p.donate(ts)
	}
}

func (p *Pool) drainLimbo(ts *threadState, e uint64) {
	for i := range ts.limbo {
		if b := &ts.limbo[i]; len(b.addrs) > 0 && b.epoch+2 <= e {
			ts.free = append(ts.free, b.addrs...)
			b.addrs = b.addrs[:0]
		}
	}
	if len(ts.free) > 2*chunkSlots {
		p.donate(ts)
	}
}

// tryAdvance moves the epoch on unless some thread is inside an
// operation it announced at an older one; it returns that thread's id,
// or -1.
func (p *Pool) tryAdvance() int {
	e := p.epoch.Load()
	for i := range p.slots {
		a := p.slots[i].announce.Load()
		if a != ebrIdle && a != e {
			return i
		}
	}
	p.epoch.CompareAndSwap(e, e+1)
	return -1
}

// awaitGrace is what tid does before it grows the pool: an area is
// never given back, while slots that sit in limbo behind a thread
// descheduled inside Enter/Exit come back as soon as it runs. So tid
// helps the epoch on and, while another thread holds it back, sleeps —
// which, unlike a yield, frees the processor for that thread — at most
// graceWaits times per epoch: a thread that stays away longer costs
// areas, as it did before, not time. It reports whether it waited,
// that is whether the depot is worth a second look.
func (p *Pool) awaitGrace(tid int) (waited bool) {
	ts := &p.per[tid]
	for i := 0; i < graceWaits; i++ {
		// tid's own operation cannot end here, so it is nobody to wait for.
		if by := p.tryAdvance(); by < 0 || by == tid || ts.gaveUp == p.epoch.Load()+1 {
			return waited
		}
		time.Sleep(time.Microsecond)
		waited = true
	}
	ts.gaveUp = p.epoch.Load() + 1
	return waited
}

func (p *Pool) newArea(tid int) {
	p.areaMu.Lock()
	defer p.areaMu.Unlock()
	size := int64(p.cfg.SlotBytes) * int64(p.cfg.SlotsPerArea)
	base := p.h.AllocRaw(tid, size, pmem.CacheLineBytes)
	p.h.InitRange(tid, base, size)

	count := p.h.Load(tid, p.regAddr)
	if count >= maxAreas {
		panic("ssmem: area registry full")
	}
	entry := p.regAddr + pmem.Addr((1+count*regEntryWords)*pmem.WordBytes)
	// Non-temporal stores: the registry line is written again by every
	// growth, and a store into a line a flush left behind would read it
	// back from NVRAM. The entry is durable before the count covers it.
	p.h.NTStore(tid, entry, uint64(base))
	p.h.NTStore(tid, entry+pmem.WordBytes, uint64(p.cfg.SlotsPerArea))
	p.h.Fence(tid)
	p.h.NTStore(tid, p.regAddr, count+1)
	p.h.Fence(tid)
	p.areas.Store(int64(count + 1))
	// The heap allocates upwards, so the new base is the largest. An
	// append within capacity writes past every published length.
	bases := append(*p.bases.Load(), base)
	p.bases.Store(&bases)

	ts := &p.per[tid]
	ts.areaNext = base
	ts.areaEnd = base + pmem.Addr(size)
}

// Locate maps the slot at a to its area's position in ascending base
// order and its slot number there: a pair that stays the same for as
// long as the pool lives, so a caller can keep volatile state per slot
// in tables indexed by it. It touches no simulated memory and takes no
// lock; a must be a slot some Alloc of this pool returned.
func (p *Pool) Locate(a pmem.Addr) (area, slot int) {
	bases := *p.bases.Load()
	area, found := slices.BinarySearch(bases, a)
	if !found {
		area--
	}
	if area >= 0 {
		if slot = int(a-bases[area]) / p.cfg.SlotBytes; slot < p.cfg.SlotsPerArea {
			return area, slot
		}
	}
	panic(fmt.Sprintf("ssmem: %#x is not a slot of this pool", a))
}

// Stats is a pool's footprint. Every slot of every area is either held
// by the data structure or counted in exactly one of the three slot
// fields, so Areas × SlotsPerArea minus their sum is the live count.
type Stats struct {
	Areas int
	// ThreadFree is what threads can hand out without leaving their own
	// state: free lists plus the unused tail of each thread's area.
	ThreadFree int
	// DepotFree is what any thread can take from the depot.
	DepotFree int
	// Limbo is what was retired and is still inside its grace period.
	Limbo int
}

// Stats reports the pool's footprint. Areas and DepotFree are exact at
// any time; the per-thread sums follow pmem's statistics quiescence
// contract — exact when the pool's threads are quiescent, a benign
// torn view otherwise. It touches no simulated memory.
func (p *Pool) Stats() Stats {
	s := Stats{Areas: int(p.areas.Load()), DepotFree: int(p.depot.free.Load())}
	for i := range p.per {
		ts := &p.per[i]
		s.ThreadFree += len(ts.free) + int(ts.areaEnd-ts.areaNext)/p.cfg.SlotBytes
		for j := range ts.limbo {
			s.Limbo += len(ts.limbo[j].addrs)
		}
	}
	return s
}

// Area describes one registered designated area.
type Area struct {
	Base  pmem.Addr
	Slots int
}

// Areas reads the persistent area registry anchored at cfg.RootSlot
// without constructing a pool. Recovery procedures that must validate
// untrusted node addresses before deciding slot liveness use this to
// break the pool/liveness ordering cycle. A registry no pool could have
// written — a registry or an area outside the heap's allocated bytes,
// more than maxAreas areas, an area whose slot count is not
// cfg.SlotsPerArea — is a panic with an error wrapping pmem.ErrCorrupt.
func Areas(h *pmem.Heap, cfg Config) []Area {
	validate(&cfg)
	r := pmem.NewReader(h)
	_, areas := readAreas(r, h, cfg)
	r.Raise()
	return areas
}

// readAreas reads the registry anchored at cfg.RootSlot through r: its
// address (0 if nothing is anchored) and its areas, checked once per
// registry and once per area. It stops at r's first failure.
func readAreas(r *pmem.Reader, h *pmem.Heap, cfg Config) (pmem.Addr, []Area) {
	regAddr := r.Ptr(h.RootAddr(cfg.RootSlot), regBytes)
	if regAddr == 0 {
		return 0, nil
	}
	// newArea never registers more than maxAreas, so a larger count was
	// not written by the pool: refused before make turns it into an
	// allocation whose failure no recover can catch.
	count := r.Count(regAddr, maxAreas)
	areaBytes := int64(cfg.SlotBytes) * int64(cfg.SlotsPerArea)
	out := make([]Area, 0, count)
	for i := uint64(0); i < count; i++ {
		entry := regAddr + pmem.Addr((1+i*regEntryWords)*pmem.WordBytes)
		base := r.Ptr(entry, areaBytes)
		// newArea registers every area, at a nonzero base, with
		// SlotsPerArea slots; any other count would have a recovery scan
		// walk slots nobody allocated.
		if slots := r.Word(entry + pmem.WordBytes); base == 0 || slots != uint64(cfg.SlotsPerArea) {
			r.Errorf("ssmem: corrupt area registry at %#x: area %d at %#x has %d slots, not %d",
				regAddr, i, base, slots, cfg.SlotsPerArea)
		}
		if r.Err() != nil {
			return regAddr, nil
		}
		out = append(out, Area{Base: base, Slots: cfg.SlotsPerArea})
	}
	return regAddr, out
}

// ValidSlot reports whether a is a properly aligned slot address
// inside one of the areas.
func ValidSlot(areas []Area, slotBytes int, a pmem.Addr) bool {
	for _, ar := range areas {
		end := ar.Base + pmem.Addr(ar.Slots*slotBytes)
		if a >= ar.Base && a < end && (a-ar.Base)%pmem.Addr(slotBytes) == 0 {
			return true
		}
	}
	return false
}
