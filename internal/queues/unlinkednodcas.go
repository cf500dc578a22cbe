package queues

import (
	"fmt"
	"sort"

	"repro/internal/pmem"
	"repro/internal/ssmem"
)

// UnlinkedQNoDCAS is the double-width-CAS-free alternative the paper
// describes in Section 5.1.2 for platforms without cmpxchg16b: the
// head is a plain pointer advanced with a single CAS, and instead of
// persisting a global (pointer, index) pair, each dequeuing thread
// copies the new head's index into its own persistent local index and
// persists that; recovery restores the head index as the maximum
// across the per-thread local indices. (The paper notes this handling
// "is actually required and applied in the second amendment" — it is
// the same per-thread head index OptUnlinkedQ uses, but with ordinary
// stores and flushes rather than movnti, and with the node fields
// still read from the flushed Persistent lines.)
//
// Still one blocking persist per operation. Node layout is identical
// to UnlinkedQ: [item, next, linked, index].
type UnlinkedQNoDCAS struct {
	h            *pmem.Heap
	pool         *ssmem.Pool
	headA        pmem.Addr // pointer only
	tailA        pmem.Addr
	localBase    pmem.Addr // one persistent line per thread: head index
	nodeToRetire []paddedAddr
}

// NewUnlinkedQNoDCAS creates an empty queue.
func NewUnlinkedQNoDCAS(h *pmem.Heap, threads int) *UnlinkedQNoDCAS {
	q := &UnlinkedQNoDCAS{
		h:            h,
		pool:         createNodePool(h, threads),
		headA:        h.RootAddr(slotHead),
		tailA:        h.RootAddr(slotTail),
		nodeToRetire: make([]paddedAddr, threads),
	}
	size := int64(threads) * pmem.CacheLineBytes
	q.localBase = h.AllocRaw(0, size, pmem.CacheLineBytes)
	h.InitRange(0, q.localBase, size)
	h.Store(0, h.RootAddr(slotLocal), uint64(q.localBase))
	h.Persist(0, h.RootAddr(slotLocal))

	dummy := q.pool.Alloc(0)
	h.Store(0, q.headA, uint64(dummy))
	h.Store(0, q.tailA, uint64(dummy))
	h.Flush(0, q.headA)
	h.Fence(0)
	return q
}

func (q *UnlinkedQNoDCAS) localIdxAddr(tid int) pmem.Addr {
	return q.localBase + pmem.Addr(tid)*pmem.CacheLineBytes
}

// persistLocalHeadIdx records idx in tid's persistent local index
// with an ordinary store + flush (the store pays the NVRAM read
// penalty once the line was flushed — exactly the cost Section 6.3's
// non-temporal writes remove).
func (q *UnlinkedQNoDCAS) persistLocalHeadIdx(tid int, idx uint64) {
	a := q.localIdxAddr(tid)
	q.h.Store(tid, a, idx)
	q.h.Flush(tid, a)
	q.h.Fence(tid)
}

// Enqueue appends v; identical to UnlinkedQ's enqueue.
func (q *UnlinkedQNoDCAS) Enqueue(tid int, v uint64) {
	h := q.h
	q.pool.Enter(tid)
	defer q.pool.Exit(tid)
	n := q.pool.Alloc(tid)
	h.StoreOwned(tid, n+offItem, v)
	h.StoreOwned(tid, n+offNext, 0)
	h.StoreOwned(tid, n+uqLinked, 0)
	for {
		tail := pmem.Addr(h.Load(tid, q.tailA))
		if next := h.Load(tid, tail+offNext); next == 0 {
			h.StoreOwned(tid, n+uqIndex, h.Load(tid, tail+uqIndex)+1)
			if h.CAS(tid, tail+offNext, 0, uint64(n)) {
				h.Store(tid, n+uqLinked, 1)
				h.Flush(tid, n)
				h.Fence(tid)
				h.CAS(tid, q.tailA, uint64(tail), uint64(n))
				return
			}
		} else {
			h.CAS(tid, q.tailA, uint64(tail), next)
		}
	}
}

// Dequeue removes the oldest item, persisting the dequeue through the
// thread's local head index.
func (q *UnlinkedQNoDCAS) Dequeue(tid int) (uint64, bool) {
	h := q.h
	q.pool.Enter(tid)
	defer q.pool.Exit(tid)
	for {
		head := pmem.Addr(h.Load(tid, q.headA))
		next := h.Load(tid, head+offNext)
		if next == 0 {
			// Persist emptiness: the current head's index covers all
			// prior dequeues.
			q.persistLocalHeadIdx(tid, h.Load(tid, head+uqIndex))
			return 0, false
		}
		if h.CAS(tid, q.headA, uint64(head), next) {
			v := h.Load(tid, pmem.Addr(next)+offItem)
			// The new dummy's index is valid in the coherent view
			// (its enqueuer wrote it before linking); persisting it
			// into our own slot avoids the stale-NVRAM-index problem
			// that forces UnlinkedQ's double-width CAS.
			q.persistLocalHeadIdx(tid, h.Load(tid, pmem.Addr(next)+uqIndex))
			if r := q.nodeToRetire[tid].v; r != 0 {
				q.pool.Retire(tid, r)
			}
			q.nodeToRetire[tid].v = head
			return v, true
		}
	}
}

// RecoverUnlinkedQNoDCAS rebuilds the queue after a crash: the head
// index is the maximum across the per-thread local indices; the rest
// mirrors UnlinkedQ's recovery.
func RecoverUnlinkedQNoDCAS(h *pmem.Heap, threads int) *UnlinkedQNoDCAS {
	localBase := pmem.Addr(h.Load(0, h.RootAddr(slotLocal)))
	var headIdx uint64
	for t := 0; t < threads; t++ {
		if v := h.Load(0, localBase+pmem.Addr(t)*pmem.CacheLineBytes); v > headIdx {
			headIdx = v
		}
	}
	type rec struct {
		addr pmem.Addr
		idx  uint64
	}
	var live []rec
	pool := recoverNodePool(h, threads, func(a pmem.Addr) bool {
		if h.Load(0, a+uqLinked) == 1 && h.Load(0, a+uqIndex) > headIdx {
			live = append(live, rec{a, h.Load(0, a+uqIndex)})
			return true
		}
		return false
	})
	sort.Slice(live, func(i, j int) bool { return live[i].idx < live[j].idx })
	for i := 1; i < len(live); i++ {
		if live[i].idx == live[i-1].idx {
			panic(fmt.Sprintf("unlinkednodcas recovery: duplicate index %d", live[i].idx))
		}
	}
	q := &UnlinkedQNoDCAS{
		h:            h,
		pool:         pool,
		headA:        h.RootAddr(slotHead),
		tailA:        h.RootAddr(slotTail),
		localBase:    localBase,
		nodeToRetire: make([]paddedAddr, threads),
	}
	dummy := pool.Alloc(0)
	h.Store(0, dummy+offItem, 0)
	h.Store(0, dummy+uqLinked, 0)
	h.Store(0, dummy+uqIndex, headIdx)
	prev := dummy
	for _, r := range live {
		h.Store(0, prev+offNext, uint64(r.addr))
		prev = r.addr
	}
	h.Store(0, prev+offNext, 0)
	h.Store(0, q.headA, uint64(dummy))
	h.Store(0, q.tailA, uint64(prev))
	return q
}
