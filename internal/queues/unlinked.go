package queues

import (
	"fmt"
	"sort"

	"repro/internal/pmem"
	"repro/internal/ssmem"
)

// UnlinkedQ is the first-amendment queue of Section 5.1 (Figure 1):
// a durably linearizable lock-free queue executing exactly one
// blocking persist operation (flush + SFENCE) per operation, meeting
// the lower bound of Cohen et al.
//
// The queue does not persist node links. Each node carries an index
// (its position in enqueue order) and a linked flag; recovery scans
// the allocator's designated areas, resurrects nodes that are marked
// linked with an index greater than the persisted head index, and
// rebuilds the list in index order. The head holds a (pointer, index)
// pair updated together with a double-width CAS; dequeues persist the
// head's index so recovery knows the consecutive prefix of dequeued
// nodes (Observation 2).
//
// Node layout: [item, next, linked, index].
type UnlinkedQ struct {
	h            *pmem.Heap
	pool         *ssmem.Pool
	headA        pmem.Addr // (pointer, index) pair; 16-byte aligned
	tailA        pmem.Addr
	nodeToRetire []paddedAddr
}

const (
	uqLinked = offW2
	uqIndex  = offW3
)

// NewUnlinkedQ creates an empty UnlinkedQ.
func NewUnlinkedQ(h *pmem.Heap, threads int) *UnlinkedQ {
	q := &UnlinkedQ{
		h:            h,
		pool:         newNodePool(h, threads),
		headA:        h.RootAddr(slotHead),
		tailA:        h.RootAddr(slotTail),
		nodeToRetire: make([]paddedAddr, threads),
	}
	dummy := q.pool.Alloc(0) // fresh slot: zero item/next/linked/index
	h.Store(0, q.headA, uint64(dummy))
	h.Store(0, q.headA+8, 0) // head index
	h.Store(0, q.tailA, uint64(dummy))
	h.Flush(0, q.headA)
	h.Fence(0)
	return q
}

// Enqueue appends v (Figure 1, lines 20-34). One fence per call.
func (q *UnlinkedQ) Enqueue(tid int, v uint64) {
	h := q.h
	q.pool.Enter(tid)
	defer q.pool.Exit(tid)
	n := q.pool.Alloc(tid) // line 21
	h.StoreOwned(tid, n+offItem, v)
	h.StoreOwned(tid, n+offNext, 0)
	// Unset linked before assigning the index: a reused node might
	// still be marked linked, and a fresh index in that state could
	// make recovery resurrect it prematurely (line 24 discussion).
	h.StoreOwned(tid, n+uqLinked, 0)
	for {
		tail := pmem.Addr(h.Load(tid, q.tailA)) // line 26
		if next := h.Load(tid, tail+offNext); next == 0 {
			// Reading tail's index touches a line its enqueuer
			// flushed: this is one of the post-flush accesses the
			// second amendment removes.
			h.StoreOwned(tid, n+uqIndex, h.Load(tid, tail+uqIndex)+1) // line 28
			if h.CAS(tid, tail+offNext, 0, uint64(n)) {               // line 29
				h.Store(tid, n+uqLinked, 1) // line 30
				h.Flush(tid, n)             // line 31
				h.Fence(tid)
				h.CAS(tid, q.tailA, uint64(tail), uint64(n)) // line 32
				return
			}
		} else {
			h.CAS(tid, q.tailA, uint64(tail), next) // line 34
		}
	}
}

// Dequeue removes the oldest item (Figure 1, lines 6-19). One fence
// per call, including failing dequeues (line 11).
func (q *UnlinkedQ) Dequeue(tid int) (uint64, bool) {
	h := q.h
	q.pool.Enter(tid)
	defer q.pool.Exit(tid)
	for {
		hptr, hidx := h.LoadPair(tid, q.headA)       // line 8
		next := h.Load(tid, pmem.Addr(hptr)+offNext) // line 9
		if next == 0 {
			h.Flush(tid, q.headA) // line 11: persist prior emptying dequeues
			h.Fence(tid)
			return 0, false
		}
		nidx := h.Load(tid, pmem.Addr(next)+uqIndex)
		if h.DCAS(tid, q.headA, hptr, hidx, next, nidx) { // line 13
			v := h.Load(tid, pmem.Addr(next)+offItem) // line 14
			h.Flush(tid, q.headA)                     // line 15
			h.Fence(tid)
			if r := q.nodeToRetire[tid].v; r != 0 { // lines 16-17
				q.pool.Retire(tid, r)
			}
			q.nodeToRetire[tid].v = pmem.Addr(hptr) // line 18
			return v, true
		}
	}
}

// RecoverUnlinkedQ rebuilds the queue after a crash (Section 5.1.3).
// The persisted head index is left unmodified; a fresh dummy with that
// index is allocated; every node in the designated areas that is
// marked linked with an index greater than the head index is
// resurrected; the survivors are sorted by index (indices may be
// nonconsecutive, Observation 1) and relinked. All other nodes return
// to the allocator. Free and previously reclaimed nodes are ignored
// thanks to their zero or stale index or their unset linked flag.
func RecoverUnlinkedQ(h *pmem.Heap, threads int) *UnlinkedQ {
	headA := h.RootAddr(slotHead)
	headIdx := h.Load(0, headA+8)

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
			panic(fmt.Sprintf("unlinkedq recovery: duplicate index %d", live[i].idx))
		}
	}

	q := &UnlinkedQ{
		h:            h,
		pool:         pool,
		headA:        headA,
		tailA:        h.RootAddr(slotTail),
		nodeToRetire: make([]paddedAddr, threads),
	}
	dummy := pool.Alloc(0)
	h.Store(0, dummy+offItem, 0)
	h.Store(0, dummy+uqLinked, 0)
	h.Store(0, dummy+uqIndex, headIdx)
	// Relink survivors in index order; links are volatile state.
	prev := dummy
	for _, r := range live {
		h.Store(0, prev+offNext, uint64(r.addr))
		prev = r.addr
	}
	h.Store(0, prev+offNext, 0)
	h.Store(0, headA, uint64(dummy))
	h.Store(0, headA+8, headIdx)
	h.Store(0, q.tailA, uint64(prev))
	return q
}
