package queues

import (
	"repro/internal/pmem"
	"repro/internal/ssmem"
)

// DurableMSQ is the paper's baseline: the durable lock-free queue of
// Friedman, Herlihy, Marathe and Petrank (PPoPP 2018) with the
// returned-values mechanism removed, exactly as the paper does for a
// fair comparison ("a thinner version of the original durable queue
// that executes faster, a version we denote DurableMSQ", Section 10).
//
// Persist placement:
//
//   - Enqueue persists the new node before linking it (so any
//     reachable node has durable content), then persists the link
//     after a successful CAS, before advancing the tail: two fences
//     per enqueue. Helping an obstructing enqueue also persists the
//     observed link before advancing the tail, so a node reachable
//     via Tail always sits on a fully persisted chain.
//   - Dequeue persists the head after advancing it (one fence), and a
//     failing dequeue persists the head before returning so that the
//     dequeues that emptied the queue survive.
//
// Recovery simply walks the persisted head's next chain.
type DurableMSQ struct {
	h            *pmem.Heap
	pool         *ssmem.Pool
	headA        pmem.Addr
	tailA        pmem.Addr
	nodeToRetire []paddedAddr
}

// NewDurableMSQ creates an empty DurableMSQ.
func NewDurableMSQ(h *pmem.Heap, threads int) *DurableMSQ {
	q := &DurableMSQ{
		h:            h,
		pool:         createNodePool(h, threads),
		headA:        h.RootAddr(slotHead),
		tailA:        h.RootAddr(slotTail),
		nodeToRetire: make([]paddedAddr, threads),
	}
	dummy := q.pool.Alloc(0)
	h.Store(0, q.headA, uint64(dummy))
	h.Store(0, q.tailA, uint64(dummy))
	h.Flush(0, dummy)
	h.Flush(0, q.headA)
	h.Fence(0)
	return q
}

// RecoverDurableMSQ rebuilds the queue from the NVRAM image after a
// crash: the persisted head is trusted (every completed dequeue
// persisted it before returning) and the persisted next chain is
// walked to its end. Nodes on the chain always carry durable content
// because enqueuers persist a node before linking it.
func RecoverDurableMSQ(h *pmem.Heap, threads int) *DurableMSQ {
	headA := h.RootAddr(slotHead)
	head := pmem.Addr(h.Load(0, headA))
	reach := map[pmem.Addr]bool{}
	cur := head
	for {
		reach[cur] = true
		next := pmem.Addr(h.Load(0, cur+offNext))
		if next == 0 {
			break
		}
		cur = next
	}
	pool := recoverNodePool(h, threads, func(a pmem.Addr) bool { return reach[a] })
	// Clear any stale next pointer beyond the chain end (the word is
	// zero already by construction) and reset the volatile tail.
	h.Store(0, h.RootAddr(slotTail), uint64(cur))
	return &DurableMSQ{
		h:            h,
		pool:         pool,
		headA:        headA,
		tailA:        h.RootAddr(slotTail),
		nodeToRetire: make([]paddedAddr, threads),
	}
}

// Enqueue appends v using two blocking persist operations.
func (q *DurableMSQ) Enqueue(tid int, v uint64) {
	h := q.h
	q.pool.Enter(tid)
	defer q.pool.Exit(tid)
	n := q.pool.Alloc(tid)
	h.StoreOwned(tid, n+offItem, v)
	h.StoreOwned(tid, n+offNext, 0)
	h.Flush(tid, n)
	h.Fence(tid) // fence 1: node durable before it can become reachable
	for {
		tail := pmem.Addr(h.Load(tid, q.tailA))
		next := h.Load(tid, tail+offNext)
		if next == 0 {
			if h.CAS(tid, tail+offNext, 0, uint64(n)) {
				h.Flush(tid, tail+offNext)
				h.Fence(tid) // fence 2: link durable before completing
				h.CAS(tid, q.tailA, uint64(tail), uint64(n))
				return
			}
		} else {
			// Help: persist the obstructing link before advancing the
			// tail past it, as in the original algorithm.
			h.Flush(tid, tail+offNext)
			h.Fence(tid)
			h.CAS(tid, q.tailA, uint64(tail), next)
		}
	}
}

// Dequeue removes the oldest item using one blocking persist.
func (q *DurableMSQ) Dequeue(tid int) (uint64, bool) {
	h := q.h
	q.pool.Enter(tid)
	defer q.pool.Exit(tid)
	for {
		head := pmem.Addr(h.Load(tid, q.headA))
		next := h.Load(tid, head+offNext)
		if next == 0 {
			h.Flush(tid, q.headA)
			h.Fence(tid)
			return 0, false
		}
		if h.CAS(tid, q.headA, uint64(head), next) {
			v := h.Load(tid, pmem.Addr(next)+offItem)
			h.Flush(tid, q.headA)
			h.Fence(tid)
			if r := q.nodeToRetire[tid].v; r != 0 {
				q.pool.Retire(tid, r)
			}
			q.nodeToRetire[tid].v = head
			return v, true
		}
	}
}
