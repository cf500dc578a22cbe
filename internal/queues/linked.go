package queues

import (
	"repro/internal/pmem"
	"repro/internal/ssmem"
)

// LinkedQ is the first-amendment queue of Section 5.2 and Appendix A
// (Figure 3): one blocking persist per operation, with persisted
// links.
//
// A node's initialized flag tells recovery whether the node's content
// is valid in NVRAM; Assumption 1 (in-line store order is preserved)
// guarantees the flag is only durable after the data it vouches for.
// Backward links (pred) let an enqueuer persist exactly the suffix of
// nodes that might not yet be durable; a node whose pred is NULL marks
// a fully persisted prefix. Dequeued dummies are recycled through the
// per-thread nodeToPersistAndRetire cell so that their initialized
// flag is persistently cleared by piggybacking on the next successful
// dequeue's fence — keeping every operation at a single fence.
//
// Node layout: [item, next, pred, initialized].
type LinkedQ struct {
	h     *pmem.Heap
	pool  *ssmem.Pool
	headA pmem.Addr
	tailA pmem.Addr
	// nodeToPersistAndRetire delays reclamation of the previous dummy
	// until its cleared initialized flag has been covered by a fence.
	nodeToPersistAndRetire []paddedAddr
	// naiveFlush disables the backward-link suffix optimisation: the
	// enqueuer flushes every node from the head to the new node
	// (the "naive" strategy Appendix A describes and rejects).
	// Used by the linked-naive ablation.
	naiveFlush bool
}

const (
	lqPred = offW2
	lqInit = offW3
)

// NewLinkedQ creates an empty LinkedQ.
func NewLinkedQ(h *pmem.Heap, threads int) *LinkedQ {
	q := &LinkedQ{
		h:                      h,
		pool:                   createNodePool(h, threads),
		headA:                  h.RootAddr(slotHead),
		tailA:                  h.RootAddr(slotTail),
		nodeToPersistAndRetire: make([]paddedAddr, threads),
	}
	dummy := q.pool.Alloc(0)
	h.Store(0, dummy+lqInit, 1)
	h.Store(0, q.headA, uint64(dummy))
	h.Store(0, q.tailA, uint64(dummy))
	h.Flush(0, dummy)
	h.Flush(0, q.headA)
	h.Fence(0)
	return q
}

// NewLinkedQNaive creates a LinkedQ that flushes the whole list prefix
// on every enqueue instead of walking backward links (ablation).
func NewLinkedQNaive(h *pmem.Heap, threads int) *LinkedQ {
	q := NewLinkedQ(h, threads)
	q.naiveFlush = true
	return q
}

// flushNotPersistedSuffix implements Figure 3 lines 59-63: flush the
// new node and walk pred links backward, flushing every node until a
// NULL pred proves the remaining prefix is already durable. Note the
// faithful post-flush read of pred: the walk reads each node's pred
// after flushing that node's line.
func (q *LinkedQ) flushNotPersistedSuffix(tid int, n pmem.Addr) {
	h := q.h
	for {
		h.Flush(tid, n)
		n = pmem.Addr(h.Load(tid, n+lqPred))
		if n == 0 {
			return
		}
	}
}

// flushWholePrefix is the naive alternative: flush every node from the
// current head to the new node n.
func (q *LinkedQ) flushWholePrefix(tid int, n pmem.Addr) {
	h := q.h
	cur := pmem.Addr(h.Load(tid, q.headA))
	for cur != 0 {
		h.Flush(tid, cur)
		if cur == n {
			return
		}
		cur = pmem.Addr(h.Load(tid, cur+offNext))
	}
}

// Enqueue appends v (Figure 3, lines 64-80). One fence per call.
func (q *LinkedQ) Enqueue(tid int, v uint64) {
	h := q.h
	q.pool.Enter(tid)
	defer q.pool.Exit(tid)
	n := q.pool.Alloc(tid) // allocated with initialized persistently unset
	h.StoreOwned(tid, n+offItem, v)
	h.StoreOwned(tid, n+offNext, 0)
	h.StoreOwned(tid, n+lqInit, 1) // after the data; Assumption 1 orders them
	for {
		tail := pmem.Addr(h.Load(tid, q.tailA))
		if next := h.Load(tid, tail+offNext); next == 0 {
			h.StoreOwned(tid, n+lqPred, uint64(tail))   // line 72
			if h.CAS(tid, tail+offNext, 0, uint64(n)) { // line 73
				if q.naiveFlush {
					q.flushWholePrefix(tid, n)
				} else {
					q.flushNotPersistedSuffix(tid, n) // line 74
				}
				h.Fence(tid)                                 // line 75
				h.CAS(tid, q.tailA, uint64(tail), uint64(n)) // line 76
				// All nodes preceding n are now persistent; cut the
				// backward link so later enqueues stop here (line 78).
				h.Store(tid, n+lqPred, 0)
				return
			}
		} else {
			h.CAS(tid, q.tailA, uint64(tail), next) // line 80
		}
	}
}

// Dequeue removes the oldest item (Figure 3, lines 40-58). One fence
// per call, including failing dequeues.
func (q *LinkedQ) Dequeue(tid int) (uint64, bool) {
	h := q.h
	q.pool.Enter(tid)
	defer q.pool.Exit(tid)
	for {
		head := pmem.Addr(h.Load(tid, q.headA))
		next := h.Load(tid, head+offNext)
		if next == 0 {
			h.Flush(tid, q.headA) // line 45
			h.Fence(tid)
			return 0, false
		}
		if h.CAS(tid, q.headA, uint64(head), next) { // line 47
			v := h.Load(tid, pmem.Addr(next)+offItem) // line 48
			if r := q.nodeToPersistAndRetire[tid].v; r != 0 {
				h.Flush(tid, r+lqInit) // line 50: piggybacked persist
			}
			h.Flush(tid, q.headA) // line 51
			h.Fence(tid)          // line 52: the operation's single fence
			// Disconnect the new dummy's backward link so enqueue
			// walks never reach the node we are about to recycle
			// (line 53). This store touches the line we just flushed.
			h.Store(tid, pmem.Addr(next)+lqPred, 0)
			if r := q.nodeToPersistAndRetire[tid].v; r != 0 {
				q.pool.Retire(tid, r) // line 55
			}
			h.Store(tid, head+lqInit, 0)           // line 56
			q.nodeToPersistAndRetire[tid].v = head // line 57
			return v, true
		}
	}
}

// RecoverLinkedQ rebuilds the queue after a crash (Appendix A.3): it
// resurrects every node reachable from the persisted head through a
// path of consecutive initialized nodes. If the walk stops at an
// uninitialized node, the preceding node becomes the tail and its next
// pointer is cleared and flushed. Reclaimed nodes with a set
// initialized flag get the flag cleared and flushed so they can be
// reused safely; a single fence at the end covers all recovery
// flushes.
func RecoverLinkedQ(h *pmem.Heap, threads int) *LinkedQ {
	headA := h.RootAddr(slotHead)
	tailA := h.RootAddr(slotTail)
	head := pmem.Addr(h.Load(0, headA))

	reach := map[pmem.Addr]bool{}
	var tail pmem.Addr
	if h.Load(0, head+lqInit) == 0 {
		// Step 1: a crash interrupted a previous recovery between
		// clearing flags; reset the dummy. next before initialized,
		// relying on Assumption 1 for crash-during-recovery safety.
		h.Store(0, head+offNext, 0)
		h.Store(0, head+lqInit, 1)
		h.Flush(0, head)
		reach[head] = true
		tail = head
	} else {
		reach[head] = true
		cur := head
		for {
			next := pmem.Addr(h.Load(0, cur+offNext))
			if next == 0 {
				tail = cur
				break
			}
			if h.Load(0, next+lqInit) == 0 {
				// Step 2b: truncate before the stale node.
				h.Store(0, cur+offNext, 0)
				h.Flush(0, cur)
				tail = cur
				break
			}
			reach[next] = true
			cur = next
		}
	}
	h.Store(0, tail+lqPred, 0)
	h.Store(0, tailA, uint64(tail))

	pool := recoverNodePool(h, threads, func(a pmem.Addr) bool {
		if reach[a] {
			return true
		}
		if h.Load(0, a+lqInit) == 1 {
			h.Store(0, a+lqInit, 0)
			h.Flush(0, a)
		}
		return false
	})
	h.Fence(0)
	return &LinkedQ{
		h:                      h,
		pool:                   pool,
		headA:                  headA,
		tailA:                  tailA,
		nodeToPersistAndRetire: make([]paddedAddr, threads),
	}
}
