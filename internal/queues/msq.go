package queues

import (
	"repro/internal/pmem"
	"repro/internal/ssmem"
)

// MSQ is the classic volatile Michael-Scott lock-free FIFO queue
// (Section 3.1), implemented on the simulated heap but issuing no
// persist instructions. It is not durable; it serves as the
// non-persistent performance reference and as the base the durable
// queues amend.
//
// Node layout: [item, next, -, -]. The queue is a singly linked list
// with a dummy head node; Head points at the dummy, Tail at the last
// node (possibly lagging by one).
type MSQ struct {
	h     *pmem.Heap
	pool  *ssmem.Pool
	headA pmem.Addr
	tailA pmem.Addr
	// nodeToRetire delays reclamation of the previous dummy by one
	// successful dequeue per thread, mirroring the durable queues'
	// reclamation discipline.
	nodeToRetire []paddedAddr
}

// NewMSQ creates an empty volatile MSQ for the given thread count.
func NewMSQ(h *pmem.Heap, threads int) *MSQ {
	q := &MSQ{
		h:            h,
		pool:         newNodePool(h, threads),
		headA:        h.RootAddr(slotHead),
		tailA:        h.RootAddr(slotTail),
		nodeToRetire: make([]paddedAddr, threads),
	}
	dummy := q.pool.Alloc(0)
	h.Store(0, q.headA, uint64(dummy))
	h.Store(0, q.tailA, uint64(dummy))
	return q
}

// Enqueue appends v.
func (q *MSQ) Enqueue(tid int, v uint64) {
	h := q.h
	q.pool.Enter(tid)
	defer q.pool.Exit(tid)
	n := q.pool.Alloc(tid)
	h.StoreOwned(tid, n+offItem, v)
	h.StoreOwned(tid, n+offNext, 0)
	for {
		tail := pmem.Addr(h.Load(tid, q.tailA))
		next := h.Load(tid, tail+offNext)
		if next == 0 {
			if h.CAS(tid, tail+offNext, 0, uint64(n)) {
				h.CAS(tid, q.tailA, uint64(tail), uint64(n))
				return
			}
		} else {
			h.CAS(tid, q.tailA, uint64(tail), next)
		}
	}
}

// Dequeue removes the oldest item.
func (q *MSQ) Dequeue(tid int) (uint64, bool) {
	h := q.h
	q.pool.Enter(tid)
	defer q.pool.Exit(tid)
	for {
		head := pmem.Addr(h.Load(tid, q.headA))
		next := h.Load(tid, head+offNext)
		if next == 0 {
			return 0, false
		}
		if h.CAS(tid, q.headA, uint64(head), next) {
			v := h.Load(tid, pmem.Addr(next)+offItem)
			if r := q.nodeToRetire[tid].v; r != 0 {
				q.pool.Retire(tid, r)
			}
			q.nodeToRetire[tid].v = head
			return v, true
		}
	}
}
