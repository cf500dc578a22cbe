package queues

import (
	"repro/internal/pmem"
	"repro/internal/ssmem"
)

// TransformQ implements the two automatically transformed baselines of
// Section 10:
//
//   - IzraelevitzQ: MSQ with a flush and a fence after each access to
//     global memory (the Izraelevitz et al. transform that makes any
//     lock-free structure durably linearizable).
//   - NVTraverseQ: the NVTraverse variant. MSQ has an empty traversal
//     phase, so the only difference is that no blocking fence is
//     issued after a flush that follows a read or a CAS; writes keep
//     their fences, and a single fence before returning ensures the
//     completed operation is durable.
//
// Both flush the head, the tail's cache line and node lines on every
// operation, so both suffer heavily from post-flush accesses — which
// is why the paper finds their performance nearly identical despite
// the different fence counts.
type TransformQ struct {
	h            *pmem.Heap
	pool         *ssmem.Pool
	headA        pmem.Addr
	tailA        pmem.Addr
	nodeToRetire []paddedAddr
	// fenceAfterRead distinguishes IzraelevitzQ (true) from
	// NVTraverseQ (false).
	fenceAfterRead bool
}

// NewIzraelevitzQ creates an empty IzraelevitzQ.
func NewIzraelevitzQ(h *pmem.Heap, threads int) *TransformQ {
	return newTransformQ(h, threads, true)
}

// NewNVTraverseQ creates an empty NVTraverseQ.
func NewNVTraverseQ(h *pmem.Heap, threads int) *TransformQ {
	return newTransformQ(h, threads, false)
}

func newTransformQ(h *pmem.Heap, threads int, fenceAfterRead bool) *TransformQ {
	q := &TransformQ{
		h:              h,
		pool:           createNodePool(h, threads),
		headA:          h.RootAddr(slotHead),
		tailA:          h.RootAddr(slotTail),
		nodeToRetire:   make([]paddedAddr, threads),
		fenceAfterRead: fenceAfterRead,
	}
	dummy := q.pool.Alloc(0)
	h.Store(0, q.headA, uint64(dummy))
	h.Store(0, q.tailA, uint64(dummy))
	h.Flush(0, dummy)
	h.Flush(0, q.headA)
	h.Fence(0)
	return q
}

// RecoverIzraelevitzQ rebuilds an IzraelevitzQ from the NVRAM image.
// Every access was persisted, so recovery is the persisted-chain walk.
func RecoverIzraelevitzQ(h *pmem.Heap, threads int) *TransformQ {
	q := recoverTransformQ(h, threads)
	q.fenceAfterRead = true
	return q
}

// RecoverNVTraverseQ rebuilds an NVTraverseQ from the NVRAM image.
func RecoverNVTraverseQ(h *pmem.Heap, threads int) *TransformQ {
	return recoverTransformQ(h, threads)
}

func recoverTransformQ(h *pmem.Heap, threads int) *TransformQ {
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
	h.Store(0, h.RootAddr(slotTail), uint64(cur))
	return &TransformQ{
		h:            h,
		pool:         pool,
		headA:        headA,
		tailA:        h.RootAddr(slotTail),
		nodeToRetire: make([]paddedAddr, threads),
	}
}

// loadP is the transformed shared-memory load.
func (q *TransformQ) loadP(tid int, a pmem.Addr) uint64 {
	v := q.h.Load(tid, a)
	q.h.Flush(tid, a)
	if q.fenceAfterRead {
		q.h.Fence(tid)
	}
	return v
}

// storeP is the transformed shared-memory store.
func (q *TransformQ) storeP(tid int, a pmem.Addr, v uint64) {
	q.h.Store(tid, a, v)
	q.h.Flush(tid, a)
	q.h.Fence(tid)
}

// casP is the transformed CAS.
func (q *TransformQ) casP(tid int, a pmem.Addr, old, new uint64) bool {
	ok := q.h.CAS(tid, a, old, new)
	q.h.Flush(tid, a)
	if q.fenceAfterRead {
		q.h.Fence(tid)
	}
	return ok
}

// Enqueue appends v under the transform.
func (q *TransformQ) Enqueue(tid int, v uint64) {
	q.pool.Enter(tid)
	defer q.pool.Exit(tid)
	n := q.pool.Alloc(tid)
	q.storeP(tid, n+offItem, v)
	q.storeP(tid, n+offNext, 0)
	for {
		tail := pmem.Addr(q.loadP(tid, q.tailA))
		next := q.loadP(tid, tail+offNext)
		if next == 0 {
			if q.casP(tid, tail+offNext, 0, uint64(n)) {
				q.casP(tid, q.tailA, uint64(tail), uint64(n))
				if !q.fenceAfterRead {
					q.h.Fence(tid) // NVTraverse: persist before returning
				}
				return
			}
		} else {
			q.casP(tid, q.tailA, uint64(tail), next)
		}
	}
}

// Dequeue removes the oldest item under the transform.
func (q *TransformQ) Dequeue(tid int) (uint64, bool) {
	q.pool.Enter(tid)
	defer q.pool.Exit(tid)
	for {
		head := pmem.Addr(q.loadP(tid, q.headA))
		next := q.loadP(tid, head+offNext)
		if next == 0 {
			q.h.Fence(tid) // ensure prior flushes (head) are durable
			return 0, false
		}
		if q.casP(tid, q.headA, uint64(head), next) {
			v := q.loadP(tid, pmem.Addr(next)+offItem)
			q.h.Fence(tid) // persist the head advance before returning
			if r := q.nodeToRetire[tid].v; r != 0 {
				q.pool.Retire(tid, r)
			}
			q.nodeToRetire[tid].v = head
			return v, true
		}
	}
}
