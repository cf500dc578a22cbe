package queues

import (
	"repro/internal/pmem"
	"repro/internal/ssmem"
)

// DurableMSQFull is the original Friedman et al. durable queue
// *including* the mechanism the paper strips out of DurableMSQ for a
// level comparison: detectable execution — after a crash each thread
// can learn the outcome of the dequeue that was pending when the
// system died (Section 10: "It contains a mechanism for retrieving
// previously obtained results after a crash ... The extra mechanism
// can be easily added to the versions we propose (with the
// corresponding additional cost)").
//
// Protocol. Each thread owns a persistent result cell
// [state|seq, value] on a private cache line, written only by its
// owner. A dequeue (with per-thread sequence number seq):
//
//  1. persists cell = (pending, seq)                       — fence 1
//  2. claims the removed node by CAS-ing its claim word to
//     (seq, tid), then persists the claim together with
//     cell = (done, seq, value)                            — fence 2
//  3. advances and persists the head                       — fence 3
//
// Helping threads persist an observed claim before moving the head
// past it. Because operations are EBR-protected, a claimed node
// cannot be recycled while its claimer has not completed, so recovery
// can always resolve a (pending, seq) cell by scanning for the
// matching stamped claim: found — the dequeue linearized and its
// result is the node's item; absent — it never took effect.
//
// Cost: two fences per enqueue, three per successful dequeue, two per
// failing dequeue — which is exactly why the paper benchmarks the
// thinned DurableMSQ instead.
//
// Node layout: [item, next, claim, -]; claim = seq<<8 | tid+1.
type DurableMSQFull struct {
	h            *pmem.Heap
	pool         *ssmem.Pool
	headA        pmem.Addr
	tailA        pmem.Addr
	localBase    pmem.Addr
	deqSeq       []uint64 // volatile per-thread dequeue counters
	nodeToRetire []paddedAddr
}

const fqClaim = offW2

// Result-cell states (low byte of the cell's first word; the rest is
// the operation sequence number).
const (
	fqStateNever   = 0
	fqStatePending = 1
	fqStateDone    = 2
	fqStateEmpty   = 3
)

// NewDurableMSQFull creates an empty queue.
func NewDurableMSQFull(h *pmem.Heap, threads int) *DurableMSQFull {
	q := &DurableMSQFull{
		h:            h,
		pool:         newNodePool(h, threads),
		headA:        h.RootAddr(slotHead),
		tailA:        h.RootAddr(slotTail),
		deqSeq:       make([]uint64, threads),
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
	h.Flush(0, dummy)
	h.Flush(0, q.headA)
	h.Fence(0)
	return q
}

func (q *DurableMSQFull) cellAddr(tid int) pmem.Addr {
	return q.localBase + pmem.Addr(tid)*pmem.CacheLineBytes
}

// DequeueOutcome is the recovered outcome of a thread's most recent
// dequeue.
type DequeueOutcome struct {
	// State is one of "none", "pending-not-linearized", "value",
	// "empty".
	State string
	Value uint64
}

// RecoveredResults maps a thread id to the outcome of its most recent
// dequeue as reconstructed by recovery — the "previously obtained
// results" of Friedman et al.
type RecoveredResults map[int]DequeueOutcome

// RecoverDurableMSQFull rebuilds the queue and reports the recovered
// dequeue results.
func RecoverDurableMSQFull(h *pmem.Heap, threads int) (*DurableMSQFull, RecoveredResults) {
	headA := h.RootAddr(slotHead)
	localBase := pmem.Addr(h.Load(0, h.RootAddr(slotLocal)))
	cellAddr := func(t int) pmem.Addr { return localBase + pmem.Addr(t)*pmem.CacheLineBytes }

	results := RecoveredResults{}
	deqSeq := make([]uint64, threads)
	// pendingSeq[t] set if t's cell says its last dequeue was cut
	// before its claim (if any) was recorded in the cell.
	pendingClaim := map[uint64]int{} // stamped claim word -> tid
	for t := 0; t < threads; t++ {
		w := h.Load(0, cellAddr(t))
		seq := w >> 8
		deqSeq[t] = seq
		switch w & 0xff {
		case fqStateNever:
			results[t] = DequeueOutcome{State: "none"}
		case fqStatePending:
			// Resolved below by the claim scan.
			pendingClaim[seq<<8|uint64(t)+1] = t
			results[t] = DequeueOutcome{State: "pending-not-linearized"}
		case fqStateDone:
			results[t] = DequeueOutcome{State: "value", Value: h.Load(0, cellAddr(t)+8)}
		case fqStateEmpty:
			results[t] = DequeueOutcome{State: "empty"}
		}
	}

	// Skip the durable claimed prefix: claimed nodes were removed by
	// dequeues that are linearized (their claims are durable).
	cur := pmem.Addr(h.Load(0, headA))
	for {
		next := pmem.Addr(h.Load(0, cur+offNext))
		if next == 0 || h.Load(0, next+fqClaim) == 0 {
			break
		}
		cur = next
	}
	newHead := cur
	reach := map[pmem.Addr]bool{}
	for {
		reach[cur] = true
		next := pmem.Addr(h.Load(0, cur+offNext))
		if next == 0 {
			break
		}
		cur = next
	}
	pool := recoverNodePool(h, threads, func(a pmem.Addr) bool {
		if c := h.Load(0, a+fqClaim); c != 0 {
			if t, ok := pendingClaim[c]; ok {
				// The pending dequeue did claim: report its result.
				results[t] = DequeueOutcome{State: "value", Value: h.Load(0, a+offItem)}
				delete(pendingClaim, c)
			}
		}
		return reach[a]
	})
	h.Store(0, headA, uint64(newHead))
	h.Persist(0, headA)
	h.Store(0, h.RootAddr(slotTail), uint64(cur))
	return &DurableMSQFull{
		h:            h,
		pool:         pool,
		headA:        headA,
		tailA:        h.RootAddr(slotTail),
		localBase:    localBase,
		deqSeq:       deqSeq,
		nodeToRetire: make([]paddedAddr, threads),
	}, results
}

// Enqueue appends v; the new node is created unclaimed and persisted
// before it can become reachable.
func (q *DurableMSQFull) Enqueue(tid int, v uint64) {
	h := q.h
	q.pool.Enter(tid)
	defer q.pool.Exit(tid)
	n := q.pool.Alloc(tid)
	h.StoreOwned(tid, n+offItem, v)
	h.StoreOwned(tid, n+offNext, 0)
	h.StoreOwned(tid, n+fqClaim, 0)
	h.Flush(tid, n)
	h.Fence(tid)
	for {
		tail := pmem.Addr(h.Load(tid, q.tailA))
		next := h.Load(tid, tail+offNext)
		if next == 0 {
			if h.CAS(tid, tail+offNext, 0, uint64(n)) {
				h.Flush(tid, tail+offNext)
				h.Fence(tid)
				h.CAS(tid, q.tailA, uint64(tail), uint64(n))
				return
			}
		} else {
			h.Flush(tid, tail+offNext)
			h.Fence(tid)
			h.CAS(tid, q.tailA, uint64(tail), next)
		}
	}
}

// Dequeue removes the oldest item with a detectable, recoverable
// result.
func (q *DurableMSQFull) Dequeue(tid int) (uint64, bool) {
	h := q.h
	q.pool.Enter(tid)
	defer q.pool.Exit(tid)
	cell := q.cellAddr(tid)
	q.deqSeq[tid]++
	seq := q.deqSeq[tid]
	h.Store(tid, cell, seq<<8|fqStatePending)
	h.Flush(tid, cell)
	h.Fence(tid) // fence 1: the pending marker
	for {
		head := pmem.Addr(h.Load(tid, q.headA))
		next := h.Load(tid, head+offNext)
		if next == 0 {
			h.Store(tid, cell, seq<<8|fqStateEmpty)
			h.Flush(tid, cell)
			h.Flush(tid, q.headA)
			h.Fence(tid) // fence 2
			return 0, false
		}
		nAddr := pmem.Addr(next)
		claim := h.Load(tid, nAddr+fqClaim)
		if claim == 0 && h.CAS(tid, nAddr+fqClaim, 0, seq<<8|uint64(tid)+1) {
			v := h.Load(tid, nAddr+offItem)
			h.Store(tid, cell+8, v) // value before the sealing state word
			h.Store(tid, cell, seq<<8|fqStateDone)
			h.Flush(tid, nAddr)
			h.Flush(tid, cell)
			h.Fence(tid) // fence 2: claim + result durable together
			h.CAS(tid, q.headA, uint64(head), next)
			h.Flush(tid, q.headA)
			h.Fence(tid) // fence 3
			if r := q.nodeToRetire[tid].v; r != 0 {
				q.pool.Retire(tid, r)
			}
			q.nodeToRetire[tid].v = head
			return v, true
		}
		// The first node is claimed: persist the claim and help
		// advance the head past it.
		h.Flush(tid, nAddr)
		h.Fence(tid)
		h.CAS(tid, q.headA, uint64(head), next)
	}
}
