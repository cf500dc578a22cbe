package queues

import (
	"sort"
	"sync/atomic"

	"repro/internal/pmem"
	"repro/internal/ssmem"
)

// OptLinkedQ is the second-amendment queue of Sections 6.2-6.3 and
// Appendix C (Figures 5-6): one blocking persist per operation and
// zero accesses to explicitly flushed content, with persisted
// backward links.
//
// Recovery walks backward from a recorded tail candidate through the
// Persistent pred links, validating that indices decrease
// consecutively, until it reaches the node succeeding the dummy
// (head index + 1). Tail candidates come from per-thread lastEnqueues
// records: each thread keeps its last and penultimate enqueued node
// (address + index, both carrying a valid bit so a torn non-temporal
// write is detected). The penultimate record is what makes the rare
// all-threads-mid-enqueue crash recoverable (Section 6.2).
//
// Persistent node layout: [item, pred, index]; index is written last
// so, under Assumption 1, a non-stale index proves the whole line is
// non-stale.
type OptLinkedQ struct {
	h    *pmem.Heap
	pool *ssmem.Pool
	head atomic.Pointer[olNode]
	tail atomic.Pointer[olNode]
	// localBase anchors two persistent lines per thread: line 0 holds
	// the head index, line 1 the two lastEnqueues cells. Both are
	// written exclusively with non-temporal stores.
	localBase pmem.Addr
	per       []olThread
}

// olNode is the Volatile half of a node.
type olNode struct {
	item  uint64
	index uint64
	next  atomic.Pointer[olNode]
	pred  atomic.Pointer[olNode]
	pnode pmem.Addr
}

type olThread struct {
	nodeToRetire *olNode
	lastEnqIdx   int    // which lastEnqueues cell the next enqueue writes
	validBit     uint64 // valid bit for the next cell write
	_            [40]byte
}

// Persistent node layout.
const (
	olItem  = pmem.Addr(0)
	olPred  = pmem.Addr(8)
	olIndex = pmem.Addr(16)
)

const (
	olLinesPerThread = 2
	olIdxValidShift  = 63
)

// NewOptLinkedQ creates an empty OptLinkedQ.
func NewOptLinkedQ(h *pmem.Heap, threads int) *OptLinkedQ {
	q := &OptLinkedQ{
		h:    h,
		pool: createNodePool(h, threads),
		per:  make([]olThread, threads),
	}
	size := int64(threads) * olLinesPerThread * pmem.CacheLineBytes
	q.localBase = h.AllocRaw(0, size, pmem.CacheLineBytes)
	h.InitRange(0, q.localBase, size)
	h.Store(0, h.RootAddr(slotLocal), uint64(q.localBase))
	h.Persist(0, h.RootAddr(slotLocal))
	for t := range q.per {
		q.per[t].validBit = 1 // distinguishes first writes from zeroed cells
	}
	pn := q.pool.Alloc(0)
	dummy := &olNode{pnode: pn}
	q.head.Store(dummy)
	q.tail.Store(dummy)
	return q
}

func (q *OptLinkedQ) headIdxAddr(tid int) pmem.Addr {
	return q.localBase + pmem.Addr(tid*olLinesPerThread)*pmem.CacheLineBytes
}

func (q *OptLinkedQ) cellAddr(tid, cell int) pmem.Addr {
	return q.headIdxAddr(tid) + pmem.CacheLineBytes + pmem.Addr(cell*16)
}

// persistLocalHeadIdx writes tid's head index with movnti and fences.
func (q *OptLinkedQ) persistLocalHeadIdx(tid int, idx uint64) {
	q.h.NTStore(tid, q.headIdxAddr(tid), idx)
	q.h.Fence(tid)
}

// flushNotPersistedSuffix implements Figure 6 lines 153-159: walk the
// Volatile pred chain, flushing each node's Persistent half, until a
// nil pred marks the already-persisted prefix. All reads are from
// Volatile objects — no flushed line is ever accessed.
func (q *OptLinkedQ) flushNotPersistedSuffix(tid int, n *olNode) {
	for {
		pred := n.pred.Load()
		if pred == nil {
			return
		}
		q.h.Flush(tid, n.pnode)
		n = pred
	}
}

// recordLastEnqueue implements Figure 6 lines 164-169: record the
// newly enqueued Persistent node in the thread's alternating
// lastEnqueues cell with matching valid bits in the pointer's LSB and
// the index's MSB, using non-temporal stores.
func (q *OptLinkedQ) recordLastEnqueue(tid int, vn *olNode) {
	ld := &q.per[tid]
	i := ld.lastEnqIdx
	q.h.NTStore(tid, q.cellAddr(tid, i), uint64(vn.pnode)|ld.validBit)
	q.h.NTStore(tid, q.cellAddr(tid, i)+8, vn.index|ld.validBit<<olIdxValidShift)
	ld.validBit ^= uint64(i) // flip the valid bit after writing cell 1
	ld.lastEnqIdx ^= 1
}

// Enqueue appends v (Figure 6, lines 170-191). One fence, zero
// post-flush accesses.
func (q *OptLinkedQ) Enqueue(tid int, v uint64) {
	h := q.h
	q.pool.Enter(tid)
	defer q.pool.Exit(tid)
	pn := q.pool.Alloc(tid)
	vn := &olNode{item: v, pnode: pn}
	h.StoreOwned(tid, pn+olItem, v) // line 175
	for {
		tail := q.tail.Load()
		if next := tail.next.Load(); next == nil {
			vn.pred.Store(tail)                              // line 179
			vn.index = tail.index + 1                        // line 180
			h.StoreOwned(tid, pn+olPred, uint64(tail.pnode)) // line 181
			h.StoreOwned(tid, pn+olIndex, vn.index)          // line 182: index last
			if tail.next.CompareAndSwap(nil, vn) {           // line 183
				q.tail.CompareAndSwap(tail, vn) // line 184
				q.flushNotPersistedSuffix(tid, vn)
				q.recordLastEnqueue(tid, vn)
				h.Fence(tid) // line 187: the single fence
				// All nodes up to vn are persistent; cut the Volatile
				// backward link so later walks stop here (line 189).
				vn.pred.Store(nil)
				return
			}
		} else {
			q.tail.CompareAndSwap(tail, next) // line 191
		}
	}
}

// Dequeue removes the oldest item (Figure 5, lines 135-152). One
// fence, zero post-flush accesses.
func (q *OptLinkedQ) Dequeue(tid int) (uint64, bool) {
	q.pool.Enter(tid)
	defer q.pool.Exit(tid)
	for {
		head := q.head.Load()
		next := head.next.Load()
		if next == nil {
			q.persistLocalHeadIdx(tid, head.index) // lines 140-141
			return 0, false
		}
		if q.head.CompareAndSwap(head, next) {
			v := next.item
			q.persistLocalHeadIdx(tid, next.index) // lines 145-146
			// Make the old dummy unreachable by backward walks before
			// recycling it (line 147).
			next.pred.Store(nil)
			if r := q.per[tid].nodeToRetire; r != nil {
				q.pool.Retire(tid, r.pnode) // lines 148-150
			}
			q.per[tid].nodeToRetire = head // line 151
			return v, true
		}
	}
}

// olCandidate is one potential recovery tail gathered from a
// lastEnqueues cell.
type olCandidate struct {
	ptr pmem.Addr
	idx uint64
	tid int
	bit uint64 // the cell's valid bit
}

// RecoverOptLinkedQ rebuilds the queue after a crash (Appendix C.3).
func RecoverOptLinkedQ(h *pmem.Heap, threads int) *OptLinkedQ {
	localBase := pmem.Addr(h.Load(0, h.RootAddr(slotLocal)))
	headIdxAddr := func(t int) pmem.Addr {
		return localBase + pmem.Addr(t*olLinesPerThread)*pmem.CacheLineBytes
	}
	cellAddr := func(t, c int) pmem.Addr {
		return headIdxAddr(t) + pmem.CacheLineBytes + pmem.Addr(c*16)
	}

	var headIdx uint64
	for t := 0; t < threads; t++ {
		if v := h.Load(0, headIdxAddr(t)); v > headIdx {
			headIdx = v
		}
	}

	// Gather valid tail candidates: matching valid bits, non-nil
	// pointer, index beyond the recovered head.
	poolCfg := nodePoolConfig(threads, 1, 0)
	areas := ssmem.Areas(h, poolCfg)
	var cands []olCandidate
	cellOf := map[olCandidate][2]int{} // candidate -> (tid, cell)
	for t := 0; t < threads; t++ {
		for c := 0; c < 2; c++ {
			pw := h.Load(0, cellAddr(t, c))
			iw := h.Load(0, cellAddr(t, c)+8)
			vbP := pw & 1
			vbI := iw >> olIdxValidShift
			ptr := pmem.Addr(pw &^ 1)
			idx := iw &^ (1 << olIdxValidShift)
			if vbP == vbI && ptr != 0 && idx > headIdx {
				cand := olCandidate{ptr: ptr, idx: idx, tid: t, bit: vbP}
				cands = append(cands, cand)
				cellOf[cand] = [2]int{t, c}
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].idx > cands[j].idx })

	// Try candidates from the largest index down until a backward
	// walk with consecutive indices reaches headIdx+1.
	var chain []pmem.Addr // tail first
	var chosen *olCandidate
	for ci := range cands {
		c := cands[ci]
		var walk []pmem.Addr
		cur, expect := c.ptr, c.idx
		ok := true
		for {
			if !ssmem.ValidSlot(areas, nodeSize, cur) || h.Load(0, cur+olIndex) != expect {
				ok = false
				break
			}
			walk = append(walk, cur)
			if expect == headIdx+1 {
				break
			}
			cur = pmem.Addr(h.Load(0, cur+olPred))
			expect--
			if cur == 0 {
				ok = false
				break
			}
		}
		if ok {
			chain = walk
			chosen = &cands[ci]
			break
		}
	}

	liveSet := make(map[pmem.Addr]bool, len(chain))
	for _, a := range chain {
		liveSet[a] = true
	}
	pool := ssmem.RecoverPool(h, poolCfg, func(a pmem.Addr) bool {
		if liveSet[a] {
			return true
		}
		// Zero the index of stale mid-enqueue nodes so a future
		// recovery cannot mistake them for part of a chain.
		if h.Load(0, a+olIndex) > headIdx {
			h.Store(0, a+olIndex, 0)
			h.Flush(0, a)
		}
		return false
	})

	q := &OptLinkedQ{h: h, pool: pool, localBase: localBase, per: make([]olThread, threads)}
	dummyPn := pool.Alloc(0)
	h.Store(0, dummyPn+olIndex, headIdx)
	dummy := &olNode{index: headIdx, pnode: dummyPn}
	prev := dummy
	for i := len(chain) - 1; i >= 0; i-- { // chain is tail-first
		a := chain[i]
		vn := &olNode{
			item:  h.Load(0, a+olItem),
			index: h.Load(0, a+olIndex),
			pnode: a,
		}
		prev.next.Store(vn)
		if prev != dummy {
			vn.pred.Store(prev)
		}
		prev = vn
	}
	// The last Volatile object's pred stays nil: everything recovered
	// is persistent, so enqueue walks must stop at the tail.
	prev.pred.Store(nil)
	q.head.Store(dummy)
	q.tail.Store(prev)

	// Reset lastEnqueues cells (Appendix C.3): threads without a valid
	// record of the recovered tail get both cells zeroed, index 0 and
	// valid bit 1. The thread owning the recovered tail keeps that
	// cell; its next write to it must use the opposite valid bit.
	for t := 0; t < threads; t++ {
		ld := &q.per[t]
		if chosen != nil && chosen.tid == t {
			keep := cellOf[*chosen][1]
			other := keep ^ 1
			h.NTStore(0, cellAddr(t, other), 0)
			h.NTStore(0, cellAddr(t, other)+8, 0)
			ld.lastEnqIdx = other
			if keep == 0 {
				ld.validBit = chosen.bit
			} else {
				ld.validBit = chosen.bit ^ 1
			}
			continue
		}
		for c := 0; c < 2; c++ {
			h.NTStore(0, cellAddr(t, c), 0)
			h.NTStore(0, cellAddr(t, c)+8, 0)
		}
		ld.lastEnqIdx = 0
		ld.validBit = 1
	}
	h.Fence(0)
	return q
}
