package queues

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/pmem"
	"repro/internal/ssmem"
)

// Core is the second-amendment queue of Section 6.1 and Appendix B
// (Figure 4): one blocking persist per operation and zero accesses to
// explicitly flushed content. It holds the only body of every protocol
// verb; OptUnlinkedQ (inline 8-byte words) and blobq.Queue (byte
// payloads spanning several cache lines, the paper's footnote 3) are
// its two instantiations and differ only in their payload Codec.
//
// Every logical node is split in two. The Persistent part — one cache
// line [index, linked, codec words...] plus, for multi-line payloads,
// one slot of the aux pool — lives in simulated NVRAM, is flushed
// exactly once by its enqueuer, and is never read again except by
// recovery. The Volatile part (the DRAM copy) holds the payload, the
// duplicated index, the next link and the addresses of the Persistent
// part, and serves all normal-path reads. As in the paper, both halves
// come from ssmem: the Volatile part is its slot's entry in a mirror
// kept per pool area, so it is reused exactly when ssmem reuses the
// slot, after the epoch grace period that protects the slot. Every verb
// that follows a node loaded from head or tail runs inside
// pool.Enter/Exit, so no node is reused under a thread that can still
// hold it, and the head/tail CASes stay ABA-safe with plain pointers.
// The global head index of UnlinkedQ becomes a per-thread head index
// written with non-temporal stores (Section 6.3), so dequeues never
// touch a flushed line either.
type Core[P any] struct {
	h     *pmem.Heap
	pool  *ssmem.Pool
	aux   *ssmem.Pool // payload lines retired alongside the node; nil for inline payloads
	codec Codec[P]
	head  atomic.Pointer[node[P]]
	tail  atomic.Pointer[node[P]]
	// localBase anchors one persistent cache line per thread holding
	// that thread's head index; recovery takes the maximum.
	localBase pmem.Addr
	per       []coreThread[P]
	// mirror holds one Volatile node per node-pool slot, one array per
	// area in ssmem.Pool.Locate's order. It only grows, and is replaced
	// rather than written in place, so lookups take no lock.
	mirror   atomic.Pointer[[]*[areaSlots]node[P]]
	mirrorMu sync.Mutex
	// plainStoreLocal replaces the movnti write of the local head
	// index with an ordinary store + flush (the pre-Section-6.3
	// design); ablation only.
	plainStoreLocal bool

	// Ack mode: dequeues become leases. A leased dequeue issues no
	// persist instructions at all; the dequeued node stays durable until
	// AckTo covers its index, and recovery resurrects everything beyond
	// the maximum per-thread *acked* index (the ackBase lines) instead of
	// everything beyond the dequeued frontier — so unacknowledged items
	// are redelivered after a crash and acknowledged items never
	// reappear.
	acked   bool
	ackBase pmem.Addr
	// ackMu guards the in-flight list and the ack frontier. It is
	// uncontended under the one-consumer-per-queue discipline package
	// broker maintains, but keeps concurrent dequeuers (the generic
	// harnesses drive them) coherent.
	ackMu      sync.Mutex
	inflight   []*node[P] // dequeued, unacknowledged; retired only once covered by a durable ack
	ackDurable uint64     // highest acked index covered by a completed fence
}

// Codec is the payload half of a Core: how a payload of type P is laid
// out in NVRAM. The protocol calls it at exactly two points — before a
// node is linked, and at recovery — so a codec can neither add a fence
// to an operation nor make the normal path read a flushed line.
type Codec[P any] interface {
	// Write runs on the enqueue path before the node is linked. It
	// stores p's persistent form into the codec words of the node line
	// pn (NodePayload and up; the core owns the index and linked words
	// and flushes the line itself) and, when the queue has an aux pool,
	// into the aux slot, issuing an asynchronous flush for every aux
	// line. Node-line words go through StoreOwned: the enqueuer owns the
	// line, and only recovery ever loads it. It must not fence — the
	// operation's single fence covers these flushes — and must not load
	// from NVRAM. It returns the volatile copy that serves every later
	// read of the payload.
	Write(h *pmem.Heap, tid int, pn, aux pmem.Addr, p P) P
	// Check runs only at recovery, once per linked node beyond the
	// consumption frontier, in slot order. It validates the persistent
	// form — ok false marks a torn enqueue, whose node line became
	// durable before its payload did; the operation was pending and is
	// discarded — and allocates nothing. aux is the node's aux slot, 0
	// if none.
	Check(h *pmem.Heap, pn pmem.Addr) (aux pmem.Addr, ok bool)
	// Read materializes the payload of a node Check accepted. Recovery
	// calls it once per resurrected node, in index order, so the copies
	// lie in memory in the order the queue will hand them out.
	Read(h *pmem.Heap, pn pmem.Addr) P
}

// node is the Volatile half of a node.
type node[P any] struct {
	payload P
	index   uint64
	next    atomic.Pointer[node[P]]
	// pline and auxLine locate the Persistent part as cache-line
	// numbers (auxLine 0: no aux slot). Line numbers rather than
	// addresses keep the word instantiation's node at 32 bytes — the
	// size it had before it shared a body with multi-line payloads; a
	// uint32 spans 256 GiB of heap, checked at construction.
	pline, auxLine uint32
}

// nodeAt returns the Volatile node of the node slot at a. tid's last
// area answers a steady run of allocations with one compare.
func (q *Core[P]) nodeAt(tid int, a pmem.Addr) *node[P] {
	t := &q.per[tid]
	if off := a - t.areaBase; off < areaSlots*nodeSize && t.area != nil {
		return &t.area[off/nodeSize]
	}
	area, slot := q.pool.Locate(a)
	t.area, t.areaBase = q.mirrorArea(area), a-pmem.Addr(slot*nodeSize)
	return &t.area[slot]
}

// mirrorArea returns the mirror array of the pool's area'th area,
// growing the mirror the first time an area is seen.
func (q *Core[P]) mirrorArea(area int) *[areaSlots]node[P] {
	if m := *q.mirror.Load(); area < len(m) {
		return m[area]
	}
	q.mirrorMu.Lock()
	defer q.mirrorMu.Unlock()
	m := *q.mirror.Load()
	for len(m) <= area {
		m = append(m, new([areaSlots]node[P]))
	}
	q.mirror.Store(&m)
	return m[area]
}

func lineOf(a pmem.Addr) uint32 { return uint32(a / pmem.CacheLineBytes) }

func lineAddr(l uint32) pmem.Addr { return pmem.Addr(l) * pmem.CacheLineBytes }

// coreThread keeps one thread's hot state; the field order (uint64s
// before the bools) plus the tail padding keep the struct at exactly
// two cache lines, so adjacent per-thread entries never share a line
// (false sharing would skew the persist-cost measurements).
type coreThread[P any] struct {
	// area caches the mirror array of the last area nodeAt looked up.
	area         *[areaSlots]node[P]
	areaBase     pmem.Addr
	nodeToRetire *node[P]
	// pendingRetire accumulates the nodes unlinked by an unfenced batch
	// dequeue; they are handed to the allocator only by CompleteBatch,
	// after the caller's fence made the covering head index durable (a
	// slot reused and overwritten before that fence could lose a message
	// whose dequeue never became durable). Ack mode retires nothing
	// before CompleteAck and has the buffer free: there it carries a
	// leased dequeue's taken nodes to the in-flight list, so ackMu is
	// held for one append and not across the CAS loop.
	pendingRetire []*node[P]
	// lastPersisted is the head index this thread most recently made
	// durable (NTStore + completed fence) in its local line. A failing
	// dequeue that observes the same index again elides its persist:
	// re-persisting an already-durable value cannot change what recovery
	// sees, so the empty response stays durably linearized for free.
	lastPersisted uint64
	// pendingIdx is the head index NTStored by an unfenced batch dequeue
	// but not yet covered by a fence; promoted to lastPersisted by
	// CompleteBatch.
	pendingIdx uint64
	// pendingAckIdx is the acked index NTStored into this thread's ack
	// line by an unfenced AckToUnfenced but not yet covered by a fence;
	// promoted (and its in-flight nodes retired) by CompleteAck.
	pendingAckIdx   uint64
	pendingDirty    bool
	pendingAckDirty bool
	_               [54]byte
}

// Persistent node line layout: the core's two words, then the codec's.
const (
	nodeIndex  = pmem.Addr(0)
	nodeLinked = pmem.Addr(8)
	// NodePayload is the first codec-owned word of the node line.
	NodePayload = pmem.Addr(16)
)

// NewCore creates an empty queue, charging the construction persists
// (pool registries, local-line region, dummy node) to tid. Fences are
// per-thread: a queue created while other threads run — a broker topic
// created on a live system — must construct under a tid owned by the
// constructing goroutine, or its fences would race another goroutine's
// pending-persist state. aux, when non-nil, configures the second pool
// whose slots carry the payload lines; acked selects ack mode (see the
// Core fields), in which durability of a delivery is the caller's
// concern, e.g. a broker lease record.
func NewCore[P any](h *pmem.Heap, threads, tid int, acked bool, codec Codec[P], aux *ssmem.Config) *Core[P] {
	if h.Bytes() > int64(pmem.CacheLineBytes)<<32 {
		panic("queues: heap too large for 32-bit node line numbers")
	}
	q := &Core[P]{
		h:     h,
		pool:  createNodePoolAs(h, threads, tid),
		codec: codec,
		per:   make([]coreThread[P], threads),
		acked: acked,
	}
	q.mirror.Store(new([]*[areaSlots]node[P]))
	if aux != nil {
		q.aux = ssmem.NewPool(h, *aux)
	}
	size := int64(threads) * pmem.CacheLineBytes
	q.localBase = h.AllocRaw(tid, size, pmem.CacheLineBytes)
	h.InitRange(tid, q.localBase, size)
	h.Store(tid, h.RootAddr(slotLocal), uint64(q.localBase))
	h.Persist(tid, h.RootAddr(slotLocal))
	if acked {
		q.ackBase = h.AllocRaw(tid, size, pmem.CacheLineBytes)
		h.InitRange(tid, q.ackBase, size)
		h.Store(tid, h.RootAddr(slotAck), uint64(q.ackBase))
		h.Persist(tid, h.RootAddr(slotAck))
	}

	pn := q.pool.Alloc(tid) // fresh slot: zero index, unset linked
	dummy := q.nodeAt(tid, pn)
	dummy.pline = lineOf(pn)
	q.head.Store(dummy)
	q.tail.Store(dummy)
	return q
}

// Acked reports whether the queue is in acknowledgment mode.
func (q *Core[P]) Acked() bool { return q.acked }

// PoolStats reports the NVRAM footprint of the queue's node pool and,
// zero without one, of its aux pool (see ssmem.Pool.Stats).
func (q *Core[P]) PoolStats() (nodes, aux ssmem.Stats) {
	if q.aux != nil {
		aux = q.aux.Stats()
	}
	return q.pool.Stats(), aux
}

// retire hands n — its node line, and with it its mirror entry, and its
// aux slot — back to the allocators.
func (q *Core[P]) retire(tid int, n *node[P]) {
	q.pool.Retire(tid, lineAddr(n.pline))
	if n.auxLine != 0 {
		q.aux.Retire(tid, lineAddr(n.auxLine))
	}
}

// DequeueLeased removes up to max items without issuing a single
// persist instruction: the dequeued nodes stay durable in NVRAM and
// will be resurrected by recovery until an acknowledgment covers them,
// so across a crash the items are redelivered rather than lost. idxs
// are the items' queue indices (contiguous and ascending under the
// one-consumer-per-queue discipline); pass the last one to AckTo once
// the items are processed. Ack mode only.
func (q *Core[P]) DequeueLeased(tid, max int) (ps []P, idxs []uint64) {
	n := batchRoom(max)
	return q.DequeueLeasedAppend(tid, max, make([]P, 0, n), make([]uint64, 0, n))
}

// DequeueLeasedAppend is DequeueLeased appending to ps and idxs, which
// it returns: a consumer that hands it the same two buffers every call
// allocates nothing.
func (q *Core[P]) DequeueLeasedAppend(tid, max int, ps []P, idxs []uint64) ([]P, []uint64) {
	if !q.acked {
		panic("queues: DequeueLeased on a queue without ack mode")
	}
	if max <= 0 {
		return ps, idxs
	}
	q.pool.Enter(tid)
	defer q.pool.Exit(tid)
	t := &q.per[tid]
	for len(t.pendingRetire) < max {
		taken, _, ok := q.dequeueOne(tid)
		if !ok {
			break
		}
		// The unlinked previous head is not retired here: it entered the
		// in-flight list when it was dequeued itself (or it is the
		// original dummy, which is simply abandoned). Retirement happens
		// in CompleteAck, once a durable ack covers the node's index —
		// only then can a reused slot's stale contents (linked flag and
		// index surviving a crash mid-reuse) be filtered by recovery —
		// and the head has moved past it.
		ps = append(ps, taken.payload)
		idxs = append(idxs, taken.index)
		t.pendingRetire = append(t.pendingRetire, taken)
	}
	if len(t.pendingRetire) > 0 {
		q.ackMu.Lock()
		q.inflight = append(q.inflight, t.pendingRetire...)
		q.ackMu.Unlock()
		clear(t.pendingRetire) // see CompleteBatch
		t.pendingRetire = t.pendingRetire[:0]
	}
	return ps, idxs
}

// batchRoom is the capacity the allocating batch dequeues start from:
// one allocation for a batch instead of the four an append-grown batch
// of eight takes, bounded so that a caller asking for "everything" does
// not pay for it on a nearly empty queue.
func batchRoom(n int) int { return min(max(n, 0), 64) }

// AckToUnfenced acknowledges every dequeued item with index <= idx:
// one NTStore of idx into tid's ack line. dirty reports whether a
// covering Fence (followed by CompleteAck) is still owed; a redundant
// ack — idx already durably acknowledged — issues nothing and costs
// nothing. Sound for the same reason as the head-index amortization:
// per-thread ack indices are monotone and recovery takes the maximum,
// so the last index covers every earlier one.
func (q *Core[P]) AckToUnfenced(tid int, idx uint64) (dirty bool) {
	if !q.acked {
		panic("queues: AckToUnfenced on a queue without ack mode")
	}
	t := &q.per[tid]
	q.ackMu.Lock()
	redundant := idx <= q.ackDurable
	q.ackMu.Unlock()
	if redundant {
		return t.pendingAckDirty
	}
	// The soundness argument requires the ack line to be monotone: an
	// unfenced window that already NTStored a covering index must not
	// overwrite it with a lower one (CompleteAck would still promote
	// and retire to the higher index, and a crash would then resurrect
	// slots the durable line no longer filters).
	if t.pendingAckDirty && idx <= t.pendingAckIdx {
		return true
	}
	q.h.NTStore(tid, q.ackBase+pmem.Addr(tid)*pmem.CacheLineBytes, idx)
	t.pendingAckIdx = idx
	t.pendingAckDirty = true
	return true
}

// CompleteAck finishes an unfenced acknowledgment after the caller's
// fence: it promotes the acked frontier and retires every in-flight
// node the now-durable ack covers. Slot reuse strictly after the
// covering fence keeps recovery sound: a crash while a reused slot is
// half-written can at worst resurrect the slot's stale contents, whose
// index is <= the durable acked frontier and is therefore filtered.
func (q *Core[P]) CompleteAck(tid int) {
	t := &q.per[tid]
	if !t.pendingAckDirty {
		return
	}
	t.pendingAckDirty = false
	q.ackMu.Lock()
	if t.pendingAckIdx > q.ackDurable {
		q.ackDurable = t.pendingAckIdx
	}
	// The head stays: its mirror entry is the queue's dummy until a
	// dequeue moves past it, and a later CompleteAck retires it.
	head := q.head.Load()
	live := q.inflight[:0]
	for _, n := range q.inflight {
		if n.index <= q.ackDurable && n != head {
			var zero P
			n.payload = zero // the slot may wait a while for reuse
			q.retire(tid, n)
		} else {
			live = append(live, n)
		}
	}
	clear(q.inflight[len(live):]) // see CompleteBatch
	q.inflight = live
	q.ackMu.Unlock()
}

// AckTo is the fenced form of AckToUnfenced: one NTStore plus one
// blocking persist acknowledges the whole batch of items up to idx
// (zero of either when the ack is redundant).
func (q *Core[P]) AckTo(tid int, idx uint64) {
	if q.AckToUnfenced(tid, idx) {
		q.h.Fence(tid)
	}
	q.CompleteAck(tid)
}

// AckedTo reports the durably acknowledged index frontier.
func (q *Core[P]) AckedTo() uint64 {
	q.ackMu.Lock()
	defer q.ackMu.Unlock()
	return q.ackDurable
}

// Unacked snapshots the dequeued-but-unacknowledged items in index
// order — the redelivery set a lease takeover hands to a new consumer.
// Call only while no dequeue or ack runs on this queue.
func (q *Core[P]) Unacked() (ps []P, idxs []uint64) {
	q.ackMu.Lock()
	defer q.ackMu.Unlock()
	var ns []*node[P]
	for _, n := range q.inflight {
		if n.index > q.ackDurable { // not the acknowledged head CompleteAck kept
			ns = append(ns, n)
		}
	}
	slices.SortFunc(ns, func(a, b *node[P]) int { return cmp.Compare(a.index, b.index) })
	for _, n := range ns {
		ps = append(ps, n.payload)
		idxs = append(idxs, n.index)
	}
	return ps, idxs
}

// writeLocalHeadIdx issues the (asynchronous) write of idx into tid's
// persistent local line; a subsequent Fence by the same thread makes
// it durable.
func (q *Core[P]) writeLocalHeadIdx(tid int, idx uint64) {
	a := q.localBase + pmem.Addr(tid)*pmem.CacheLineBytes
	if q.plainStoreLocal {
		q.h.Store(tid, a, idx) // pays NVM read latency once flushed
		q.h.Flush(tid, a)
	} else {
		q.h.NTStore(tid, a, idx) // movnti: bypasses the cache entirely
	}
}

// enqueueOne runs the enqueue protocol of Figure 4 (lines 107-121) up
// to but not including the blocking fence: allocate, write the payload
// and index, link via CAS, set the linked flag and issue the
// asynchronous flush. It returns the tail observed at link time and the
// new node so the caller can order its fence and tail advance. Every
// node-line word goes through StoreOwned, linked=1 after the CAS too:
// no normal-path reader loads a node line, and the slot reaches another
// tid only through ssmem's epochs, after this thread's pool.Exit.
func (q *Core[P]) enqueueOne(tid int, p P) (tail, vn *node[P]) {
	h := q.h
	pn := q.pool.Alloc(tid)
	var aux pmem.Addr
	if q.aux != nil {
		aux = q.aux.Alloc(tid)
	}
	// linked is cleared before the index is written (line 113): a reused
	// slot's stale set flag must never vouch for the new index.
	h.StoreOwned(tid, pn+nodeLinked, 0)
	// The slot's mirror entry is overwritten whole, which also resets the
	// link that the linking CAS below publishes.
	vn = q.nodeAt(tid, pn)
	*vn = node[P]{payload: q.codec.Write(h, tid, pn, aux, p), pline: lineOf(pn), auxLine: lineOf(aux)} // line 112
	for {
		tail = q.tail.Load()
		if next := tail.next.Load(); next == nil {
			idx := tail.index + 1                  // volatile read (line 117)
			h.StoreOwned(tid, pn+nodeIndex, idx)   // Persistent copy
			vn.index = idx                         // Volatile copy (line 118)
			if tail.next.CompareAndSwap(nil, vn) { // line 119
				h.StoreOwned(tid, pn+nodeLinked, 1) // line 120
				h.Flush(tid, pn)                    // line 121
				return tail, vn
			}
		} else {
			q.tail.CompareAndSwap(tail, next) // line 124
		}
	}
}

// Enqueue appends p (Figure 4, lines 107-124): the one-element batch.
// One fence — covering the node line and any payload lines together —
// and zero post-flush accesses: the tail's index is read from the
// Volatile object, never from the flushed Persistent line.
func (q *Core[P]) Enqueue(tid int, p P) {
	q.EnqueueBatch(tid, []P{p})
}

// EnqueueBatch appends ps in order, riding a single fence for the
// whole batch: every node is written, linked and asynchronously
// flushed exactly as in Enqueue, but the blocking SFENCE is issued
// once at the end. This amortization is sound because the algorithm
// already tolerates an enqueuer whose node is linked but not yet
// durable — any helper may advance the tail past it and append (and
// fence) later nodes; recovery sorts surviving nodes by index and
// accepts gaps, dropping exactly the unacknowledged enqueues. The
// batch is acknowledged as a whole when EnqueueBatch returns: at that
// point all of its nodes are durable.
func (q *Core[P]) EnqueueBatch(tid int, ps []P) {
	if len(ps) == 0 {
		return
	}
	q.pool.Enter(tid)
	for _, p := range ps {
		tail, vn := q.enqueueOne(tid, p)
		q.tail.CompareAndSwap(tail, vn)
	}
	q.pool.Exit(tid) // before the fence, which holds no node: reclamation need not wait on it
	q.h.Fence(tid)   // the batch's single blocking persist
}

// dequeueOne runs the dequeue protocol of Figure 4 (lines 90-99) up to
// but not including the blocking persist: CAS the head past the oldest
// node. On success it returns the node holding the dequeued item (now
// the queue's dummy) and the unlinked previous head, whose retirement
// the caller must defer until a covering head index is durable. On an
// empty observation ok is false and taken is the observed head, whose
// index the caller persists (or elides) to durably linearize the empty
// response.
//
// The tail is helped off the unlinked head before it is returned, so
// once retired the node is reachable from neither end; threads inside
// pool.Enter/Exit that loaded it earlier exit before ssmem reuses its
// slot and, with the slot, its mirror entry.
func (q *Core[P]) dequeueOne(tid int) (taken, old *node[P], ok bool) {
	for {
		head := q.head.Load()
		next := head.next.Load()
		if next == nil {
			return head, nil, false
		}
		if q.head.CompareAndSwap(head, next) {
			if q.tail.Load() == head {
				q.tail.CompareAndSwap(head, next)
			}
			return next, head, true
		}
	}
}

// retireAfterPersist hands old to the deferred-retirement cell (Figure
// 4, lines 102-105), releasing the previously deferred node. Call only
// after a fence covering old's dequeue.
func (q *Core[P]) retireAfterPersist(tid int, old *node[P]) {
	if r := q.per[tid].nodeToRetire; r != nil {
		q.retire(tid, r)
	}
	q.per[tid].nodeToRetire = old
}

// Dequeue removes the oldest item (Figure 4, lines 90-106): the
// one-element batch dequeue, so the fence accounting — one NTStore +
// one fence on success, full elision on an already-durable empty
// observation — lives in DequeueBatchAppend alone. One fence, zero
// post-flush accesses: the payload is served from the Volatile copy.
func (q *Core[P]) Dequeue(tid int) (p P, ok bool) {
	var buf [1]P // the batch of one stays on this frame
	ps := q.dequeueFenced(tid, 1, buf[:0])
	if len(ps) == 0 {
		return p, false
	}
	return ps[0], true
}

// DequeueBatch removes up to max items in FIFO order, riding a single
// blocking persist for the whole batch: every dequeue CASes the head
// exactly as in Dequeue, but only the final head index is written to
// this thread's local line (one NTStore) and fenced once. The
// amortization is sound because the per-thread head index is monotone
// — recovery takes the maximum over all local lines, so persisting the
// last index covers every earlier one. The batch is acknowledged as a
// whole when DequeueBatch returns, exactly dual to EnqueueBatch: a
// crash mid-batch redelivers (or, if the unfenced NTStore happened to
// land, consumes) only items of the unacknowledged window. An empty
// result means the queue was observed empty.
func (q *Core[P]) DequeueBatch(tid, max int) []P {
	return q.dequeueFenced(tid, max, make([]P, 0, batchRoom(max)))
}

func (q *Core[P]) dequeueFenced(tid, max int, dst []P) []P {
	dst, dirty := q.DequeueBatchAppend(tid, max, dst)
	if dirty {
		q.h.Fence(tid) // the batch's single blocking persist
		q.CompleteBatch(tid)
	}
	return dst
}

// DequeueBatchUnfenced is DequeueBatch with the blocking persist left
// to the caller, so several queues sharing one heap can ride a single
// fence (package broker drains many shards per poll this way; a fence
// is per-thread and covers all of that thread's outstanding NTStores
// regardless of which line they target). It performs the CASes and the
// one NTStore of the final head index, but neither fences nor retires.
// dirty reports whether an NTStore is outstanding; if so the caller
// must issue a Fence for tid on the same heap and then call
// CompleteBatch before treating the items (or the empty observation)
// as durable. No other operation may run on this queue with this tid
// in between.
//
// An ack-mode queue has no head index to defer: the batch is leased and
// acknowledged on the spot, riding the ack's own fence, and dirty is
// false (amortized acked consumption is DequeueLeased + AckToUnfenced).
// An empty observation issues nothing — emptiness is durable exactly
// when the dequeues that emptied the queue are acknowledged.
func (q *Core[P]) DequeueBatchUnfenced(tid, max int) (ps []P, dirty bool) {
	return q.DequeueBatchAppend(tid, max, make([]P, 0, batchRoom(max)))
}

// DequeueBatchAppend is DequeueBatchUnfenced appending to dst, which it
// returns: the one body of every plain dequeue. A consumer that hands
// it the same buffer every call allocates nothing.
func (q *Core[P]) DequeueBatchAppend(tid, max int, dst []P) (out []P, dirty bool) {
	if q.acked {
		// Cold: amortized acked consumption never comes this way, so the
		// indices may allocate.
		dst, idxs := q.DequeueLeasedAppend(tid, max, dst, nil)
		if len(idxs) > 0 {
			q.AckTo(tid, idxs[len(idxs)-1])
		}
		return dst, false
	}
	t := &q.per[tid]
	if max <= 0 {
		return dst, t.pendingDirty
	}
	q.pool.Enter(tid)
	defer q.pool.Exit(tid)
	var last *node[P]
	for n := 0; n < max; n++ {
		taken, old, ok := q.dequeueOne(tid)
		if !ok {
			if last == nil {
				// Pure empty observation: persist the observed index
				// unless it is already durable or already NTStored.
				if taken.index > t.lastPersisted && !(t.pendingDirty && taken.index <= t.pendingIdx) {
					q.writeLocalHeadIdx(tid, taken.index)
					t.pendingIdx = taken.index
					t.pendingDirty = true
				}
				return dst, t.pendingDirty
			}
			break
		}
		// Only the winner of the head CAS reads a payload, so it may drop
		// it too: the node is the queue's dummy from here on.
		var zero P
		dst, taken.payload = append(dst, taken.payload), zero
		t.pendingRetire = append(t.pendingRetire, old)
		last = taken
	}
	q.writeLocalHeadIdx(tid, last.index) // one NTStore covers the batch
	t.pendingIdx = last.index
	t.pendingDirty = true
	return dst, true
}

// CompleteBatch finishes an unfenced batch dequeue after the caller's
// fence: it promotes the pending head index to lastPersisted and
// retires the unlinked nodes in one sweep (keeping the newest in the
// deferred cell, as in Dequeue).
func (q *Core[P]) CompleteBatch(tid int) {
	t := &q.per[tid]
	if t.pendingDirty {
		t.lastPersisted = t.pendingIdx
		t.pendingDirty = false
	}
	for _, old := range t.pendingRetire {
		q.retireAfterPersist(tid, old)
	}
	// Cleared, not just truncated: a pointer left in the backing array
	// by one wide batch would keep its node's chunk alive for as long
	// as later batches are narrower.
	clear(t.pendingRetire)
	t.pendingRetire = t.pendingRetire[:0]
}

// RecoverCore rebuilds the queue after a crash (Section 6.1). The
// consumption frontier is the maximum of the per-thread head indices —
// or, in ack mode, of the per-thread *acked* indices, so items that
// were leased out and possibly delivered but never acknowledged are
// resurrected for redelivery and acknowledged items never reappear.
// Every Persistent object marked linked with a larger index whose
// payload the codec validates is resurrected: its slot's mirror entry is
// filled in and chained in index order. acked must match the
// mode the queue was created with: a mismatch is refused, not
// mis-scanned (plain recovery of an acked queue would take the
// never-written head lines as the frontier and resurrect acknowledged
// items). aux must be the NewCore aux configuration.
func RecoverCore[P any](h *pmem.Heap, threads int, acked bool, codec Codec[P], aux *ssmem.Config) *Core[P] {
	ackBase := pmem.Addr(h.Load(0, h.RootAddr(slotAck)))
	if acked != (ackBase != 0) {
		panic(fmt.Sprintf("queues: recovery with acked=%v, but the heap holds an acked=%v queue", acked, ackBase != 0))
	}
	q := &Core[P]{
		h:         h,
		codec:     codec,
		localBase: pmem.Addr(h.Load(0, h.RootAddr(slotLocal))),
		per:       make([]coreThread[P], threads),
		acked:     acked,
		ackBase:   ackBase,
	}
	q.mirror.Store(new([]*[areaSlots]node[P]))
	var frontier uint64
	for t := 0; t < threads; t++ {
		line := pmem.Addr(t) * pmem.CacheLineBytes
		if acked {
			frontier = max(frontier, h.Load(0, ackBase+line))
			continue
		}
		// Seed the elision cache with what this thread provably
		// persisted before the crash; its next failing dequeue at a
		// higher index will persist again.
		q.per[t].lastPersisted = h.Load(0, q.localBase+line)
		frontier = max(frontier, q.per[t].lastPersisted)
	}
	q.ackDurable = frontier // read in ack mode only

	// The scan meets nodes in slot order, which is index order only
	// until slots are recycled. It therefore collects one compact key
	// per resurrected node — in fixed-size runs, so that collecting
	// never copies — and the keys are sorted, unless the scan happened
	// to be in order, before anything is materialized: the codec then
	// makes its payload copies in index order, so the drain that follows
	// recovery reads them walking memory forward, whatever order the
	// allocator left the slots, and with them the mirror entries, in.
	type key struct {
		index          uint64
		pline, auxLine uint32
	}
	const runLen = 4096
	var runs [][]key
	var last uint64
	sorted := true
	q.pool = recoverNodePool(h, threads, func(a pmem.Addr) bool {
		if h.Load(0, a+nodeLinked) != 1 {
			return false
		}
		idx := h.Load(0, a+nodeIndex)
		if idx <= frontier {
			return false
		}
		auxAddr, ok := codec.Check(h, a)
		if !ok {
			return false
		}
		if n := len(runs); n == 0 || len(runs[n-1]) == runLen {
			runs = append(runs, make([]key, 0, runLen))
		}
		r := &runs[len(runs)-1]
		*r = append(*r, key{idx, lineOf(a), lineOf(auxAddr)})
		sorted = sorted && last <= idx
		last = idx
		return true
	})
	keys := slices.Concat(runs...)
	if !sorted {
		slices.SortFunc(keys, func(a, b key) int { return cmp.Compare(a.index, b.index) })
	}
	for i := 1; i < len(keys); i++ {
		if keys[i].index == keys[i-1].index {
			panic(fmt.Sprintf("queues: recovery found two live nodes with index %d", keys[i].index))
		}
	}
	if aux != nil {
		liveAux := make(map[uint32]bool, len(keys))
		for _, k := range keys {
			liveAux[k.auxLine] = true
		}
		q.aux = ssmem.RecoverPool(h, *aux, func(a pmem.Addr) bool { return liveAux[lineOf(a)] })
	}

	dummyPn := q.pool.Alloc(0)
	h.Store(0, dummyPn+nodeLinked, 0)
	h.Store(0, dummyPn+nodeIndex, frontier)
	prev := q.nodeAt(0, dummyPn)
	*prev = node[P]{index: frontier, pline: lineOf(dummyPn)}
	q.head.Store(prev)
	for _, k := range keys {
		n := q.nodeAt(0, lineAddr(k.pline))
		*n = node[P]{payload: codec.Read(h, lineAddr(k.pline)), index: k.index, pline: k.pline, auxLine: k.auxLine}
		prev.next.Store(n)
		prev = n
	}
	q.tail.Store(prev)
	return q
}
