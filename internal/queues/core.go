package queues

import (
	"cmp"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

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
// Every logical node is split in two. The Persistent part — one slot
// of the node pool: the node line [index, linked, codec words...],
// then, for multi-line payloads, the codec's payload lines — lives in
// simulated NVRAM, is flushed exactly once by its enqueuer, and is
// never read again except by recovery. The Volatile part (the DRAM
// copy) holds the payload, the duplicated index, the next link and the
// address of the Persistent part, and serves all normal-path reads. As in the paper, both halves
// come from ssmem: the Volatile part is its slot's entry in a mirror
// kept per pool area in pages of pageNodes nodes, so it is reused
// exactly when ssmem reuses the slot, after the epoch grace period that
// protects the slot. Every verb that follows a node loaded from head or
// tail runs inside pool.Enter/Exit, so no node is reused under a thread
// that can still hold it, and the head/tail CASes stay ABA-safe with
// plain pointers.
// The global head index of UnlinkedQ becomes a per-thread head index
// written with non-temporal stores (Section 6.3), so dequeues never
// touch a flushed line either.
type Core[P any] struct {
	h     *pmem.Heap
	pool  *ssmem.Pool
	codec Codec[P]
	// lines is the node slot's line count: the node line and the
	// codec's payload lines; pageBytes is a mirror page's span of them.
	lines     int
	pageBytes pmem.Addr
	head      atomic.Pointer[node[P]]
	tail      atomic.Pointer[node[P]]
	// localBase anchors one persistent cache line per thread holding
	// that thread's head index; recovery takes the maximum.
	localBase pmem.Addr
	per       []coreThread[P]
	// mirror holds one Volatile node per node-pool slot handed out, one
	// page table per area in ssmem.Pool.Locate's order. The list only
	// grows, and is replaced rather than written in place, and a page is
	// published by a CAS into its table, so lookups take no lock. Pages
	// never move and are never freed, so a node pointer stays valid for
	// the queue's life.
	mirror   atomic.Pointer[[]*pageTable[P]]
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
	// and flushes the line itself) and into the slot's payload lines,
	// the lines after pn, issuing an asynchronous flush for each of
	// those. The enqueuer owns the whole slot, and only recovery ever
	// loads it, so node-line words go through StoreOwned and payload
	// lines through WriteBack. It must not fence — the operation's
	// single fence covers these flushes — and must not load from NVRAM.
	// It returns the volatile copy that serves every later read of the
	// payload.
	Write(h *pmem.Heap, tid int, pn pmem.Addr, p P) P
	// Check runs only at recovery, once per linked node beyond the
	// consumption frontier, in slot order. It validates the persistent
	// form in the node's slot — false marks a torn enqueue, whose node
	// line became durable before its payload did; the operation was
	// pending and is discarded — and allocates nothing.
	Check(h *pmem.Heap, pn pmem.Addr) bool
	// Read materializes the payload of a node Check accepted. Recovery
	// calls it once per resurrected node, in index order, so the copies
	// lie in memory in the order the queue will hand them out.
	Read(h *pmem.Heap, pn pmem.Addr) P
}

// node is the Volatile half of a node.
type node[P any] struct {
	payload P
	index   uint64
	// next is the link. Its enqueuer sets it with a plain store while the
	// node is still private — in its batch's chain, before the linking CAS
	// publishes it; once published it is read by loadNext and written by
	// casNext only.
	next *node[P]
	// pline locates the Persistent part as a cache-line number. A line
	// number rather than an address keeps the word instantiation's node
	// at 32 bytes; a uint32 spans 256 GiB of heap, checked at
	// construction.
	pline uint32
}

// pageNodes is the number of Volatile nodes in a mirror page: about
// 3 KB of []byte-payload nodes, allocated the first time one of its
// slots is handed out, so a queue's mirror is bounded by its peak
// backlog rather than by its areas.
const pageNodes = 64

// mirrorPage is pageNodes consecutive slots' Volatile nodes.
type mirrorPage[P any] [pageNodes]node[P]

// pageTable is one area's mirror: a page pointer per pageNodes slots.
type pageTable[P any] [areaSlots / pageNodes]atomic.Pointer[mirrorPage[P]]

// nodeAt returns the Volatile node of the node slot at a. tid's last
// page answers a steady run of allocations with one compare, and for
// one-line nodes with a shift, not a divide.
func (q *Core[P]) nodeAt(tid int, a pmem.Addr) *node[P] {
	t := &q.per[tid]
	if off := a - t.pageBase; off < q.pageBytes && t.page != nil {
		i := off / pmem.CacheLineBytes
		if q.lines > 1 {
			i /= pmem.Addr(q.lines)
		}
		return &t.page[i]
	}
	area, slot := q.pool.Locate(a)
	t.page, t.pageBase = q.mirrorPage(area, slot/pageNodes), a-pmem.Addr(slot%pageNodes*q.lines)*pmem.CacheLineBytes
	return &t.page[slot%pageNodes]
}

// mirrorPage returns the page'th mirror page of the pool's area'th
// area, allocating it the first time it is asked for. Two tids that
// race to allocate it both return the page the CAS published.
func (q *Core[P]) mirrorPage(area, page int) *mirrorPage[P] {
	p := &q.mirrorArea(area)[page]
	if pg := p.Load(); pg != nil {
		return pg
	}
	p.CompareAndSwap(nil, new(mirrorPage[P]))
	return p.Load()
}

// mirrorArea returns the page table of the pool's area'th area, growing
// the mirror the first time an area is seen.
func (q *Core[P]) mirrorArea(area int) *pageTable[P] {
	if m := *q.mirror.Load(); area < len(m) {
		return m[area]
	}
	q.mirrorMu.Lock()
	defer q.mirrorMu.Unlock()
	m := *q.mirror.Load()
	for len(m) <= area {
		m = append(m, new(pageTable[P]))
	}
	q.mirror.Store(&m)
	return m[area]
}

// nextAddr is the link as the unsafe.Pointer the atomics take.
func (n *node[P]) nextAddr() *unsafe.Pointer { return (*unsafe.Pointer)(unsafe.Pointer(&n.next)) }

func (n *node[P]) loadNext() *node[P] { return (*node[P])(atomic.LoadPointer(n.nextAddr())) }

func (n *node[P]) casNext(old, new *node[P]) bool {
	return atomic.CompareAndSwapPointer(n.nextAddr(), unsafe.Pointer(old), unsafe.Pointer(new))
}

func lineOf(a pmem.Addr) uint32 { return uint32(a / pmem.CacheLineBytes) }

func lineAddr(l uint32) pmem.Addr { return pmem.Addr(l) * pmem.CacheLineBytes }

// coreThread keeps one thread's hot state; the field order (uint64s
// before the bools) plus the tail padding keep the struct at exactly
// two cache lines, so adjacent per-thread entries never share a line
// (false sharing would skew the persist-cost measurements).
type coreThread[P any] struct {
	// page caches the mirror page nodeAt looked up last.
	page         *mirrorPage[P]
	pageBase     pmem.Addr
	nodeToRetire *node[P]
	// pendingRetire accumulates the nodes unlinked by an unfenced batch
	// dequeue; they are handed to the allocator only by CompleteBatch,
	// after the caller's fence made the covering head index durable (a
	// slot reused and overwritten before that fence could lose a message
	// whose dequeue never became durable). Ack mode files its taken
	// nodes in the in-flight list instead.
	pendingRetire []*node[P]
	// chain is the scratch in which EnqueueBatch writes its nodes before
	// it links them; reused, so a warm batch allocates nothing.
	chain []*node[P]
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
	_               [30]byte
}

// Persistent node line layout: the core's two words, then the codec's.
const (
	nodeIndex  = pmem.Addr(0)
	nodeLinked = pmem.Addr(8)
	// NodePayload is the first codec-owned word of the node line.
	NodePayload = pmem.Addr(16)
)

// NewCore creates an empty queue, charging the construction persists
// (pool registry, local-line region, dummy node) to tid. Fences are
// per-thread: a queue created while other threads run — a broker topic
// created on a live system — must construct under a tid owned by the
// constructing goroutine, or its fences would race another goroutine's
// pending-persist state. lines is the node slot's line count: 1 for a
// payload inside the node line, 1 plus the payload lines otherwise.
// acked selects ack mode (see the Core fields), in which durability of
// a delivery is the caller's concern, e.g. a broker lease record.
func NewCore[P any](h *pmem.Heap, threads, tid int, acked bool, codec Codec[P], lines int) *Core[P] {
	if h.Bytes() > int64(pmem.CacheLineBytes)<<32 {
		panic("queues: heap too large for 32-bit node line numbers")
	}
	q := newCore(h, threads, acked, codec, lines)
	q.pool = ssmem.NewPool(h, nodePoolConfig(threads, lines, tid))
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

// newCore is the part of a Core that NewCore and RecoverCore build
// alike.
func newCore[P any](h *pmem.Heap, threads int, acked bool, codec Codec[P], lines int) *Core[P] {
	q := &Core[P]{
		h:         h,
		codec:     codec,
		lines:     lines,
		pageBytes: pmem.Addr(pageNodes*lines) * pmem.CacheLineBytes,
		per:       make([]coreThread[P], threads),
		acked:     acked,
	}
	q.mirror.Store(new([]*pageTable[P]))
	return q
}

// PoolStats reports the NVRAM footprint of the queue's node pool (see
// ssmem.Pool.Stats).
func (q *Core[P]) PoolStats() ssmem.Stats { return q.pool.Stats() }

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
// allocates nothing. The batch is taken with one head CAS (see take).
//
// The taken nodes go to the in-flight list, not to retirement: the
// unlinked previous head entered that list when it was dequeued itself
// (or it is the original dummy, which is simply abandoned). CompleteAck
// retires a node once a durable ack covers its index — only then can a
// reused slot's stale contents (linked flag and index surviving a crash
// mid-reuse) be filtered by recovery — and the head has moved past it.
func (q *Core[P]) DequeueLeasedAppend(tid, max int, ps []P, idxs []uint64) ([]P, []uint64) {
	if !q.acked {
		panic("queues: DequeueLeased on a queue without ack mode")
	}
	if max <= 0 {
		return ps, idxs
	}
	q.pool.Enter(tid)
	n, _, k := q.take(max)
	if k > 0 {
		q.ackMu.Lock()
		for i := 0; i < k; i++ {
			n = n.loadNext()
			ps, idxs = append(ps, n.payload), append(idxs, n.index)
			q.inflight = append(q.inflight, n)
		}
		q.ackMu.Unlock()
	}
	// The walk was the last read of a node loaded from the head; nobody
	// but CompleteAck retires the nodes taken, so they need no
	// protection until then.
	q.pool.Exit(tid)
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
			q.pool.Retire(tid, lineAddr(n.pline))
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

// Enqueue appends p (Figure 4, lines 107-124): the one-element batch.
// One fence — covering the node line and any payload lines together —
// and zero post-flush accesses: the tail's index is read from the
// Volatile object, never from the flushed Persistent line. A pool that
// must grow on a full heap panics with EnqueueBatch's error.
func (q *Core[P]) Enqueue(tid int, p P) {
	if err := q.EnqueueBatch(tid, []P{p}); err != nil {
		panic(err)
	}
}

// EnqueueBatch appends ps in order, riding a single fence for the
// whole batch, and links the whole batch with a single CAS: the nodes
// are written and chained privately, numbered after the tail's index,
// and published together by one CAS on the tail's link (Figure 4, lines
// 107-119, for a chain instead of a node). Only then is each node's
// linked flag set and its line flushed, and the tail swung once to the
// last of them; the blocking SFENCE is issued once at the end. The
// batch's items are therefore adjacent in the queue. This amortization
// is sound because the algorithm already tolerates an enqueuer whose
// nodes are linked but not yet durable — any helper may advance the
// tail past them and append (and fence) later nodes; recovery orders
// surviving nodes by index and accepts gaps, dropping exactly the
// unacknowledged enqueues. The batch is acknowledged as a whole when
// EnqueueBatch returns: at that point all of its nodes are durable.
//
// Every node-line word goes through StoreOwned and the line's flush
// through FlushOwned, linked=1 after the CAS too: no normal-path reader
// loads a node line, and the slot reaches another tid only through
// ssmem's epochs, after this thread's pool.Exit.
//
// When a pool must grow on a full heap, EnqueueBatch links nothing,
// hands the slots the batch took back to tid's free lists and returns
// the error wrapping pmem.ErrOutOfSpace, so a caller can refuse the
// batch; it returns nil otherwise.
func (q *Core[P]) EnqueueBatch(tid int, ps []P) error {
	if len(ps) == 0 {
		return nil
	}
	h := q.h
	chain, err := q.writeChain(tid, ps)
	if err != nil {
		return err
	}
	first, last := chain[0], chain[len(chain)-1]
	q.pool.Enter(tid)
	var tail *node[P]
	for {
		tail = q.tail.Load()
		if next := tail.loadNext(); next != nil {
			q.tail.CompareAndSwap(tail, next) // line 124
			continue
		}
		idx := tail.index // volatile read (line 117)
		for _, vn := range chain {
			idx++
			h.StoreOwned(tid, lineAddr(vn.pline)+nodeIndex, idx) // Persistent copy
			vn.index = idx                                       // Volatile copy (line 118)
		}
		if tail.casNext(nil, first) { // line 119
			break
		}
	}
	for _, vn := range chain {
		pn := lineAddr(vn.pline)
		h.StoreOwned(tid, pn+nodeLinked, 1) // line 120
		h.FlushOwned(tid, pn)               // line 121
	}
	q.tail.CompareAndSwap(tail, last)
	q.pool.Exit(tid) // before the fence, which holds no node: reclamation need not wait on it
	h.Fence(tid)     // the batch's single blocking persist
	return nil
}

// writeChain allocates and writes the nodes of a batch (Figure 4, lines
// 108-113, node by node) and chains them privately through next, in
// tid's scratch, which it returns. It follows no node loaded from head
// or tail, so it runs outside pool.Enter/Exit. When a panic cuts it
// short, it frees every slot it took: nothing of the batch is linked
// yet, so nothing else can hold the slots. It returns the panic of a
// pool that must grow on a full heap, which wraps pmem.ErrOutOfSpace,
// as its error; any other panic, the crash signal included, goes on up.
func (q *Core[P]) writeChain(tid int, ps []P) (chain []*node[P], err error) {
	h, t := q.h, &q.per[tid]
	chain = t.chain[:0]
	var pn pmem.Addr // taken, not yet in chain
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		for _, vn := range chain {
			q.pool.FreeImmediate(tid, lineAddr(vn.pline))
			*vn = node[P]{}
		}
		if pn != 0 {
			q.pool.FreeImmediate(tid, pn)
		}
		if e, ok := r.(error); ok && errors.Is(e, pmem.ErrOutOfSpace) {
			chain, err = nil, e
			return
		}
		panic(r)
	}()
	for _, p := range ps {
		pn = q.pool.Alloc(tid)
		// linked is cleared before the index is written (line 113): a
		// reused slot's stale set flag must never vouch for the new index.
		h.StoreOwned(tid, pn+nodeLinked, 0)
		// The slot's mirror entry is overwritten whole, which also resets
		// the link that the next node, or the linking CAS, sets.
		vn := q.nodeAt(tid, pn)
		*vn = node[P]{payload: q.codec.Write(h, tid, pn, p), pline: lineOf(pn)} // line 112
		if n := len(chain); n > 0 {
			chain[n-1].next = vn
		}
		chain = append(chain, vn)
		pn = 0
	}
	t.chain = chain
	return chain, nil
}

// take moves the head past up to max nodes with one CAS (Figure 4,
// lines 90-99, for a whole batch). It returns the head it moved from,
// the node it moved to — the queue's dummy from here on, holding the
// last item taken — and the number k of nodes taken, which are the k
// nodes after head up to and including last. k is 0 on an empty
// observation, and head is then the observed head, whose index the
// caller persists (or elides) to durably linearize the empty response.
//
// Before it returns, the tail is helped to at least last: a batch
// enqueue swings the tail only after its whole chain is linked, so the
// tail may lag by more than one node, and a node the caller retires or
// leases must be reachable from neither end. Threads inside
// pool.Enter/Exit that loaded it earlier exit before ssmem reuses its
// slot and, with the slot, its mirror entry. Run inside pool.Enter.
func (q *Core[P]) take(max int) (head, last *node[P], k int) {
	for {
		head = q.head.Load()
		last, k = head, 0
		for k < max {
			next := last.loadNext()
			if next == nil {
				break
			}
			last, k = next, k+1
		}
		if k == 0 {
			return head, head, 0
		}
		if q.head.CompareAndSwap(head, last) {
			break
		}
	}
	for {
		tail := q.tail.Load()
		if tail.index >= last.index {
			return head, last, k
		}
		q.tail.CompareAndSwap(tail, tail.loadNext())
	}
}

// retireAfterPersist hands old to the deferred-retirement cell (Figure
// 4, lines 102-105), releasing the previously deferred node. Call only
// after a fence covering old's dequeue.
func (q *Core[P]) retireAfterPersist(tid int, old *node[P]) {
	if r := q.per[tid].nodeToRetire; r != nil {
		q.pool.Retire(tid, lineAddr(r.pline))
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
// blocking persist for the whole batch: one CAS moves the head past
// every item of the batch (see take), and only the final head index is
// written to this thread's local line (one NTStore) and fenced once. The
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
// regardless of which line they target). It performs the head CAS and the
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
// returns. A consumer that hands it the same buffer every call
// allocates nothing. It takes up to max items with one head CAS (see
// take), NTStores the new head's index into tid's local line — one
// NTStore covers the batch — and defers the unlinked nodes' retirement
// to CompleteBatch.
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
	n, last, k := q.take(max)
	idx := last.index
	for i := 0; i < k; i++ {
		// Only the winner of the head CAS reads a payload, so it may drop
		// it too: the node is the queue's dummy or unlinked from here on.
		next := n.loadNext()
		var zero P
		dst, next.payload = append(dst, next.payload), zero
		t.pendingRetire = append(t.pendingRetire, n)
		n = next
	}
	// The walk was the last read of a node loaded from the head; nobody
	// but CompleteBatch retires the nodes taken, so they need no
	// protection until then.
	q.pool.Exit(tid)
	// A pure empty observation persists the observed index unless it is
	// already durable or already NTStored.
	if k == 0 && (idx <= t.lastPersisted || t.pendingDirty && idx <= t.pendingIdx) {
		return dst, t.pendingDirty
	}
	q.writeLocalHeadIdx(tid, idx)
	t.pendingIdx = idx
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
// filled in and chained in index order, so only the pages of live slots
// are allocated. Unless the scan met them strictly ascending, the
// scan's keys are placed by index, in time linear in the nodes however
// slot reuse ordered them; only a span of indices wider than twice the
// nodes (a corrupt index) falls back to a sort. Two live nodes with one
// index are refused on either path. acked must match the mode the queue
// was created with: a mismatch is refused, not mis-scanned (plain
// recovery of an acked queue would take the never-written head lines as
// the frontier and resurrect acknowledged items). lines must be the
// NewCore line count. Every refusal — the mode, a root that
// names no per-thread lines the heap allocated, a node registry
// ssmem refuses, a duplicate index — is a panic with an error wrapping
// pmem.ErrCorrupt, raised before recovery writes anything.
func RecoverCore[P any](h *pmem.Heap, threads int, acked bool, codec Codec[P], lines int) *Core[P] {
	r := pmem.NewReader(h)
	region := int64(threads) * pmem.CacheLineBytes
	localBase := r.Ptr(h.RootAddr(slotLocal), region)
	ackBase := r.Ptr(h.RootAddr(slotAck), region)
	if localBase == 0 || acked != (ackBase != 0) {
		r.Errorf("queues: recovery with acked=%v, but the heap holds local lines at %#x and ack lines at %#x",
			acked, localBase, ackBase)
	}
	r.Raise()
	q := newCore(h, threads, acked, codec, lines)
	q.localBase, q.ackBase = localBase, ackBase
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
	// never copies — and puts the keys in index order (inIndexOrder)
	// before anything is materialized: the codec then makes its payload
	// copies in index order, so the drain that follows recovery reads
	// them walking memory forward, whatever order the allocator left the
	// slots, and with them the mirror entries, in.
	const runLen = 4096
	var runs [][]liveKey
	last, hi := uint64(0), frontier
	ascending := true
	q.pool = ssmem.RecoverPool(h, nodePoolConfig(threads, lines, 0), func(a pmem.Addr) bool {
		if h.Load(0, a+nodeLinked) != 1 {
			return false
		}
		idx := h.Load(0, a+nodeIndex)
		if idx <= frontier {
			return false
		}
		if !codec.Check(h, a) {
			return false
		}
		if n := len(runs); n == 0 || len(runs[n-1]) == runLen {
			runs = append(runs, make([]liveKey, 0, runLen))
		}
		r := &runs[len(runs)-1]
		*r = append(*r, liveKey{idx, lineOf(a)})
		ascending = ascending && last < idx
		last, hi = idx, max(hi, idx)
		return true
	})
	keys := inIndexOrder(r, runs, frontier, hi, ascending)
	r.Raise()

	dummyPn := q.pool.Alloc(0)
	h.Store(0, dummyPn+nodeLinked, 0)
	h.Store(0, dummyPn+nodeIndex, frontier)
	prev := q.nodeAt(0, dummyPn)
	*prev = node[P]{index: frontier, pline: lineOf(dummyPn)}
	q.head.Store(prev)
	for _, k := range keys {
		n := q.nodeAt(0, lineAddr(k.pline))
		*n = node[P]{payload: codec.Read(h, lineAddr(k.pline)), index: k.index, pline: k.pline}
		prev.next = n
		prev = n
	}
	q.tail.Store(prev)
	return q
}

// liveKey is what recovery's scan keeps of one resurrected node.
type liveKey struct {
	index uint64
	pline uint32
}

// inIndexOrder returns the keys of runs in index order and refuses two
// live nodes with one index. A scan that met the indices strictly
// ascending (a queue whose slots were never recycled) is in order and
// unique already: its runs are only concatenated. Otherwise the indices
// lie in (frontier, hi] and are unique, with gaps only where a torn
// enqueue was discarded, so each key is placed at entry
// index−frontier−1 of one slice spanning them — an occupied entry is a
// duplicate — and one forward pass drops the empty entries (line 0
// never holds a node). That is linear whatever order slot reuse left
// the scan in. A span wider than 2·len(keys)+64 means a corrupt index
// or more gaps than nodes, and is not allocated: those keys are
// concatenated, sorted and checked for adjacent duplicates. A
// duplicate fails r.
func inIndexOrder(r *pmem.Reader, runs [][]liveKey, frontier, hi uint64, ascending bool) []liveKey {
	if ascending {
		return slices.Concat(runs...)
	}
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	refuse := func(index uint64) []liveKey {
		r.Errorf("queues: recovery found two live nodes with index %d", index)
		return nil
	}
	if span := hi - frontier; span <= 2*uint64(n)+64 {
		keys := make([]liveKey, span)
		for _, r := range runs {
			for _, k := range r {
				e := &keys[k.index-frontier-1]
				if e.pline != 0 {
					return refuse(k.index)
				}
				*e = k
			}
		}
		w := 0
		for _, k := range keys {
			if k.pline != 0 {
				keys[w] = k
				w++
			}
		}
		return keys[:w]
	}
	keys := slices.Concat(runs...)
	slices.SortFunc(keys, func(a, b liveKey) int { return cmp.Compare(a.index, b.index) })
	for i := 1; i < len(keys); i++ {
		if keys[i].index == keys[i-1].index {
			return refuse(keys[i].index)
		}
	}
	return keys
}
