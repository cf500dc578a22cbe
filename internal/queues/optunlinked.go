package queues

import "repro/internal/pmem"

// OptUnlinkedQ is the paper's second-amendment queue over 8-byte
// items: the Core instantiated with the inline word codec — the item is
// one word of the node line, a payload of zero extra lines.
type OptUnlinkedQ = Core[uint64]

// wordCodec keeps the item in the node line's first codec word. A word
// shares its line with the linked flag, so there is nothing to
// validate at recovery: the flag vouches for the item.
type wordCodec struct{}

func (wordCodec) Write(h *pmem.Heap, tid int, pn pmem.Addr, v uint64) uint64 {
	h.StoreOwned(tid, pn+NodePayload, v)
	return v
}

func (wordCodec) Check(*pmem.Heap, pmem.Addr) bool { return true }

func (wordCodec) Read(h *pmem.Heap, pn pmem.Addr) uint64 { return h.Load(0, pn+NodePayload) }

// NewOptUnlinkedQ creates an empty OptUnlinkedQ.
func NewOptUnlinkedQ(h *pmem.Heap, threads int) *OptUnlinkedQ {
	return NewCore[uint64](h, threads, 0, false, wordCodec{}, 1)
}

// NewOptUnlinkedQPlainStore is the Section 6.3 ablation: local head
// indices are written with ordinary stores plus flushes instead of
// non-temporal stores, reintroducing writes to flushed lines.
func NewOptUnlinkedQPlainStore(h *pmem.Heap, threads int) *OptUnlinkedQ {
	q := NewOptUnlinkedQ(h, threads)
	q.plainStoreLocal = true
	return q
}

// NewOptUnlinkedQAcked creates an empty queue in acknowledgment mode
// (see the Core fields).
func NewOptUnlinkedQAcked(h *pmem.Heap, threads int) *OptUnlinkedQ {
	return NewCore[uint64](h, threads, 0, true, wordCodec{}, 1)
}

// RecoverOptUnlinkedQ rebuilds a plain queue after a crash; it refuses
// a heap holding an ack-mode queue (see RecoverCore).
func RecoverOptUnlinkedQ(h *pmem.Heap, threads int) *OptUnlinkedQ {
	return RecoverCore[uint64](h, threads, false, wordCodec{}, 1)
}

// RecoverOptUnlinkedQAcked rebuilds an ack-mode queue after a crash.
func RecoverOptUnlinkedQAcked(h *pmem.Heap, threads int) *OptUnlinkedQ {
	return RecoverCore[uint64](h, threads, true, wordCodec{}, 1)
}
