// Package queues implements the durable lock-free FIFO queues of
// "Durable Queues: The Second Amendment" (Sela & Petrank, SPAA 2021)
// on the simulated NVRAM substrate of package pmem:
//
//   - MSQ           — the volatile Michael-Scott queue (Section 3.1),
//     the base algorithm all durable variants amend.
//   - DurableMSQ    — the thinned Friedman et al. durable queue used
//     as the paper's state-of-the-art baseline (Section 10).
//   - IzraelevitzQ  — MSQ put through the Izraelevitz et al. generic
//     transform (persist after every shared access).
//   - NVTraverseQ   — the NVTraverse variant of the same transform
//     (no blocking fence after flushes that follow reads or CAS).
//   - UnlinkedQ     — first amendment, Figure 1: one fence per
//     operation, links not persisted, recovery by indexed scan.
//   - LinkedQ       — first amendment, Figure 3: one fence per
//     operation, persisted links, validity flags, backward links.
//   - OptUnlinkedQ  — second amendment, Figure 4: one fence per
//     operation and zero accesses to flushed content: Core (core.go)
//     under the inline word codec; blobq is its multi-line codec.
//   - OptLinkedQ    — second amendment, Figures 5-6.
//
// All queues share the same root-slot convention on the heap so that
// recovery can locate them after a crash: slot 0 holds the queue head
// line, slot 1 the tail line, slot 2 anchors the node pool, slot 3
// anchors per-thread persistent local data (where used).
package queues

import (
	"repro/internal/pmem"
	"repro/internal/ssmem"
)

// Queue is the operation interface shared by every implementation.
// tid identifies the calling thread (0 <= tid < the threads value the
// queue was created with); each tid must be driven by at most one
// goroutine at a time.
type Queue interface {
	// Enqueue appends v to the queue.
	Enqueue(tid int, v uint64)
	// Dequeue removes and returns the oldest item. ok is false if the
	// queue was observed empty (a "failing dequeue" in paper terms).
	Dequeue(tid int) (v uint64, ok bool)
}

// Root-slot convention shared by all queues in this package.
const (
	slotHead  = 0 // head line (pointer, and index where applicable)
	slotTail  = 1 // tail line
	slotPool  = 2 // ssmem pool registry anchor
	slotLocal = 3 // per-thread persistent local data base address
	slotAck   = 4 // per-thread acked-index lines (ack-mode queues only)
)

// Node field offsets; every node occupies exactly one cache line
// (the paper's footnote 3), so a single Flush persists a whole node.
const (
	offItem  = pmem.Addr(0)
	offNext  = pmem.Addr(8)
	offW2    = pmem.Addr(16) // linked / pred, depending on the queue
	offW3    = pmem.Addr(24) // index / initialized, depending on the queue
	nodeSize = pmem.CacheLineBytes
	// areaSlots is the node pools' SlotsPerArea, and so the length of
	// each of Core's mirror arrays.
	areaSlots = 4096
)

// Info describes a queue implementation for harnesses and tools.
type Info struct {
	Name    string
	Durable bool
	// Ablation marks design-study variants (e.g. linked-naive, whose
	// whole-prefix flushing is deliberately O(queue length) per
	// enqueue); sweeps over unbounded workloads skip them by default.
	Ablation bool
	// New creates a fresh queue on an empty heap.
	New func(h *pmem.Heap, threads int) Queue
	// Recover reconstructs the queue from a restarted heap. Nil for
	// volatile queues.
	Recover func(h *pmem.Heap, threads int) Queue
}

// All returns the queue implementations in this package, core queues
// first. PTM-backed queues live in package ptm and are composed by the
// harness.
func All() []Info {
	return []Info{
		{Name: "opt-unlinked", Durable: true,
			New:     func(h *pmem.Heap, n int) Queue { return NewOptUnlinkedQ(h, n) },
			Recover: func(h *pmem.Heap, n int) Queue { return RecoverOptUnlinkedQ(h, n) }},
		{Name: "opt-linked", Durable: true,
			New:     func(h *pmem.Heap, n int) Queue { return NewOptLinkedQ(h, n) },
			Recover: func(h *pmem.Heap, n int) Queue { return RecoverOptLinkedQ(h, n) }},
		// The ack-mode OptUnlinkedQ behind the plain Queue interface:
		// Dequeue leases the item and acknowledges it immediately (one
		// fence), so every generic durability audit applies; the broker
		// splits the lease from the acknowledgment instead.
		{Name: "opt-unlinked-acked", Durable: true,
			New:     func(h *pmem.Heap, n int) Queue { return NewOptUnlinkedQAcked(h, n) },
			Recover: func(h *pmem.Heap, n int) Queue { return RecoverOptUnlinkedQAcked(h, n) }},
		{Name: "unlinked", Durable: true,
			New:     func(h *pmem.Heap, n int) Queue { return NewUnlinkedQ(h, n) },
			Recover: func(h *pmem.Heap, n int) Queue { return RecoverUnlinkedQ(h, n) }},
		{Name: "unlinked-nodcas", Durable: true,
			New:     func(h *pmem.Heap, n int) Queue { return NewUnlinkedQNoDCAS(h, n) },
			Recover: func(h *pmem.Heap, n int) Queue { return RecoverUnlinkedQNoDCAS(h, n) }},
		{Name: "linked", Durable: true,
			New:     func(h *pmem.Heap, n int) Queue { return NewLinkedQ(h, n) },
			Recover: func(h *pmem.Heap, n int) Queue { return RecoverLinkedQ(h, n) }},
		{Name: "durable-msq", Durable: true,
			New:     func(h *pmem.Heap, n int) Queue { return NewDurableMSQ(h, n) },
			Recover: func(h *pmem.Heap, n int) Queue { return RecoverDurableMSQ(h, n) }},
		{Name: "durable-msq-full", Durable: true,
			New: func(h *pmem.Heap, n int) Queue { return NewDurableMSQFull(h, n) },
			Recover: func(h *pmem.Heap, n int) Queue {
				q, _ := RecoverDurableMSQFull(h, n)
				return q
			}},
		{Name: "izraelevitz", Durable: true,
			New:     func(h *pmem.Heap, n int) Queue { return NewIzraelevitzQ(h, n) },
			Recover: func(h *pmem.Heap, n int) Queue { return RecoverIzraelevitzQ(h, n) }},
		{Name: "nvtraverse", Durable: true,
			New:     func(h *pmem.Heap, n int) Queue { return NewNVTraverseQ(h, n) },
			Recover: func(h *pmem.Heap, n int) Queue { return RecoverNVTraverseQ(h, n) }},
		{Name: "msq", Durable: false,
			New: func(h *pmem.Heap, n int) Queue { return NewMSQ(h, n) }},
		{Name: "linked-naive", Durable: true, Ablation: true,
			New:     func(h *pmem.Heap, n int) Queue { return NewLinkedQNaive(h, n) },
			Recover: func(h *pmem.Heap, n int) Queue { return RecoverLinkedQ(h, n) }},
		{Name: "opt-unlinked-plainstore", Durable: true, Ablation: true,
			New:     func(h *pmem.Heap, n int) Queue { return NewOptUnlinkedQPlainStore(h, n) },
			Recover: func(h *pmem.Heap, n int) Queue { return RecoverOptUnlinkedQ(h, n) }},
	}
}

// Lookup finds a queue implementation by name.
func Lookup(name string) (Info, bool) {
	for _, in := range All() {
		if in.Name == name {
			return in, true
		}
	}
	return Info{}, false
}

func createNodePool(h *pmem.Heap, threads int) *ssmem.Pool {
	return createNodePoolAs(h, threads, 0)
}

// createNodePoolAs charges the pool's construction persists to tid, for
// queues created while other threads are running (see NewCore).
func createNodePoolAs(h *pmem.Heap, threads, tid int) *ssmem.Pool {
	return ssmem.NewPool(h, ssmem.Config{
		SlotBytes:    nodeSize,
		SlotsPerArea: areaSlots,
		Threads:      threads,
		RootSlot:     slotPool,
		InitTid:      tid,
	})
}

func recoverNodePool(h *pmem.Heap, threads int, live func(pmem.Addr) bool) *ssmem.Pool {
	return ssmem.RecoverPool(h, ssmem.Config{
		SlotBytes:    nodeSize,
		SlotsPerArea: areaSlots,
		Threads:      threads,
		RootSlot:     slotPool,
	}, live)
}

// paddedAddr is a per-thread pmem address slot on its own cache line,
// used for the volatile nodeToRetire arrays the paper keeps per
// thread ("its cells do not share cache lines to avoid false
// sharing").
type paddedAddr struct {
	v pmem.Addr
	_ [56]byte
}
