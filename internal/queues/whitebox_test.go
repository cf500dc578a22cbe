package queues

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pmem"
)

// TestCorrectnessWithFlushRetainsLine: the no-invalidation ablation
// changes performance accounting only, never semantics.
func TestCorrectnessWithFlushRetainsLine(t *testing.T) {
	for _, in := range All() {
		t.Run(in.Name, func(t *testing.T) {
			h := pmem.New(pmem.Config{Bytes: 32 << 20, MaxThreads: 2, FlushRetainsLine: true})
			q := in.New(h, 1)
			for i := uint64(1); i <= 200; i++ {
				q.Enqueue(0, i)
			}
			for i := uint64(1); i <= 200; i++ {
				v, ok := q.Dequeue(0)
				if !ok || v != i {
					t.Fatalf("got (%d,%v), want (%d,true)", v, ok, i)
				}
			}
			if h.TotalStats().PostFlushAccesses != 0 {
				t.Fatal("retain mode must record zero post-flush accesses")
			}
		})
	}
}

// TestHeavyChurnReuse forces many node recycles through the EBR
// allocator and re-checks FIFO integrity (guards the linked/unlinked
// flag-reset invariants on reuse).
func TestHeavyChurnReuse(t *testing.T) {
	for _, in := range All() {
		if !in.Durable {
			continue
		}
		t.Run(in.Name, func(t *testing.T) {
			h := pmem.New(pmem.Config{Bytes: 16 << 20, MaxThreads: 2})
			q := in.New(h, 1)
			next, expect := uint64(1), uint64(1)
			for round := 0; round < 200; round++ {
				for i := 0; i < 50; i++ {
					q.Enqueue(0, next)
					next++
				}
				for i := 0; i < 50; i++ {
					v, ok := q.Dequeue(0)
					if !ok || v != expect {
						t.Fatalf("round %d: got (%d,%v), want (%d,true)", round, v, ok, expect)
					}
					expect++
				}
			}
		})
	}
}

// TestRecoveryReversedSlotOrder recovers a backlog whose slot order is
// the exact reverse of its index order — the queue was drained on tid
// 1, and tid 0 refilled it from the depot chunk tid 1 donated, popping
// addresses from the top down — and demands the state recovery builds
// from a backlog with the same indices in never-recycled, ascending
// slots: the same chain, each node its line's mirror entry, the same
// ack frontier and redelivery set, the same seeded elision cache.
func TestRecoveryReversedSlotOrder(t *testing.T) {
	const drained, backlog, leased = 700, 100, 5
	type recovered struct {
		idxs, vals    []uint64
		lastPersisted []uint64
		ackedTo       uint64
		unackedVals   []uint64
		unackedIdxs   []uint64
	}
	run := func(t *testing.T, acked, recycle bool) recovered {
		h := crashHeap(t, 2)
		q := NewCore[uint64](h, 2, 0, acked, wordCodec{}, nil)
		v := uint64(0)
		fill := func(n int) {
			for i := 0; i < n; i++ {
				v++
				q.Enqueue(0, v)
			}
		}
		consume := func() {
			for i := 0; i < drained; i++ {
				if _, ok := q.Dequeue(1); !ok {
					t.Fatal("queue ran dry during the drain")
				}
			}
		}
		if recycle {
			fill(drained)
			consume()
			fill(backlog)
		} else {
			fill(drained + backlog)
			consume()
		}
		// Slot order of the backlog, along the chain.
		var plines []uint32
		for n := q.head.Load().loadNext(); n != nil; n = n.loadNext() {
			plines = append(plines, n.pline)
		}
		if len(plines) != backlog || !slices.IsSortedFunc(plines, func(a, b uint32) int {
			if recycle {
				a, b = b, a
			}
			return int(a) - int(b)
		}) {
			t.Fatalf("recycle=%v: backlog slots %v are not in the order this test is about", recycle, plines)
		}
		if acked {
			q.DequeueLeased(1, leased) // delivered, never acknowledged
		}
		h.CrashNow()
		h.FinalizeCrash(rand.New(rand.NewSource(1)))
		h.Restart()

		rq := RecoverCore[uint64](h, 2, acked, wordCodec{}, nil)
		var r recovered
		for n := rq.head.Load().loadNext(); n != nil; n = n.loadNext() {
			r.idxs, r.vals = append(r.idxs, n.index), append(r.vals, n.payload)
			if n != rq.nodeAt(0, lineAddr(n.pline)) {
				t.Fatalf("recycle=%v: node with index %d is not its line's mirror entry", recycle, n.index)
			}
		}
		for tid := range rq.per {
			r.lastPersisted = append(r.lastPersisted, rq.per[tid].lastPersisted)
		}
		if acked {
			r.ackedTo = rq.AckedTo()
			rq.DequeueLeased(1, leased)
			r.unackedVals, r.unackedIdxs = rq.Unacked()
		}
		return r
	}
	for _, acked := range []bool{false, true} {
		inOrder, reversed := run(t, acked, false), run(t, acked, true)
		if len(inOrder.idxs) != backlog || inOrder.idxs[0] != drained+1 || !slices.IsSorted(inOrder.idxs) {
			t.Fatalf("acked=%v: in-order recovery chained indices %v", acked, inOrder.idxs)
		}
		if acked && (inOrder.ackedTo != drained || len(inOrder.unackedIdxs) != leased) {
			t.Fatalf("acked=%v: in-order recovery acked to %d with %v unacked", acked, inOrder.ackedTo, inOrder.unackedIdxs)
		}
		if !slices.Equal(inOrder.idxs, reversed.idxs) || !slices.Equal(inOrder.vals, reversed.vals) ||
			!slices.Equal(inOrder.lastPersisted, reversed.lastPersisted) || inOrder.ackedTo != reversed.ackedTo ||
			!slices.Equal(inOrder.unackedVals, reversed.unackedVals) || !slices.Equal(inOrder.unackedIdxs, reversed.unackedIdxs) {
			t.Fatalf("acked=%v: recovery from reversed slots differs from in-order recovery:\n%+v\n%+v", acked, reversed, inOrder)
		}
	}
}

// TestDequeueHelpsLaggingTail models an enqueuer stalled between its
// link CAS and its tail swing: a batch of 300 is linked, and the tail
// is set back to the node before it, where the stalled enqueuer left
// it. One DequeueBatch takes everything and retires enough nodes for
// the epoch to move twice, so the node the tail was left on goes back
// to the free list. The dequeue must have helped the tail to its new
// head first, or the enqueues that follow, through recycled slots,
// walk the tail into a slot that is already their own and lose items.
func TestDequeueHelpsLaggingTail(t *testing.T) {
	q := NewOptUnlinkedQ(perfHeap(t, 1), 1)
	q.Enqueue(0, 0)
	stalled := q.tail.Load()
	batch := make([]uint64, 300)
	for i := range batch {
		batch[i] = uint64(1 + i)
	}
	q.EnqueueBatch(0, batch)
	q.tail.Store(stalled)
	if vs := q.DequeueBatch(0, len(batch)+1); len(vs) != len(batch)+1 {
		t.Fatalf("DequeueBatch took %d items, want %d", len(vs), len(batch)+1)
	}
	if tail, head := q.tail.Load(), q.head.Load(); tail.index < head.index {
		t.Fatalf("the tail (index %d) lags the head (index %d) after the dequeue", tail.index, head.index)
	}
	for round := uint64(0); round < 50; round++ {
		for i := range batch[:8] {
			batch[i] = round<<8 | uint64(i)
		}
		q.EnqueueBatch(0, batch[:8])
		if vs := q.DequeueBatch(0, 16); !slices.Equal(vs, batch[:8]) {
			t.Fatalf("round %d: dequeued %v, want %v", round, vs, batch[:8])
		}
	}
}
