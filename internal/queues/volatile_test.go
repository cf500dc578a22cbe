package queues

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// heapGrowth runs warm, settles the collector, runs steady and reports
// how much live Go heap steady left behind (negative reads as zero).
// keep is what both work on: it must outlive the second collection, or
// whatever it retains is garbage by then and reads as no growth.
func heapGrowth(keep any, warm, steady func()) uint64 {
	var before, after runtime.MemStats
	warm()
	runtime.GC()
	runtime.ReadMemStats(&before)
	steady()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	if after.HeapAlloc < before.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - before.HeapAlloc
}

// allocBytesPer runs f, which performs n operations, and reports the
// Go heap bytes it allocated per operation.
func allocBytesPer(n int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// retainedPairs is the steady phase of the retention tests: at 32 bytes
// a node, a queue that keeps them all grows by 32 MB (3 MB under the
// race detector) against a budget of 1 MB.
func retainedPairs() int {
	if raceEnabled {
		return 100_000
	}
	return 1_000_000
}

// TestNarrowAfterWidePollRetainsNothing pins the clear-before-truncate
// rule of the queue's reused scratch: one wide batch leaves pointers in
// the backing array of pendingRetire (plain) or inflight (acked) beyond
// the length narrow batches use afterwards, and a pointer to a consumed
// node keeps whatever that node still links to. After a 64-wide dequeue
// a million depth-one pairs must leave the Go heap where it was.
func TestNarrowAfterWidePollRetainsNothing(t *testing.T) {
	wide := make([]uint64, 64)
	n := retainedPairs()
	t.Run("plain", func(t *testing.T) {
		q := NewOptUnlinkedQ(perfHeap(t, 1), 1)
		grew := heapGrowth(q, func() {
			q.EnqueueBatch(0, wide)
			q.DequeueBatch(0, len(wide))
		}, func() {
			for i := 0; i < n; i++ {
				q.Enqueue(0, uint64(i))
				q.Dequeue(0)
			}
		})
		if grew >= 1<<20 {
			t.Fatalf("Go heap grew %d bytes over %d Enqueue/Dequeue pairs after one wide DequeueBatch, want < 1 MiB", grew, n)
		}
	})
	t.Run("acked", func(t *testing.T) {
		q := NewOptUnlinkedQAcked(perfHeap(t, 1), 1)
		lease := func(max int) {
			if _, idxs := q.DequeueLeased(0, max); len(idxs) > 0 {
				q.AckTo(0, idxs[len(idxs)-1])
			}
		}
		grew := heapGrowth(q, func() {
			q.EnqueueBatch(0, wide)
			lease(len(wide))
		}, func() {
			for i := 0; i < n; i++ {
				q.Enqueue(0, uint64(i))
				lease(1)
			}
		})
		if grew >= 1<<20 {
			t.Fatalf("Go heap grew %d bytes over %d Enqueue/lease/AckTo rounds after one wide lease, want < 1 MiB", grew, n)
		}
	})
}

// TestIdleThreadRetainsNothing pins that an idle thread keeps none of
// the traffic that flows past it: a producer holds its cached mirror
// area and a consumer a node in its retirement cell, and consumed nodes
// still link forward, but the mirror is a fixed table that slot reuse
// overwrites.
func TestIdleThreadRetainsNothing(t *testing.T) {
	q := NewOptUnlinkedQ(perfHeap(t, 3), 3)
	n := retainedPairs()
	grew := heapGrowth(q, func() {
		q.Enqueue(0, 1) // tid 0: one node, its mirror area cached, then idle
		q.Dequeue(2)    // tid 2: one node in its retirement cell, then idle
	}, func() {
		for i := 0; i < n; i++ {
			q.Enqueue(1, uint64(i))
			q.Dequeue(1)
		}
	})
	if grew >= 1<<20 {
		t.Fatalf("Go heap grew %d bytes over %d pairs on tid 1 while tids 0 and 2 sat idle, want < 1 MiB", grew, n)
	}
}

// TestNodeMirrorConcurrentReuse drives one queue from four producer
// and four consumer tids, in batches of one to seven, for four areas'
// worth of nodes per producer: every item is dequeued exactly once and
// each consumer sees each producer's items in order. Slots, and with
// them mirror entries, change tids through ssmem's limbo and depot and
// are overwritten while other tids inside pool.Enter/Exit still hold
// their neighbours, so the race detector sees every reuse edge.
func TestNodeMirrorConcurrentReuse(t *testing.T) {
	const producers, consumers = 4, 4
	perProducer := 4 * areaSlots
	if !raceEnabled {
		perProducer *= 4
	}
	q := NewOptUnlinkedQ(perfHeap(t, producers+consumers), producers+consumers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]uint64, 0, 7)
			for seq := 0; seq < perProducer; {
				batch = batch[:0]
				for len(batch) < 1+seq%cap(batch) && seq < perProducer {
					batch = append(batch, uint64(p)<<32|uint64(seq))
					seq++
				}
				q.EnqueueBatch(p, batch)
			}
		}()
	}
	var taken atomic.Int64
	got := make([][]uint64, consumers)
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tid := producers + c
			for round := 0; taken.Load() < int64(producers*perProducer); round++ {
				var vs []uint64
				if round%2 == 0 {
					vs = q.DequeueBatch(tid, 1+round%9)
				} else if v, ok := q.Dequeue(tid); ok {
					vs = []uint64{v}
				}
				if len(vs) == 0 {
					runtime.Gosched()
					continue
				}
				got[c] = append(got[c], vs...)
				taken.Add(int64(len(vs)))
			}
		}()
	}
	wg.Wait()
	seen := make([][]bool, producers)
	for p := range seen {
		seen[p] = make([]bool, perProducer)
	}
	for c, vs := range got {
		last := [producers]int{-1, -1, -1, -1}
		for _, v := range vs {
			p, seq := int(v>>32), int(uint32(v))
			if p >= producers || seq >= perProducer {
				t.Fatalf("consumer %d dequeued %#x, which nobody enqueued", c, v)
			}
			if seen[p][seq] {
				t.Fatalf("producer %d item %d dequeued twice", p, seq)
			}
			seen[p][seq] = true
			if seq <= last[p] {
				t.Fatalf("consumer %d saw producer %d item %d after item %d", c, p, seq, last[p])
			}
			last[p] = seq
		}
	}
	for p := range seen {
		for seq, ok := range seen[p] {
			if !ok {
				t.Fatalf("producer %d item %d never dequeued", p, seq)
			}
		}
	}
	if v, ok := q.Dequeue(producers); ok {
		t.Fatalf("queue still holds %#x after everything enqueued was dequeued", v)
	}
}
