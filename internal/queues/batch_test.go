package queues

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/pmem"
)

// TestOptUnlinkedEnqueueBatchOneFence verifies the amortized publish
// path: a whole batch rides exactly one blocking persist, while the
// per-message path pays one fence each.
func TestOptUnlinkedEnqueueBatchOneFence(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 32 << 20, MaxThreads: 2})
	q := NewOptUnlinkedQ(h, 1)
	for i := 0; i < 100; i++ { // warm the pool past area creation
		q.Enqueue(0, uint64(i))
	}
	const n = 64
	batch := make([]uint64, n)
	for i := range batch {
		batch[i] = uint64(1000 + i)
	}
	before := h.TotalStats()
	q.EnqueueBatch(0, batch)
	d := h.TotalStats().Sub(before)
	if d.Fences != 1 {
		t.Fatalf("EnqueueBatch of %d issued %d fences, want 1", n, d.Fences)
	}
	if d.Flushes != n {
		t.Fatalf("EnqueueBatch of %d issued %d flushes, want %d", n, d.Flushes, n)
	}
	for i := 0; i < 100; i++ {
		if v, ok := q.Dequeue(0); !ok || v != uint64(i) {
			t.Fatalf("dequeue %d = %d,%v", i, v, ok)
		}
	}
	for i := 0; i < n; i++ {
		if v, ok := q.Dequeue(0); !ok || v != batch[i] {
			t.Fatalf("batch dequeue %d = %d,%v, want %d", i, v, ok, batch[i])
		}
	}
}

// TestOptUnlinkedDequeueBatchOneFence verifies the amortized consume
// path: a whole dequeue batch rides exactly one blocking persist and
// one NTStore (of the final head index), preserves FIFO, and keeps the
// second amendment's zero-post-flush-access property.
func TestOptUnlinkedDequeueBatchOneFence(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 32 << 20, MaxThreads: 2})
	q := NewOptUnlinkedQ(h, 1)
	for i := 0; i < 200; i++ { // warm the pool past area creation
		q.Enqueue(0, uint64(i))
		q.Dequeue(0)
	}
	const n = 64
	for i := 0; i < 2*n; i++ {
		q.Enqueue(0, uint64(1000+i))
	}
	before := h.TotalStats()
	got := q.DequeueBatch(0, n)
	d := h.TotalStats().Sub(before)
	if len(got) != n {
		t.Fatalf("DequeueBatch returned %d items, want %d", len(got), n)
	}
	for i, v := range got {
		if v != uint64(1000+i) {
			t.Fatalf("item %d = %d, want %d", i, v, 1000+i)
		}
	}
	if d.Fences != 1 {
		t.Fatalf("DequeueBatch of %d issued %d fences, want 1", n, d.Fences)
	}
	if d.NTStores != 1 {
		t.Fatalf("DequeueBatch of %d issued %d NTStores, want 1", n, d.NTStores)
	}
	if d.PostFlushAccesses != 0 {
		t.Fatalf("DequeueBatch made %d post-flush accesses, want 0", d.PostFlushAccesses)
	}
	// A batch larger than the backlog returns what is there.
	if rest := q.DequeueBatch(0, 10*n); len(rest) != n {
		t.Fatalf("short DequeueBatch returned %d items, want %d", len(rest), n)
	}
	if got := q.DequeueBatch(0, 8); len(got) != 0 {
		t.Fatalf("DequeueBatch on empty returned %d items", len(got))
	}
}

// TestOptUnlinkedEmptyPollElision pins the idle-consumer optimization:
// once a thread has persisted the head index it observed, repeated
// failing dequeues at that index issue no persist instructions at all,
// and the elision re-arms after the index moves.
func TestOptUnlinkedEmptyPollElision(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 32 << 20, MaxThreads: 2})
	q := NewOptUnlinkedQ(h, 2)
	q.Enqueue(0, 1)
	if _, ok := q.Dequeue(0); !ok {
		t.Fatal("dequeue failed")
	}
	before := h.TotalStats()
	for i := 0; i < 100; i++ {
		if _, ok := q.Dequeue(0); ok {
			t.Fatal("queue should be empty")
		}
	}
	if d := h.TotalStats().Sub(before); d.Fences != 0 || d.NTStores != 0 {
		t.Fatalf("100 elided empty polls issued %d fences, %d NTStores; want 0, 0", d.Fences, d.NTStores)
	}
	// Another thread's dequeue moves the head; the first failing poll
	// must persist the new observation (it is not durable for tid 0),
	// and only then elide again.
	q.Enqueue(0, 2)
	if _, ok := q.Dequeue(1); !ok {
		t.Fatal("dequeue failed")
	}
	before = h.TotalStats()
	for i := 0; i < 100; i++ {
		if _, ok := q.Dequeue(0); ok {
			t.Fatal("queue should be empty")
		}
	}
	if d := h.TotalStats().Sub(before); d.Fences != 1 {
		t.Fatalf("empty polls after a foreign dequeue issued %d fences, want exactly 1", d.Fences)
	}
	// Batch polls elide the same way.
	before = h.TotalStats()
	for i := 0; i < 100; i++ {
		if vs := q.DequeueBatch(0, 8); len(vs) != 0 {
			t.Fatal("queue should be empty")
		}
	}
	if d := h.TotalStats().Sub(before); d.Fences != 0 || d.NTStores != 0 {
		t.Fatalf("100 elided empty batch polls issued %d fences, %d NTStores; want 0, 0", d.Fences, d.NTStores)
	}
}

// TestOptUnlinkedEnqueueBatchDurable crashes immediately after an
// acknowledged batch and checks every batch element survives recovery
// in order.
func TestOptUnlinkedEnqueueBatchDurable(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 32 << 20, Mode: pmem.ModeCrash, MaxThreads: 2})
	q := NewOptUnlinkedQ(h, 1)
	batch := []uint64{11, 22, 33, 44, 55}
	q.EnqueueBatch(0, batch)
	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(1)))
	h.Restart()
	r := RecoverOptUnlinkedQ(h, 1)
	for i, want := range batch {
		if v, ok := r.Dequeue(0); !ok || v != want {
			t.Fatalf("recovered dequeue %d = %d,%v, want %d", i, v, ok, want)
		}
	}
	if _, ok := r.Dequeue(0); ok {
		t.Fatal("recovered queue has extra elements")
	}
}

// TestOptUnlinkedPairAllocs pins the Go allocations of the Figure-2
// pair beside its fence pins: none. The volatile node is its slot's
// mirror entry and Dequeue's batch of one lives on its frame; it was
// one node per enqueue and one result slice per dequeue.
func TestOptUnlinkedPairAllocs(t *testing.T) {
	q := NewOptUnlinkedQ(perfHeap(t, 1), 1)
	pair := func() {
		q.Enqueue(0, 7)
		q.Dequeue(0)
	}
	for i := 0; i < 5000; i++ { // past pool and slice growth
		pair()
	}
	if got := testing.AllocsPerRun(2000, pair); got > 0 {
		t.Fatalf("Enqueue+Dequeue = %v allocs, want 0", got)
	}
}

// TestOptUnlinkedPairAllocsBytes pins the bytes beside the count:
// AllocsPerRun rounds an allocation made once per 64 pairs down to
// zero, and the 2 KiB node chunks the mirror replaced read 32 B a pair
// here.
func TestOptUnlinkedPairAllocsBytes(t *testing.T) {
	q := NewOptUnlinkedQ(perfHeap(t, 1), 1)
	const n = 100_000
	pairs := func(n int) {
		for i := 0; i < n; i++ {
			q.Enqueue(0, 7)
			q.Dequeue(0)
		}
	}
	pairs(5000) // past pool and slice growth
	if got := allocBytesPer(n, func() { pairs(n) }); got >= 1 {
		t.Fatalf("Enqueue+Dequeue = %.2f B per pair, want 0", got)
	}
}

// TestEnqueueBatchContiguous: four producers enqueue batches of one to
// seven items each while one consumer drains. EnqueueBatch links a
// whole batch with one CAS, so every batch comes out adjacent and in
// order, whatever the interleaving of the producers.
func TestEnqueueBatchContiguous(t *testing.T) {
	const producers = 4
	batches := 2000
	if raceEnabled {
		batches = 300
	}
	q := NewOptUnlinkedQ(perfHeap(t, producers+1), producers+1)
	// An item is its producer, its batch, the batch's size and its
	// position in the batch.
	item := func(p, b, size, i int) uint64 { return uint64(p)<<48 | uint64(b)<<16 | uint64(size)<<8 | uint64(i) }
	var wg sync.WaitGroup
	total := 0
	for b := 0; b < batches; b++ {
		total += producers * (1 + b%7)
	}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]uint64, 0, 7)
			for b := 0; b < batches; b++ {
				batch = batch[:0]
				for i := 0; i < 1+b%7; i++ {
					batch = append(batch, item(p, b, 1+b%7, i))
				}
				q.EnqueueBatch(p, batch)
			}
		}()
	}
	var got []uint64
	for len(got) < total {
		vs := q.DequeueBatch(producers, 16)
		if len(vs) == 0 {
			runtime.Gosched()
		}
		got = append(got, vs...)
	}
	wg.Wait()
	for k := 0; k < len(got); {
		v := got[k]
		p, b, size := int(v>>48), int(v>>16&0xffffffff), int(v>>8&0xff)
		for i := 0; i < size; i++ {
			if k+i >= len(got) || got[k+i] != item(p, b, size, i) {
				t.Fatalf("item %d of producer %d's batch %d (of %d) is not at position %d: the batch was split", i, p, b, size, k+i)
			}
		}
		k += size
	}
}
