// Package qtest is a reusable conformance suite for Queue
// implementations: sequential semantics against a model, concurrent
// no-duplication/no-loss/FIFO accounting, and quiescent
// crash-recovery exactness for durable queues.
package qtest

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pmem"
	"repro/internal/queues"
	"repro/internal/ssmem"
)

// HeapBytes is the heap size used by the suite.
const HeapBytes = 64 << 20

// Drain dequeues until empty and returns the items in order.
func Drain(q queues.Queue, tid int) []uint64 {
	var out []uint64
	for {
		v, ok := q.Dequeue(tid)
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// RunSemantics checks single-threaded behaviour against a slice model.
func RunSemantics(t *testing.T, in queues.Info) {
	t.Helper()
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := pmem.New(pmem.Config{Bytes: HeapBytes, MaxThreads: 2})
		q := in.New(h, 1)
		var model []uint64
		next := uint64(1)
		for op := 0; op < 2000; op++ {
			if rng.Intn(2) == 0 {
				q.Enqueue(0, next)
				model = append(model, next)
				next++
			} else {
				v, ok := q.Dequeue(0)
				switch {
				case len(model) == 0 && ok:
					t.Fatalf("seed %d: dequeue on empty returned %d", seed, v)
				case len(model) > 0 && (!ok || v != model[0]):
					t.Fatalf("seed %d: got (%d,%v), want (%d,true)", seed, v, ok, model[0])
				case len(model) > 0:
					model = model[1:]
				}
			}
		}
		got := Drain(q, 0)
		if len(got) != len(model) {
			t.Fatalf("seed %d: drained %d, want %d", seed, len(got), len(model))
		}
		for i := range got {
			if got[i] != model[i] {
				t.Fatalf("seed %d: drain[%d]=%d want %d", seed, i, got[i], model[i])
			}
		}
	}
}

// deqEvent records one successful dequeue with real-time stamps taken
// from a shared atomic clock: begin before the operation's invocation
// and end after its response.
type deqEvent struct {
	begin, end uint64
	value      uint64
}

// RunConcurrent checks no-duplication, no-loss, per-enqueuer FIFO and
// real-time dequeue ordering under concurrency.
func RunConcurrent(t *testing.T, in queues.Info, threads, opsPer int) {
	t.Helper()
	h := pmem.New(pmem.Config{Bytes: HeapBytes, MaxThreads: threads + 1})
	q := in.New(h, threads)
	enqueued := make([][]uint64, threads)
	dequeued := make([][]deqEvent, threads)
	var clock atomic.Uint64
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(tid) + 99))
			seq := uint64(1)
			for i := 0; i < opsPer; i++ {
				if rng.Intn(2) == 0 {
					v := uint64(tid)<<32 | seq
					seq++
					q.Enqueue(tid, v)
					enqueued[tid] = append(enqueued[tid], v)
				} else {
					begin := clock.Add(1)
					if v, ok := q.Dequeue(tid); ok {
						dequeued[tid] = append(dequeued[tid], deqEvent{begin: begin, end: clock.Add(1), value: v})
					}
				}
			}
		}(tid)
	}
	wg.Wait()
	remaining := Drain(q, 0)

	all := map[uint64]bool{}
	for _, es := range enqueued {
		for _, v := range es {
			all[v] = true
		}
	}
	seen := map[uint64]bool{}
	check := func(v uint64) {
		if !all[v] {
			t.Fatalf("phantom value %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate value %d", v)
		}
		seen[v] = true
	}
	for _, ds := range dequeued {
		for _, d := range ds {
			check(d.value)
		}
	}
	lastSeq := map[uint64]uint64{}
	for _, v := range remaining {
		check(v)
		tid, seq := v>>32, v&0xffffffff
		if seq <= lastSeq[tid] {
			t.Fatalf("FIFO violation for enqueuer %d: seq %d after %d", tid, seq, lastSeq[tid])
		}
		lastSeq[tid] = seq
	}
	if len(seen) != len(all) {
		t.Fatalf("lost values: %d enqueued, %d accounted", len(all), len(seen))
	}
	checkRealTimeOrder(t, dequeued)
}

// checkRealTimeOrder verifies a linearizability consequence that the
// drain checks cannot see: if two completed dequeues returned values
// of the same enqueuer and one finished strictly before the other
// began, the earlier dequeue must have returned the earlier-enqueued
// value (same-thread enqueues are real-time ordered, and FIFO dequeues
// respect enqueue linearization order).
func checkRealTimeOrder(t *testing.T, dequeued [][]deqEvent) {
	t.Helper()
	byEnq := map[uint64][]deqEvent{}
	for _, ds := range dequeued {
		for _, d := range ds {
			byEnq[d.value>>32] = append(byEnq[d.value>>32], d)
		}
	}
	for enq, evs := range byEnq {
		byEnd := append([]deqEvent(nil), evs...)
		sort.Slice(byEnd, func(i, j int) bool { return byEnd[i].end < byEnd[j].end })
		byBegin := append([]deqEvent(nil), evs...)
		sort.Slice(byBegin, func(i, j int) bool { return byBegin[i].begin < byBegin[j].begin })
		i := 0
		var maxSeqEnded uint64
		for _, d := range byBegin {
			for i < len(byEnd) && byEnd[i].end < d.begin {
				if s := byEnd[i].value & 0xffffffff; s > maxSeqEnded {
					maxSeqEnded = s
				}
				i++
			}
			if s := d.value & 0xffffffff; maxSeqEnded > s {
				t.Fatalf("real-time order violation for enqueuer %d: a dequeue of seq <= %d began after a dequeue of seq %d completed", enq, s, maxSeqEnded)
			}
		}
	}
}

// RunCrashRecovery drives a durable queue through crash/recover
// cycles at quiescent points and demands exact state reconstruction.
func RunCrashRecovery(t *testing.T, in queues.Info, cycles int) {
	t.Helper()
	if in.Recover == nil {
		t.Fatal("queue is not durable")
	}
	h := pmem.New(pmem.Config{Bytes: HeapBytes, Mode: pmem.ModeCrash, MaxThreads: 3})
	q := in.New(h, 2)
	var model []uint64
	next := uint64(1)
	rng := rand.New(rand.NewSource(7))
	for c := 0; c < cycles; c++ {
		for op := 0; op < 300; op++ {
			if rng.Intn(3) < 2 {
				q.Enqueue(op%2, next)
				model = append(model, next)
				next++
			} else if _, ok := q.Dequeue(op % 2); ok {
				model = model[1:]
			}
		}
		h.CrashNow()
		h.FinalizeCrash(rand.New(rand.NewSource(int64(c))))
		h.Restart()
		q = in.Recover(h, 2)
	}
	got := Drain(q, 0)
	if len(got) != len(model) {
		t.Fatalf("drained %d items, want %d", len(got), len(model))
	}
	for i := range got {
		if got[i] != model[i] {
			t.Fatalf("drain[%d]=%d want %d", i, got[i], model[i])
		}
	}
}

// RunRecycledCrashSweep cuts a short script at every one of its memory
// accesses (every stride-th, for stride > 1) in a queue whose threads
// are split the way a broker's are: tid 0 only enqueues, tid 1 only
// dequeues. The warm-up runs until the slots tid 1 retired have
// crossed the allocator's depot, so every enqueue of the script writes
// into a slot of tid 1's that still carries, on media, the set linked
// flag and the index of its previous life. Recovery must resurrect
// exactly the durable suffix, in index order, whatever the cut.
func RunRecycledCrashSweep(t *testing.T, in queues.Info, stride int64) {
	t.Helper()
	if raceEnabled {
		stride *= 6
	}
	script := []bool{true, true, false, false, true, true, false, true, false, false}
	// warm returns a queue on h that holds model, its next enqueue
	// guaranteed a recycled slot.
	warm := func(h *pmem.Heap) (q queues.Queue, model []uint64) {
		q = in.New(h, 2)
		pools := q.(interface {
			PoolStats() (nodes, aux ssmem.Stats)
		})
		var nodesCrossed, auxCrossed bool
		for v := uint64(1); ; v++ {
			q.Enqueue(0, v)
			model = append(model, v)
			if v%4 != 0 { // keep a backlog for the script's dequeues
				q.Dequeue(1)
				model = model[1:]
			}
			// A chunk seen waiting in the depot goes to tid 0, which
			// never retires and so has no slots of its own, and serves
			// its next 128 allocations; the two pools donate within an
			// operation of each other.
			nodes, aux := pools.PoolStats()
			nodesCrossed = nodesCrossed || nodes.DepotFree > 0
			auxCrossed = auxCrossed || aux.DepotFree > 0 || aux.Areas == 0
			if nodesCrossed && auxCrossed {
				return q, model
			}
			if v > 1<<14 {
				t.Fatal("warm-up never saw a retired slot reach the depot")
			}
		}
	}
	cut := func(k int64) (total int64) {
		h := pmem.New(pmem.Config{Bytes: HeapBytes, Mode: pmem.ModeCrash, MaxThreads: 3})
		q, model := warm(h)
		next := model[len(model)-1] + 1
		h.ScheduleCrashAtAccess(k)
		var pendingEnq, pendingDeq bool
		for _, enq := range script {
			crashed := pmem.Protect(func() {
				if enq {
					q.Enqueue(0, next)
				} else {
					q.Dequeue(1)
				}
			})
			if crashed {
				pendingEnq, pendingDeq = enq, !enq
				break
			}
			if enq {
				model = append(model, next)
				next++
			} else {
				model = model[1:]
			}
		}
		total = h.AccessCount()
		if !h.Crashed() {
			h.CrashNow()
		}
		h.FinalizeCrash(rand.New(rand.NewSource(k)))
		h.Restart()
		got := Drain(in.Recover(h, 2), 1)
		// The cut operation was pending: it may or may not have taken
		// effect, and nothing else may differ.
		switch {
		case pendingEnq && len(got) == len(model)+1:
			model = append(model, next)
		case pendingDeq && len(got) == len(model)-1:
			model = model[1:]
		}
		if !slices.Equal(got, model) {
			t.Fatalf("crash at access %d (pending enqueue %v, dequeue %v): recovered %v, want %v",
				k, pendingEnq, pendingDeq, got, model)
		}
		return total
	}
	total := cut(1 << 60) // never fires: measures the script
	for k := int64(1); k <= total; k += stride {
		cut(k)
	}
}
