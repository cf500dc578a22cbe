package queues

import (
	"testing"

	"repro/internal/pmem"
)

func perfHeap(tb testing.TB, threads int) *pmem.Heap {
	tb.Helper()
	return pmem.New(pmem.Config{Bytes: 32 << 20, Mode: pmem.ModePerf, MaxThreads: threads + 1})
}

func crashHeap(tb testing.TB, threads int) *pmem.Heap {
	tb.Helper()
	return pmem.New(pmem.Config{Bytes: 32 << 20, Mode: pmem.ModeCrash, MaxThreads: threads + 1})
}

func TestFIFOOrderSingleThread(t *testing.T) {
	for _, in := range All() {
		t.Run(in.Name, func(t *testing.T) {
			q := in.New(perfHeap(t, 1), 1)
			const n = 500
			for i := uint64(1); i <= n; i++ {
				q.Enqueue(0, i)
			}
			for i := uint64(1); i <= n; i++ {
				v, ok := q.Dequeue(0)
				if !ok || v != i {
					t.Fatalf("dequeue %d: got (%d,%v)", i, v, ok)
				}
			}
			if _, ok := q.Dequeue(0); ok {
				t.Fatal("queue should be empty")
			}
		})
	}
}

func TestEmptyDequeue(t *testing.T) {
	for _, in := range All() {
		t.Run(in.Name, func(t *testing.T) {
			q := in.New(perfHeap(t, 1), 1)
			for i := 0; i < 5; i++ {
				if v, ok := q.Dequeue(0); ok {
					t.Fatalf("empty dequeue returned (%d,true)", v)
				}
			}
			q.Enqueue(0, 7)
			if v, ok := q.Dequeue(0); !ok || v != 7 {
				t.Fatalf("got (%d,%v), want (7,true)", v, ok)
			}
			if _, ok := q.Dequeue(0); ok {
				t.Fatal("queue should be empty again")
			}
		})
	}
}

// opStats measures per-operation persist statistics in steady state
// (after a warmup that ensures no new allocator areas are created
// during measurement).
func opStats(tb testing.TB, in Info) (enq, deq, emptyDeq pmem.Stats) {
	tb.Helper()
	h := perfHeap(tb, 1)
	q := in.New(h, 1)
	for i := 0; i < 300; i++ {
		q.Enqueue(0, uint64(i))
	}
	for i := 0; i < 300; i++ {
		q.Dequeue(0)
	}
	q.Dequeue(0)

	const n = 100
	base := h.TotalStats()
	for i := 0; i < n; i++ {
		q.Enqueue(0, uint64(i))
	}
	s1 := h.TotalStats()
	for i := 0; i < n; i++ {
		if _, ok := q.Dequeue(0); !ok {
			tb.Fatal("unexpected empty queue")
		}
	}
	s2 := h.TotalStats()
	for i := 0; i < n; i++ {
		if _, ok := q.Dequeue(0); ok {
			tb.Fatal("queue should be empty")
		}
	}
	s3 := h.TotalStats()
	enq = s1.Sub(base)
	deq = s2.Sub(s1)
	emptyDeq = s3.Sub(s2)
	return enq, deq, emptyDeq
}

// TestOneFencePerOperation verifies the paper's headline claim for all
// four novel queues: exactly one blocking persist (SFENCE) per
// operation — enqueue, successful dequeue and failing dequeue alike —
// meeting the lower bound of Cohen et al. OptUnlinkedQ goes below the
// bound on repeated failing dequeues: its empty-poll fence elision
// skips the persist when the observed head index is already durable
// from this thread's previous persist, so the whole empty phase (which
// follows a successful, persisted dequeue) costs zero fences.
func TestOneFencePerOperation(t *testing.T) {
	for _, name := range []string{"unlinked", "unlinked-nodcas", "linked", "opt-unlinked", "opt-linked", "opt-unlinked-acked"} {
		in, _ := Lookup(name)
		t.Run(name, func(t *testing.T) {
			enq, deq, empty := opStats(t, in)
			if enq.Fences != 100 {
				t.Errorf("enqueue fences = %d per 100 ops, want exactly 100", enq.Fences)
			}
			// On the acked queue a Dequeue is a lease (zero persist
			// instructions) plus an immediate acknowledgment (one NTStore
			// of the acked index, one fence) — still exactly one blocking
			// persist per successful dequeue.
			if deq.Fences != 100 {
				t.Errorf("dequeue fences = %d per 100 ops, want exactly 100", deq.Fences)
			}
			wantEmpty := uint64(100)
			switch name {
			case "opt-unlinked":
				wantEmpty = 0 // elision: the observed index is already durable
			case "opt-unlinked-acked":
				// A failing leased dequeue issues nothing at all: emptiness
				// is durable exactly when the emptying dequeues are acked,
				// which the preceding (acknowledged) dequeues already made
				// so.
				wantEmpty = 0
			}
			if empty.Fences != wantEmpty {
				t.Errorf("failing dequeue fences = %d per 100 ops, want exactly %d", empty.Fences, wantEmpty)
			}
		})
	}
}

// TestZeroPostFlushAccesses verifies the second-amendment claim: the
// optimized queues never touch a cache line after it was explicitly
// flushed.
func TestZeroPostFlushAccesses(t *testing.T) {
	for _, name := range []string{"opt-unlinked", "opt-linked", "opt-unlinked-acked"} {
		in, _ := Lookup(name)
		t.Run(name, func(t *testing.T) {
			enq, deq, empty := opStats(t, in)
			if n := enq.PostFlushAccesses + deq.PostFlushAccesses + empty.PostFlushAccesses; n != 0 {
				t.Errorf("post-flush accesses = %d, want 0 (enq %d, deq %d, empty %d)",
					n, enq.PostFlushAccesses, deq.PostFlushAccesses, empty.PostFlushAccesses)
			}
		})
	}
}

// TestFirstAmendmentAccessesFlushedContent documents why UnlinkedQ and
// LinkedQ underperform despite minimal fences: they do access flushed
// lines (head reads, tail index reads, backward-walk reads).
func TestFirstAmendmentAccessesFlushedContent(t *testing.T) {
	for _, name := range []string{"unlinked", "linked", "durable-msq", "izraelevitz", "nvtraverse"} {
		in, _ := Lookup(name)
		t.Run(name, func(t *testing.T) {
			enq, deq, _ := opStats(t, in)
			if enq.PostFlushAccesses+deq.PostFlushAccesses == 0 {
				t.Errorf("%s shows zero post-flush accesses; expected some", name)
			}
		})
	}
}

// TestDurableMSQFenceCounts pins the baseline's cost: two fences per
// enqueue, one per dequeue — more blocking persists than the paper's
// queues, as Section 10 states.
func TestDurableMSQFenceCounts(t *testing.T) {
	in, _ := Lookup("durable-msq")
	enq, deq, empty := opStats(t, in)
	if enq.Fences != 200 {
		t.Errorf("enqueue fences = %d per 100 ops, want 200", enq.Fences)
	}
	if deq.Fences != 100 {
		t.Errorf("dequeue fences = %d per 100 ops, want 100", deq.Fences)
	}
	if empty.Fences != 100 {
		t.Errorf("failing dequeue fences = %d per 100 ops, want 100", empty.Fences)
	}
}

// TestTransformsUseMoreFences sanity-checks that the generic
// transforms pay far more fences than the tailor-made queues.
func TestTransformsUseMoreFences(t *testing.T) {
	izr, _ := Lookup("izraelevitz")
	nvt, _ := Lookup("nvtraverse")
	izrEnq, izrDeq, _ := opStats(t, izr)
	nvtEnq, _, _ := opStats(t, nvt)
	if izrEnq.Fences < 400 {
		t.Errorf("IzraelevitzQ enqueue fences = %d per 100 ops, expected >= 400", izrEnq.Fences)
	}
	if izrDeq.Fences < 300 {
		t.Errorf("IzraelevitzQ dequeue fences = %d per 100 ops, expected >= 300", izrDeq.Fences)
	}
	if nvtEnq.Fences >= izrEnq.Fences {
		t.Errorf("NVTraverseQ should fence less than IzraelevitzQ: %d vs %d", nvtEnq.Fences, izrEnq.Fences)
	}
	if nvtEnq.Fences < 100 {
		t.Errorf("NVTraverseQ enqueue fences = %d per 100 ops, expected >= 100", nvtEnq.Fences)
	}
}

// TestVolatileMSQNoPersists confirms the volatile reference issues no
// persist instructions at all.
func TestVolatileMSQNoPersists(t *testing.T) {
	in, _ := Lookup("msq")
	enq, deq, empty := opStats(t, in)
	total := enq.Fences + deq.Fences + empty.Fences + enq.Flushes + deq.Flushes + empty.Flushes
	if total != 0 {
		t.Errorf("volatile MSQ issued %d persist instructions", total)
	}
}
