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
