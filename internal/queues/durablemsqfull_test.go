package queues

import (
	"math/rand"
	"testing"

	"repro/internal/pmem"
)

// TestDurableMSQFullFenceCounts pins the cost of the detectable
// version: two fences per enqueue and three per dequeue — the
// "additional cost" Section 10 mentions.
func TestDurableMSQFullFenceCounts(t *testing.T) {
	in, _ := Lookup("durable-msq-full")
	enq, deq, empty := opStats(t, in)
	if enq.Fences != 200 {
		t.Errorf("enqueue fences = %d per 100 ops, want 200", enq.Fences)
	}
	if deq.Fences != 300 {
		t.Errorf("dequeue fences = %d per 100 ops, want 300", deq.Fences)
	}
	if empty.Fences != 200 {
		t.Errorf("failing dequeue fences = %d per 100 ops, want 200", empty.Fences)
	}
}

// TestDurableMSQFullResultsPerThread: concurrent claimed dequeues cut
// by a crash are attributed to the right threads.
func TestDurableMSQFullResultsPerThread(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 8 << 20, Mode: pmem.ModeCrash, MaxThreads: 4})
	q := NewDurableMSQFull(h, 3)
	for i := uint64(1); i <= 10; i++ {
		q.Enqueue(0, i*100)
	}
	// Two sequential dequeues by different threads, then crash before
	// any further progress: both results must be recoverable because
	// claims are durable before each dequeue returns.
	a, _ := q.Dequeue(1)
	b, _ := q.Dequeue(2)
	q.Dequeue(0) // and an emptiness probe result... (queue non-empty)
	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(5)))
	h.Restart()
	_, results := RecoverDurableMSQFull(h, 3)
	if results[1].State != "value" || results[1].Value != a {
		t.Fatalf("tid1 outcome %+v, want value %d", results[1], a)
	}
	if results[2].State != "value" || results[2].Value != b {
		t.Fatalf("tid2 outcome %+v, want value %d", results[2], b)
	}
	if results[0].State != "value" {
		t.Fatalf("tid0 outcome %+v, want a value", results[0])
	}
}

// TestDurableMSQFullEmptyOutcome: a failing dequeue's outcome is
// recoverable as "empty".
func TestDurableMSQFullEmptyOutcome(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 8 << 20, Mode: pmem.ModeCrash, MaxThreads: 2})
	q := NewDurableMSQFull(h, 1)
	q.Enqueue(0, 1)
	q.Dequeue(0)
	q.Dequeue(0) // fails: empty
	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(6)))
	h.Restart()
	_, results := RecoverDurableMSQFull(h, 1)
	if results[0].State != "empty" {
		t.Fatalf("outcome %+v, want empty", results[0])
	}
}
