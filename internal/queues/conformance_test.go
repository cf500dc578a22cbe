package queues_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pmem"
	"repro/internal/qtest"
	"repro/internal/queues"
)

// each runs audit on every queue of queues.All(), or on every durable
// one, as a subtest named after the queue.
func each(t *testing.T, durable bool, audit func(*testing.T, queues.Info)) {
	for _, in := range queues.All() {
		if durable && !in.Durable {
			continue
		}
		t.Run(in.Name, func(t *testing.T) { audit(t, in) })
	}
}

func lookup(t *testing.T, name string) queues.Info {
	t.Helper()
	in, ok := queues.Lookup(name)
	if !ok {
		t.Fatalf("queue %q not registered", name)
	}
	return in
}

func TestSequentialSemanticsVsModel(t *testing.T) { each(t, false, qtest.RunSemantics) }

// TestConcurrentNoDupNoLoss: four threads of 3 000 operations each, with
// the real-time dequeue order check.
func TestConcurrentNoDupNoLoss(t *testing.T) {
	each(t, false, func(t *testing.T, in queues.Info) { qtest.RunConcurrent(t, in, 4, 3000) })
}

// TestRecoveryQuiescent: eight crash cycles at quiescent points on one
// heap, with continued operation between them, so recovered free lists
// are reused.
func TestRecoveryQuiescent(t *testing.T) {
	each(t, true, func(t *testing.T, in queues.Info) { qtest.RunCrashRecovery(t, in, 8) })
}

// TestRecoveryRepeatedCrashCycles: the same cycles with a producer tid
// and a consumer tid, as a broker runs them.
func TestRecoveryRepeatedCrashCycles(t *testing.T) {
	each(t, true, func(t *testing.T, in queues.Info) { qtest.RunSplitCrashRecovery(t, in, 5) })
}

func TestRecoveryEmptyQueue(t *testing.T)     { each(t, true, qtest.RunRecoveryEmptyQueue) }
func TestSingleItemRecovery(t *testing.T)     { each(t, true, qtest.RunSingleItemRecovery) }
func TestRecoveryIdempotent(t *testing.T)     { each(t, true, qtest.RunRecoveryIdempotent) }
func TestZeroAndDuplicateValues(t *testing.T) { each(t, false, qtest.RunZeroAndDuplicateValues) }
func TestFailingDequeuePersistsEmptiness(t *testing.T) {
	each(t, true, qtest.RunFailingDequeuePersistsEmptiness)
}
func TestRecoveryWithLargeQueue(t *testing.T) { each(t, true, qtest.RunRecoveryWithLargeQueue) }

// TestQuickCrashRecoveryProperty is the randomized counterpart of the
// exhaustive crash-point sweeps, on the paper's four queues.
func TestQuickCrashRecoveryProperty(t *testing.T) {
	for _, name := range []string{"unlinked", "linked", "opt-unlinked", "opt-linked"} {
		t.Run(name, func(t *testing.T) { qtest.RunCrashProperty(t, lookup(t, name)) })
	}
}

// TestCrashSweepRecycledSlots is the exhaustive crash-point sweep over
// slots recycled across tids (see qtest.RunRecycledCrashSweep), for the
// word codec, plain and acked; package blobq runs the same sweep for
// the blob codec.
func TestCrashSweepRecycledSlots(t *testing.T) {
	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	for _, name := range []string{"opt-unlinked", "opt-unlinked-acked"} {
		t.Run(name, func(t *testing.T) { qtest.RunRecycledCrashSweep(t, lookup(t, name), stride) })
	}
}

// The crash tests below need only the exported API; they live here so
// that they drain with qtest.Drain, which an in-package test cannot
// import.

// TestOptUnlinkedDequeueBatchCrash fuzzes the crash window of the
// amortized consume path: items returned by a completed DequeueBatch
// are acknowledged (never recovered again); a crash mid-batch may cost
// at most the unacknowledged window; recovery always yields a
// contiguous FIFO suffix.
func TestOptUnlinkedDequeueBatchCrash(t *testing.T) {
	const n, window = 120, 8
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		h := pmem.New(pmem.Config{Bytes: 32 << 20, Mode: pmem.ModeCrash, MaxThreads: 2})
		q := queues.NewOptUnlinkedQ(h, 1)
		for i := 1; i <= n; i++ {
			q.Enqueue(0, uint64(i))
		}
		rng := rand.New(rand.NewSource(seed))
		h.ScheduleCrashAtAccess(h.AccessCount() + int64(rng.Intn(400)) + 1)
		var acked []uint64
		for {
			var vs []uint64
			if pmem.Protect(func() { vs = q.DequeueBatch(0, window) }) {
				break // crash mid-batch: the window is unacknowledged
			}
			acked = append(acked, vs...)
			if len(vs) == 0 {
				h.CrashNow()
				break
			}
		}
		h.FinalizeCrash(rand.New(rand.NewSource(seed * 13)))
		h.Restart()
		recovered := qtest.Drain(queues.RecoverOptUnlinkedQ(h, 1), 0)
		// Acknowledged items must never reappear.
		ackedSet := map[uint64]bool{}
		for _, v := range acked {
			ackedSet[v] = true
		}
		for _, v := range recovered {
			if ackedSet[v] {
				t.Fatalf("seed %d: acknowledged item %d recovered again", seed, v)
			}
		}
		// Recovery yields a contiguous suffix 1..n minus a prefix.
		for i, v := range recovered {
			if want := n - len(recovered) + i + 1; v != uint64(want) {
				t.Fatalf("seed %d: recovered[%d] = %d, want %d (suffix broken)", seed, i, v, want)
			}
		}
		// At most one unacknowledged window may vanish (its final
		// NTStore can land without the fence).
		if lost := n - len(acked) - len(recovered); lost < 0 || lost > window {
			t.Fatalf("seed %d: %d items lost, allowance %d (acked %d, recovered %d)",
				seed, lost, window, len(acked), len(recovered))
		}
	}
}

// TestDurableMSQFullRecoversPendingResult: a dequeue cut by a crash
// after its durable claim must be reported by recovery with the exact
// value it obtained, and that value must not also reappear in the
// queue.
func TestDurableMSQFullRecoversPendingResult(t *testing.T) {
	// Sweep crash points across a single dequeue; at every point the
	// recovery outcome must be consistent: either the dequeue never
	// claimed (value still queued, no result) or it claimed (value
	// gone, result reported).
	for crashAt := int64(1); crashAt < 60; crashAt++ {
		h := pmem.New(pmem.Config{Bytes: 8 << 20, Mode: pmem.ModeCrash, MaxThreads: 3})
		q := queues.NewDurableMSQFull(h, 2)
		q.Enqueue(0, 41)
		q.Enqueue(0, 42)
		h.ScheduleCrashAtAccess(crashAt)
		var returned bool
		crashed := pmem.Protect(func() {
			if v, ok := q.Dequeue(1); !ok || v != 41 {
				t.Fatalf("crashAt %d: dequeue returned (%d,%v)", crashAt, v, ok)
			}
			returned = true
		})
		if !crashed {
			h.CrashNow()
		}
		h.FinalizeCrash(rand.New(rand.NewSource(crashAt)))
		h.Restart()
		rq, results := queues.RecoverDurableMSQFull(h, 2)
		rest := qtest.Drain(rq, 0)

		res := results[1]
		if returned {
			// Completed dequeue: 41 must be gone, and since the
			// result cell is durable before completion the result
			// must be reported.
			if res.State != "value" || res.Value != 41 {
				t.Fatalf("crashAt %d: completed dequeue result not recovered: %+v", crashAt, res)
			}
			if !slices.Equal(rest, []uint64{42}) {
				t.Fatalf("crashAt %d: queue after completed dequeue = %v", crashAt, rest)
			}
			continue
		}
		switch res.State {
		case "value":
			// The dequeue is linearized: value consumed exactly once.
			if res.Value != 41 {
				t.Fatalf("crashAt %d: recovered result = %d, want 41", crashAt, res.Value)
			}
			if !slices.Equal(rest, []uint64{42}) {
				t.Fatalf("crashAt %d: value both reported and queued: %v", crashAt, rest)
			}
		case "none", "pending-not-linearized":
			// Not linearized: the value must still be in the queue.
			if !slices.Equal(rest, []uint64{41, 42}) {
				t.Fatalf("crashAt %d: state %q but queue = %v", crashAt, res.State, rest)
			}
		default:
			t.Fatalf("crashAt %d: unexpected outcome %+v (queue %v)", crashAt, res, rest)
		}
	}
}
