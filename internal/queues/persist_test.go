package queues_test

import (
	"testing"

	"repro/internal/harness"
)

// The paper's claims are counts, and cmd/fencecount's golden table
// (testdata/want.txt) holds them: one row per queue of fences, flushes,
// NTStores and post-flush accesses per enqueue, dequeue and failing
// dequeue. Each pin below measures its queues as that table does and
// diffs their rows.
const persistTable = "../../cmd/fencecount/testdata/want.txt"

// persistRows diffs each named queue's measured row against the
// golden one, a subtest per queue.
func persistRows(t *testing.T, names ...string) {
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			if err := harness.CheckPersistRow(persistTable, name); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestOneFencePerOperation: the four novel queues and the ack mode
// issue exactly one fence per enqueue and per dequeue, the lower bound
// of Cohen et al. Failing dequeues fence once too, except where the
// observed head is already durable: opt-unlinked elides that persist
// and opt-unlinked-acked issues nothing, since acknowledging the
// emptying dequeues made emptiness durable.
func TestOneFencePerOperation(t *testing.T) {
	persistRows(t, "unlinked", "unlinked-nodcas", "linked", "opt-unlinked", "opt-linked", "opt-unlinked-acked")
}

// TestZeroPostFlushAccesses: the second amendment. The optimized
// queues never touch a line after it was explicitly flushed.
func TestZeroPostFlushAccesses(t *testing.T) {
	persistRows(t, "opt-unlinked", "opt-linked", "opt-unlinked-acked")
}

// TestFirstAmendmentAccessesFlushedContent: why UnlinkedQ and LinkedQ
// trail despite minimal fences. They and the baselines read lines they
// flushed (head and tail indices, backward walks).
func TestFirstAmendmentAccessesFlushedContent(t *testing.T) {
	persistRows(t, "unlinked", "linked", "durable-msq", "izraelevitz", "nvtraverse")
}

// TestDurableMSQFenceCounts: the baseline pays two fences per enqueue,
// more than the paper's queues (Section 10).
func TestDurableMSQFenceCounts(t *testing.T) { persistRows(t, "durable-msq") }

// TestDurableMSQFullFenceCounts: detectability costs three fences per
// dequeue, the "additional cost" of Section 10.
func TestDurableMSQFullFenceCounts(t *testing.T) { persistRows(t, "durable-msq-full") }

// TestTransformsUseMoreFences: the generic transforms pay several
// fences per operation.
func TestTransformsUseMoreFences(t *testing.T) { persistRows(t, "izraelevitz", "nvtraverse") }

// TestVolatileMSQNoPersists: the volatile reference issues no persist
// instruction.
func TestVolatileMSQNoPersists(t *testing.T) { persistRows(t, "msq") }

// TestOptQueueNTStoreAccounting: the optimized queues write their
// per-thread persistent locals only with NTStores (Section 6.3), which
// their rows' ntst columns count; the plain-store ablation, which has
// no row, reads flushed content instead.
func TestOptQueueNTStoreAccounting(t *testing.T) {
	persistRows(t, "opt-unlinked", "opt-linked")
	if c := harness.MeasureOps(lookup(t, "opt-unlinked-plainstore")); c.Deq.PostFlushAccesses == 0 {
		t.Error("plain-store ablation shows no post-flush accesses; expected some")
	}
}
