package broker

import (
	"fmt"

	"repro/internal/obs"
)

// Heap-topic data plane: the verbs of KindDelay and KindPriority
// topics. A heap topic has exactly one shard, the topic's dheap.Q —
// a durable per-thread entry log plus a volatile min-heap on
// (key, seq) — instead of a FIFO queue. The key is the delivery
// deadline (delay topics) or the priority rank (priority topics,
// lower rank delivered first); equal keys are delivered in publish
// order via the heap's seq tiebreak.
//
// Fence budget (pinned by the heap-topic rows of testdata/budget.txt):
// a publish batch of any size costs exactly one fence, a non-empty
// dequeue batch costs exactly one fence, and sift/gauge/empty-dequeue
// paths persist nothing — heap maintenance is volatile, so delivery
// order costs zero ordered persists.

// PublishAt durably enqueues payload on a delay topic for delivery at
// deadline (any monotonic uint64 scale the caller also uses for
// DequeueReady's now). When PublishAt returns nil the message is
// durable: it survives any crash and is redelivered — never before
// its deadline — by the recovered topic. One blocking fence per call;
// use PublishAtBatch to amortize. Returns ErrWrongTopicKind on
// non-delay topics, ErrBadPayload on a payload the topic cannot hold,
// ErrTopicDeleted once retired, and dheap.ErrFull (wrapped) when the
// topic's entry pool, Threads × 1024 slots shared by every publisher,
// is out of slots.
func (t *Topic) PublishAt(tid int, payload []byte, deadline uint64) error {
	return t.heapPublish(tid, "PublishAt", KindDelay, []uint64{deadline}, [][]byte{payload})
}

// PublishAtBatch enqueues the whole batch with a single blocking
// fence: element i is delivered no earlier than deadlines[i]. The
// batch is all-or-nothing — on dheap.ErrFull, or ErrBadPayload for an
// oversized payload or a deadline count that differs from the payload
// count, nothing is published.
func (t *Topic) PublishAtBatch(tid int, payloads [][]byte, deadlines []uint64) error {
	return t.heapPublish(tid, "PublishAtBatch", KindDelay, deadlines, payloads)
}

// PublishPriority durably enqueues payload on a priority topic at the
// given rank; DequeueReady delivers the lowest rank first, equal
// ranks in publish order. Durability and error contract match
// PublishAt.
func (t *Topic) PublishPriority(tid int, payload []byte, prio uint64) error {
	return t.heapPublish(tid, "PublishPriority", KindPriority, []uint64{prio}, [][]byte{payload})
}

// PublishPriorityBatch enqueues the whole batch with a single
// blocking fence; element i carries rank prios[i].
func (t *Topic) PublishPriorityBatch(tid int, payloads [][]byte, prios []uint64) error {
	return t.heapPublish(tid, "PublishPriorityBatch", KindPriority, prios, payloads)
}

func (t *Topic) heapPublish(tid int, verb string, want TopicKind, keys []uint64, payloads [][]byte) error {
	if err := t.admit(verb, want, payloads); err != nil {
		return err
	}
	if len(payloads) != len(keys) {
		return fmt.Errorf("%w: %s on topic %q: %d payloads, %d keys",
			ErrBadPayload, verb, t.cfg.Name, len(payloads), len(keys))
	}
	if len(payloads) == 0 {
		return nil
	}
	if !t.enter() {
		return ErrTopicDeleted
	}
	defer t.exit()
	sp := t.b.span(tid)
	if err := t.heapq.PushBatch(tid, keys, payloads); err != nil {
		return fmt.Errorf("broker: topic %q: %w", t.cfg.Name, err)
	}
	sp.published(t, 0, len(payloads))
	return nil
}

// DequeueReady removes and returns the minimum-key ready message: the
// earliest-deadline message with deadline <= now on a delay topic,
// the lowest-rank message on a priority topic (now is ignored). The
// returned message is durably consumed before the call returns — a
// crash after return cannot resurrect it — at a cost of one fence.
// ok is false when nothing is ready. Returns ErrWrongTopicKind on
// FIFO topics and ErrTopicDeleted once retired.
func (t *Topic) DequeueReady(tid int, now uint64) (payload []byte, ok bool, err error) {
	ps, err := t.DequeueReadyBatch(tid, now, 1)
	if err != nil || len(ps) == 0 {
		return nil, false, err
	}
	return ps[0], true, nil
}

// DequeueReadyBatch removes up to max ready messages in key order
// (equal keys in publish order), durably consuming the whole batch
// with a single fence. An empty result persists nothing.
func (t *Topic) DequeueReadyBatch(tid int, now uint64, max int) ([][]byte, error) {
	if t.cfg.Kind == KindFIFO {
		// Both heap kinds accept this verb, so the uniform kindErr
		// (which names a single wanted kind) would mislead here.
		return nil, fmt.Errorf("%w: DequeueReady on topic %q of kind %s (want a delay or priority topic)",
			ErrWrongTopicKind, t.cfg.Name, t.cfg.Kind)
	}
	if !t.enter() {
		return nil, ErrTopicDeleted
	}
	defer t.exit()
	maxKey := now
	if t.cfg.Kind == KindPriority {
		maxKey = ^uint64(0) // every rank is always ready
	}
	sp := t.b.span(tid)
	ps := t.heapq.PopReadyBatchAppend(tid, maxKey, max, nil)
	if len(ps) > 0 {
		sp.lat(obs.OpPoll)
		sp.delivered(t, 0, nil, len(ps))
	}
	return ps, nil
}

// MinKey reports the smallest undelivered key — the next deadline on
// a delay topic, the best rank on a priority topic — and whether the
// heap is non-empty. Zero persists.
func (t *Topic) MinKey() (uint64, bool) {
	if !t.cfg.Kind.heapKind() || !t.enter() {
		return 0, false
	}
	defer t.exit()
	return t.heapq.MinKey()
}
