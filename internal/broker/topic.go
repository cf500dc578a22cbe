package broker

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/dheap"
	"repro/internal/obs"
)

// ErrTopicDeleted is returned by the data plane — publish paths and
// drain helpers — when the topic has been retired by DeleteTopic. A
// caller holding a *Topic across a delete observes this typed error
// instead of racing a reclaimed shard window; nothing it published
// before the delete is lost (the delete drained nothing — retired
// messages are dropped with the topic, as documented on DeleteTopic).
var ErrTopicDeleted = errors.New("broker: topic deleted")

// ErrWrongTopicKind reports a verb applied to a topic of the wrong
// kind: a FIFO verb (Publish/PublishKey/PublishBatch, group
// subscription) on a delay/priority topic, or a heap verb
// (PublishAt/PublishPriority/DequeueReady) on a FIFO
// topic. Every refusing path wraps this sentinel with the same
// diagnostic shape (verb, topic, actual kind, wanted kind) — the
// ErrLeaseCapacity convention — so callers test
// errors.Is(err, ErrWrongTopicKind) regardless of which path refused.
var ErrWrongTopicKind = errors.New("broker: operation does not match topic kind")

// kindErr builds the uniform ErrWrongTopicKind diagnostic.
func (t *Topic) kindErr(verb string, want TopicKind) error {
	return fmt.Errorf("%w: %s on topic %q of kind %s (want a %s topic)",
		ErrWrongTopicKind, verb, t.cfg.Name, t.cfg.Kind, want)
}

// Topic is one named, sharded durable message stream. Publishing is
// safe from any number of producers (each with its own tid); ordering
// is FIFO per shard, so two messages routed to the same shard are
// delivered in publish order. A topic's shards may be spread over
// several member heaps of the broker's set, dealt round-robin.
type Topic struct {
	b      *Broker
	cfg    TopicConfig
	base   int // global ordinal of shard 0 (catalog creation order)
	locs   []shardLoc
	shards []*shard      // KindFIFO
	heapq  *dheap.Q      // KindDelay / KindPriority: the topic's one shard
	rr     atomic.Uint64 // round-robin routing cursor

	// deleted flips exactly once, before the topic's tombstone is
	// appended: the data plane refuses the topic (ErrTopicDeleted) from
	// that point on. inflight counts data-plane operations currently
	// inside a shard; DeleteTopic drains it to zero after flipping
	// deleted and before reclaiming the windows, so no straggler that
	// passed the flag check can race a window's reuse.
	deleted  atomic.Bool
	inflight atomic.Int64

	// ostats is the topic's gauge state, non-nil exactly when the
	// broker has an observer (set before the topic becomes visible).
	ostats *obs.TopicStats
}

// Name returns the topic name.
func (t *Topic) Name() string { return t.cfg.Name }

// register creates (or, after recovery, re-binds) the topic's gauge
// state in o and points its footprint gauges at the shards' pools; a
// no-op on an unobserved broker.
func (t *Topic) register(o *obs.Observer) {
	if o == nil {
		return
	}
	t.ostats = o.RegisterTopic(t.Name(), t.Shards())
	t.ostats.SetNVRAM(t.nvram)
}

// nvram sums the allocator footprint of the topic's FIFO shards' node
// pools: areas registered, and slots in them that hold no message. Heap
// topics keep a fixed arena and report zeros.
func (t *Topic) nvram() (areas, freeSlots int) {
	for _, s := range t.shards {
		st := s.PoolStats()
		areas += st.Areas
		freeSlots += st.ThreadFree + st.DepotFree + st.Limbo
	}
	return areas, freeSlots
}

// Acked reports whether the topic's shards require acknowledgment
// (TopicConfig.Acked).
func (t *Topic) Acked() bool { return t.cfg.Acked }

// Shards returns the topic's shard count.
func (t *Topic) Shards() int { return len(t.locs) }

// Deleted reports whether the topic has been retired by DeleteTopic.
func (t *Topic) Deleted() bool { return t.deleted.Load() }

// enter registers one data-plane operation on the topic, refusing it
// once the topic is retired; every true return must be paired with
// exit. The double flag check brackets the increment, so either the
// operation is visible to DeleteTopic's drain before it touches a
// shard, or it observes the flag and touches nothing.
func (t *Topic) enter() bool {
	if t.deleted.Load() {
		return false
	}
	t.inflight.Add(1)
	if t.deleted.Load() {
		t.inflight.Add(-1)
		return false
	}
	return true
}

func (t *Topic) exit() { t.inflight.Add(-1) }

// MaxPayload reports the payload capacity in bytes (8 for fixed
// topics).
func (t *Topic) MaxPayload() int {
	if t.cfg.MaxPayload == 0 {
		return 8
	}
	return t.cfg.MaxPayload
}

// ErrBadPayload reports a publish refused for the shape of its
// arguments: a payload that is not exactly 8 bytes on a fixed-width
// topic or exceeds MaxPayload on a variable one, or a heap-topic batch
// whose payloads and keys differ in number. Nothing was published and
// nothing persisted.
var ErrBadPayload = errors.New("broker: payload refused")

func (t *Topic) checkPayload(p []byte) error {
	if t.cfg.MaxPayload == 0 {
		if len(p) != 8 {
			return fmt.Errorf("%w: topic %q is fixed-width; payload must be exactly 8 bytes, got %d",
				ErrBadPayload, t.cfg.Name, len(p))
		}
		return nil
	}
	if len(p) > t.cfg.MaxPayload {
		return fmt.Errorf("%w: topic %q payload %d exceeds capacity %d",
			ErrBadPayload, t.cfg.Name, len(p), t.cfg.MaxPayload)
	}
	return nil
}

// admit is the front door of every publish verb, FIFO or heap: the
// topic must be of the kind the verb serves (ErrWrongTopicKind) and
// must accept every payload (ErrBadPayload). It runs before the verb
// enters the topic, so a refusal touches no shard.
func (t *Topic) admit(verb string, want TopicKind, payloads [][]byte) error {
	if t.cfg.Kind != want {
		return t.kindErr(verb, want)
	}
	for _, p := range payloads {
		if err := t.checkPayload(p); err != nil {
			return err
		}
	}
	return nil
}

// Publish routes payload to the next shard round-robin and enqueues
// it durably. When Publish returns nil the message is acknowledged:
// it survives any subsequent crash. One blocking persist per message,
// on the shard's own heap. Returns ErrTopicDeleted (and publishes
// nothing) once the topic is retired.
func (t *Topic) Publish(tid int, payload []byte) error {
	return t.publishTo(t.b.span(tid), "Publish", nil, [][]byte{payload})
}

// PublishKey routes payload by FNV-1a hash of key, so all messages
// with equal keys share a shard and are delivered in publish order.
// Returns ErrTopicDeleted once the topic is retired.
func (t *Topic) PublishKey(tid int, key, payload []byte) error {
	// FNV-1a inlined: hash.Hash would heap-allocate per publish.
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return t.publishTo(t.b.span(tid), "PublishKey", &h, [][]byte{payload})
}

// PublishBatch routes the whole batch to the next shard round-robin
// and enqueues it with a single blocking persist (see
// queues.Core.EnqueueBatch): the amortized publish path. The
// batch is acknowledged as a whole when PublishBatch returns nil; a
// crash before that acknowledges none of it (messages that happened to
// become durable are recovered, which is allowed — they were simply
// never acked). Batch elements stay FIFO relative to each other.
// Returns ErrTopicDeleted (and publishes nothing) once the topic is
// retired.
func (t *Topic) PublishBatch(tid int, payloads [][]byte) error {
	return t.publishTo(t.b.span(tid), "PublishBatch", nil, payloads)
}

// publishTo is the one FIFO publish path; Publish, PublishKey and
// PublishBatch differ only in what they hand it. Past admission it
// enters the topic, picks the shard — the one keyHash names, else the
// next of the round-robin cursor — enqueues the batch in order, pays
// the one blocking persist that acknowledges it, and closes sp.
// Returns ErrTopicDeleted, having published nothing, once the topic is
// retired, and an error wrapping pmem.ErrOutOfSpace, having linked
// nothing, when the shard's pool must grow on a full heap.
func (t *Topic) publishTo(sp span, verb string, keyHash *uint64, payloads [][]byte) error {
	if err := t.admit(verb, KindFIFO, payloads); err != nil || len(payloads) == 0 {
		return err
	}
	if !t.enter() {
		return ErrTopicDeleted
	}
	defer t.exit()
	var si int
	if keyHash != nil {
		si = int(*keyHash % uint64(len(t.shards)))
	} else {
		si = int(t.rr.Add(1)-1) % len(t.shards)
	}
	if err := t.shards[si].EnqueueBatch(sp.tid, payloads); err != nil {
		return err
	}
	sp.published(t, si, len(payloads))
	return nil
}

// Stats returns the topic's observability gauge state — message
// counters and per-shard published heads — or nil when the broker has
// no observer.
func (t *Topic) Stats() *obs.TopicStats { return t.ostats }

// DequeueShard removes the oldest message of one shard. Intended for
// recovery audits and drain tools; normal consumption goes through
// consumer groups, which own shards exclusively. On an acked topic the
// message is acknowledged immediately (lease + ack in one step).
// Reports empty once the topic is retired, and on delay/priority
// topics, whose heap order has no "oldest" (the signature has no error
// slot; use DequeueReady, which returns the typed ErrWrongTopicKind
// from the FIFO side).
func (t *Topic) DequeueShard(tid, shard int) ([]byte, bool) {
	if t.cfg.Kind != KindFIFO {
		return nil, false
	}
	if !t.enter() {
		return nil, false
	}
	defer t.exit()
	return t.shards[shard].Dequeue(tid)
}

// Kind reports the topic's delivery-order kind.
func (t *Topic) Kind() TopicKind { return t.cfg.Kind }
