// Package broker is a durably linearizable, sharded, multi-topic
// message broker composed from the paper's second-amendment queues —
// the use case the paper's introduction motivates (IBM MQ, Oracle
// Tuxedo MQ, RabbitMQ keep FIFO queues at their core, today structured
// for block storage; NVRAM queues remove the marshaling and
// file-system layers), treated as a first-class recoverable system in
// the spirit of Gray's "Queues Are Databases".
//
// A Broker manages N topics, each split into M shards, spread over a
// pmem.HeapSet — an ordered set of independent NVRAM domains (NUMA
// sockets / DIMM sets). Every shard is an independent durable queue —
// the one second-amendment core (queues.Core) under the payload codec
// its topic selects — living in its own root-slot window of one member
// heap (see pmem.View). Shards are dealt across the domains
// round-robin in creation order, which spreads load evenly; a consumer
// fences once per domain its poll dequeued from. Producers route
// messages to shards round-robin or by key hash, and may amortize
// durability cost with a batch-publish path that rides one SFENCE per
// batch. Consumers form groups; each shard is owned by exactly one
// group member, so per-shard FIFO order is preserved end-to-end.
//
// The broker is administered live: Open brings up an empty (or
// recovered) broker and CreateTopic/CreateAckGroup append checksummed
// records to a durable catalog log at runtime, each creation made
// visible only by its anchor stamp's persist (see admin.go and
// cataloglog.go). The lifecycle is complete: DeleteTopic retires a
// topic with a tombstone record under the same ordered-persist
// discipline and releases its root-slot windows, which CreateTopic
// reuses by best fit (only the windows are steady under churn: the
// heap a shard allocates has no free path);
// CompactCatalog rewrites the live records into a fresh log generation
// when tombstone debris accumulates (and doubles as the log's resize
// path). Open is the only way a broker comes to exist, on a blank set
// or a used one.
//
// The broker is observable without being perturbed: Options.Observer
// accepts an obs.Observer that receives per-op latency samples
// (publish/poll/ack/admin), per-topic message counters, per-group
// per-shard lag, and trace events. Observation issues no persist
// instructions — enabling it adds zero fences, zero NTStores and zero
// flushes to every operation — and with no observer each
// instrumentation site costs one predictable branch. Every consumer
// verb holds its member's lock, on plain groups as on acked ones, so a
// group may be subscribed while its members poll.
//
// Acked groups manage their own membership: lease lines carry fencing
// epochs bumped on every takeover, so a member displaced by adoption
// (Group.Adopt), by the expiry scanner (Group.Scan) or by
// work-stealing (Consumer.Steal) has its stale acknowledgments
// refused with ErrFenced instead of corrupting the exactly-once
// frontier; Consumer.Renew keeps a healthy member's leases alive at
// zero persist cost when its durable deadlines already cover the new
// one (see membership.go).
//
// Durability contract: a publish is acknowledged when the call
// returns; from that point the message survives any crash of any
// subset of the heap set (the set shares one power supply, so a crash
// on one domain downs them all). The durable catalog, anchored at
// heap 0's root slot 0, records every topic's name, shard count,
// payload kind and every shard's (heapID, baseSlot) placement; every
// other member heap carries a membership stamp so recovery can tell a
// mis-assembled set from the real one. Recovery is two-phase: replay
// the catalog on heap 0, then replay the paper's per-queue recovery
// heap by heap (the per-heap phases run in parallel — domains are
// independent). A delivery is durable when Poll returns: the winning
// dequeue's persist covers it, so a delivered message is never
// re-delivered after a crash (delivered-or-recovered exactly once for
// acknowledged publishes).
package broker

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/blobq"
	"repro/internal/dheap"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/queues"
)

// slotsPerShard is the root-slot window width handed to each FIFO
// shard's queue. Eight covers the highest slot it uses (the core 2,3
// plus 4 in ack mode; the blob codec 6,7).
const slotsPerShard = 8

// heapTopicSlots is the window width of a delay/priority shard: its
// one slot anchors the dheap region. Heap topics are the window kind
// narrower than slotsPerShard, so re-creating one over a retired FIFO
// window fits it into part of the gap and leaves the rest free.
const heapTopicSlots = 1

// slotsForKind maps a topic kind to its shard-window width.
func slotsForKind(k TopicKind) int {
	if k == KindFIFO {
		return slotsPerShard
	}
	return heapTopicSlots
}

// TopicKind selects a topic's delivery order.
type TopicKind int

const (
	// KindFIFO is the default: per-shard FIFO order on the paper's
	// second-amendment queue (queues.Core).
	KindFIFO TopicKind = iota
	// KindDelay orders delivery by deadline: PublishAt(deadline)
	// publishes, DequeueReady(now) delivers pop-min among messages
	// whose deadline has passed. Backed by a dheap.Q.
	KindDelay
	// KindPriority orders delivery by ascending priority value;
	// every message is always ready. Backed by a dheap.Q.
	KindPriority
)

func (k TopicKind) String() string {
	switch k {
	case KindFIFO:
		return "fifo"
	case KindDelay:
		return "delay"
	case KindPriority:
		return "priority"
	default:
		return fmt.Sprintf("TopicKind(%d)", int(k))
	}
}

// heapKind reports whether k is one of the dheap-backed kinds.
func (k TopicKind) heapKind() bool { return k == KindDelay || k == KindPriority }

// slotAnchor is root slot 0 of every member heap: on heap 0 it anchors
// the durable catalog, on every other member the heap's membership
// stamp.
const slotAnchor = 0

// TopicConfig describes one topic.
type TopicConfig struct {
	// Name identifies the topic; at most 32 bytes, unique per broker.
	Name string
	// Shards is the number of independent durable queues the topic is
	// split over (>= 1). More shards mean more enqueue/dequeue
	// parallelism at the cost of ordering only per shard.
	Shards int
	// MaxPayload selects the shard queues' payload codec: 0 means fixed
	// 8-byte payloads inline in the node line (the cheapest path); > 0
	// means variable payloads up to MaxPayload bytes in blobq's blobs.
	MaxPayload int
	// Acked makes the topic's shards ack-mode queues: delivery is a
	// durable lease (written before PollBatch returns) and a message is
	// consumed only when a Consumer.Ack covers it, so unacknowledged
	// messages are redelivered across both consumer crashes (lease
	// takeover, see Group.Adopt) and whole-broker crashes (recovery
	// resurrects everything beyond the acked frontier). Acked topics
	// are consumed through groups created with NewGroupAcked; plain
	// groups still work but acknowledge every delivery immediately.
	Acked bool
	// Kind selects the delivery order (default KindFIFO). Delay and
	// priority topics are heap-ordered (see heaptopic.go): they are
	// published with PublishAt/PublishPriority and consumed with
	// DequeueReady, require Shards == 1, and are incompatible with
	// Acked (heap delivery is its own durable consume protocol).
	Kind TopicKind
}

// Broker is a sharded multi-topic durable message broker over a heap
// set. Methods taking a tid are safe for concurrent use as long as
// each tid is driven by at most one goroutine at a time.
//
// The broker has two planes. The data plane — Topic lookup, publish,
// poll — reads an immutable topic snapshot swapped atomically, so it
// is wait-free with respect to administration. The admin plane —
// CreateTopic, CreateAckGroup — appends records to the durable
// catalog log under an internal mutex and publishes a new snapshot;
// it may run concurrently with data-plane traffic as long as its tid
// is owned by the calling goroutine, like any other operation.
type Broker struct {
	hs      *pmem.HeapSet
	threads int

	// obs is the optional observability sink (Options.Observer), fixed
	// for the broker's lifetime at Open. Invariant: when obs is non-nil,
	// every Topic carries its ostats and every group ref its cursor, so
	// the hot paths test only this one pointer. Observation never
	// touches pmem — an enabled observer adds zero fences, zero
	// NTStores and zero flushes (pinned by TestObserverZeroPersistCost,
	// which measures every verb of the persist budget with one).
	obs *obs.Observer

	// snap is the copy-on-write topic snapshot the data plane reads.
	snap atomic.Pointer[topicSet]

	// adminMu serializes administrative operations and guards cat, the
	// catalog log they append to.
	adminMu sync.Mutex
	cat     *catalogLog

	// Durable lease regions for acked consumer groups; regionMu guards
	// the slices (CreateAckGroup appends) and the bound flags, which
	// mark regions claimed by a live NewGroupAcked.
	regionMu sync.Mutex
	regions  []leaseRegion
	bound    []bool
}

// topicSet is one immutable data-plane snapshot: the live topics in
// catalog order, the name index, and the global shard-ordinal
// frontier (the next topic's first global shard ordinal). shardTotal
// is monotone — a deleted topic's ordinals are never reissued, so a
// stale lease line can never be adopted by a new topic's shard.
type topicSet struct {
	list       []*Topic
	byName     map[string]*Topic
	shardTotal int
}

// shard is one FIFO shard: its durable queue — the one core whatever
// the payload kind, the codec chosen once by createShard or
// recoverShard — together with its placement: heap is the member index
// (the fence domain), h the shard's root-slot view of it.
type shard struct {
	*queues.Core[[]byte]
	heap int
	h    *pmem.Heap
}

// fenceShards fences tid once on each distinct heap the refs' shards
// live on: a fence is per-thread per-heap and covers every NTStore tid
// has outstanding there, whichever shard's line it targets. A heap
// counts as fenced when an earlier ref of rs names it — rs is a
// member's touched shards, a handful — so the pass allocates nothing.
func fenceShards(tid int, rs []*consumerShard) {
next:
	for i, r := range rs {
		s := r.t.shards[r.shard]
		for _, prev := range rs[:i] {
			if prev.t.shards[prev.shard].heap == s.heap {
				continue next
			}
		}
		s.h.Fence(tid)
	}
}

// wordChunkBytes is the size of one allocation a wordCodec carves its
// payload copies from: 256 messages.
const wordChunkBytes = 2048

// wordCodec keeps a fixed topic's 8-byte payload as the item word of
// the node line — the paper's own layout (queues.OptUnlinkedQ), a
// payload of zero extra lines — so fixed and blob shards are one queue
// type. It holds the broker's only conversions between payload bytes
// and queue words. One per shard; free is indexed by tid and holds the
// uncarved rest of that thread's current chunk, padded so that adjacent
// threads' entries share no cache line.
type wordCodec struct {
	free []wordChunk
}

type wordChunk struct {
	b []byte
	_ [pmem.CacheLineBytes - 24]byte
}

func newWordCodec(threads int) *wordCodec { return &wordCodec{free: make([]wordChunk, threads)} }

// Write returns a private copy of p — the caller keeps its buffer —
// carved from tid's chunk (see copyOf).
func (c *wordCodec) Write(h *pmem.Heap, tid int, pn pmem.Addr, p []byte) []byte {
	v := AsU64(p)
	h.StoreOwned(tid, pn+queues.NodePayload, v)
	return c.copyOf(tid, v)
}

func (*wordCodec) Check(*pmem.Heap, pmem.Addr) bool { return true }

// Read carves from tid 0's chunk: recovery runs alone on tid 0 and
// calls it in index order, so the copies lie in the order the drain
// that follows reads them.
func (c *wordCodec) Read(h *pmem.Heap, pn pmem.Addr) []byte {
	return c.copyOf(0, h.Load(0, pn+queues.NodePayload))
}

// copyOf carves v's copy from tid's chunk rather than allocating it:
// eight bytes whose capacity is their length, so a consumer appending
// to one delivered payload cannot reach its neighbour's. A chunk is
// never reused: the collector frees it when the last payload in it is
// dropped.
func (c *wordCodec) copyOf(tid int, v uint64) []byte {
	f := &c.free[tid]
	if len(f.b) < 8 {
		f.b = make([]byte, wordChunkBytes)
	}
	out := f.b[:8:8]
	f.b = f.b[8:]
	binary.LittleEndian.PutUint64(out, v)
	return out
}

// createShard builds shard si's empty queue on view, charging the
// construction persists to tid. With recoverShard it is the only place
// the broker tells the topic and payload kinds apart.
func (t *Topic) createShard(si int, view *pmem.Heap, tid int) {
	tc, threads := t.cfg, t.b.threads
	var q *queues.Core[[]byte]
	switch {
	case tc.Kind.heapKind():
		t.heapq = dheap.New(view, dheap.Config{Threads: threads, MaxPayload: tc.MaxPayload, InitTid: tid})
		return
	case tc.MaxPayload > 0:
		q = blobq.New(view, blobq.Config{Threads: threads, MaxPayload: tc.MaxPayload, Acked: tc.Acked, InitTid: tid}).Core
	default:
		q = queues.NewCore[[]byte](view, threads, tid, tc.Acked, newWordCodec(threads), 1)
	}
	t.shards[si] = &shard{Core: q, heap: t.locs[si].heap, h: view}
}

// recoverShard replays shard si's own recovery on view: the paper's
// per-queue recovery for FIFO shards, the entry-log scan for heaps. The
// FIFO recoveries have no error result and raise a corrupt image as a
// panic wrapping pmem.ErrCorrupt, which becomes the shard's error here.
func (t *Topic) recoverShard(si int, view *pmem.Heap) error {
	tc, threads := t.cfg, t.b.threads
	if tc.Kind.heapKind() {
		hq, err := dheap.Recover(view, threads)
		if err != nil {
			return fmt.Errorf("broker: topic %q: %w", tc.Name, err)
		}
		t.heapq = hq
		return nil
	}
	var q *queues.Core[[]byte]
	if err := catch(pmem.ErrCorrupt, func() {
		if tc.MaxPayload > 0 {
			q = blobq.Recover(view, blobq.Config{Threads: threads, MaxPayload: tc.MaxPayload, Acked: tc.Acked}).Core
		} else {
			q = queues.RecoverCore[[]byte](view, threads, tc.Acked, newWordCodec(threads), 1)
		}
	}); err != nil {
		return fmt.Errorf("broker: topic %q: %w", tc.Name, err)
	}
	t.shards[si] = &shard{Core: q, heap: t.locs[si].heap, h: view}
	return nil
}

// openShards runs open for every shard of ts on the shard's root-slot
// view of its member heap — heap by heap, the per-heap phases in
// parallel under the caller's tid (see pmem.HeapSet.Parallel, which
// also brings a crash signal back to this goroutine) — and returns
// their errors.
func (b *Broker) openShards(ts []*Topic, open func(t *Topic, si int, view *pmem.Heap) error) error {
	errs := make([]error, b.hs.Len())
	b.hs.Parallel(func(hi int, h *pmem.Heap) {
		for _, t := range ts {
			for si, loc := range t.locs {
				if loc.heap != hi {
					continue
				}
				errs[hi] = errors.Join(errs[hi], open(t, si, h.View(loc.base, slotsForKind(t.cfg.Kind))))
			}
		}
	})
	return errors.Join(errs...)
}

// U64 encodes v as the 8-byte payload of a fixed topic.
func U64(v uint64) []byte {
	p := make([]byte, 8)
	binary.LittleEndian.PutUint64(p, v)
	return p
}

// AsU64 decodes a fixed-topic payload.
func AsU64(p []byte) uint64 { return binary.LittleEndian.Uint64(p) }

// ErrMaxPayload is wrapped by the refusal of a topic whose MaxPayload
// its catalog record or its payload codec cannot represent.
var ErrMaxPayload = errors.New("broker: MaxPayload out of range")

// validateTopic checks one topic's configuration: CreateTopic holds a
// request to it, catalog replay every recovered record.
func validateTopic(tc TopicConfig) error {
	if tc.Name == "" || len(tc.Name) > catNameBytes {
		return fmt.Errorf("broker: topic name %q must be 1..%d bytes", tc.Name, catNameBytes)
	}
	if tc.Shards <= 0 || tc.Shards > maxCatShards {
		return fmt.Errorf("broker: topic %q shard count %d out of range [1,%d]", tc.Name, tc.Shards, maxCatShards)
	}
	if tc.MaxPayload < 0 || uint64(tc.MaxPayload) >= uint64(1)<<catKindShift {
		return fmt.Errorf("%w: topic %q has invalid MaxPayload %d", ErrMaxPayload, tc.Name, tc.MaxPayload)
	}
	if tc.Kind < KindFIFO || tc.Kind > KindPriority {
		return fmt.Errorf("broker: topic %q has invalid kind %d", tc.Name, int(tc.Kind))
	}
	if tc.Kind.heapKind() {
		if tc.Shards != 1 {
			return fmt.Errorf("broker: %s topic %q must have exactly 1 shard (heap order is global), got %d",
				tc.Kind, tc.Name, tc.Shards)
		}
		if tc.Acked {
			return fmt.Errorf("broker: %s topic %q cannot be acked (heap delivery is its own durable consume protocol)",
				tc.Kind, tc.Name)
		}
	} else if tc.MaxPayload > blobq.MaxPayloadLimit {
		// A blob line's seal has an 8-bit line field (see blobq.seal).
		return fmt.Errorf("%w: topic %q MaxPayload %d exceeds the blob codec's %d bytes",
			ErrMaxPayload, tc.Name, tc.MaxPayload, blobq.MaxPayloadLimit)
	}
	return nil
}

// checkSet verifies the heap set can host a broker with the given
// thread bound: every member must admit at least that many thread ids.
func checkSet(hs *pmem.HeapSet, threads int) error {
	for i := 0; i < hs.Len(); i++ {
		if mt := hs.Heap(i).MaxThreads(); mt < threads {
			return fmt.Errorf("broker: heap %d admits %d threads, broker needs %d", i, mt, threads)
		}
	}
	return nil
}

// build constructs the volatile broker skeleton over a catalogued
// layout and replays every shard's own recovery. This is the second
// phase of recovery.
func build(hs *pmem.HeapSet, threads int, lay layoutInfo) (*Broker, error) {
	b := &Broker{hs: hs, threads: threads, cat: lay.cat}
	snap := &topicSet{byName: map[string]*Topic{}, shardTotal: lay.nextGlobal}
	for ti, tc := range lay.topics {
		t := b.newTopic(tc, lay.bases[ti], lay.locs[ti])
		snap.list = append(snap.list, t)
		snap.byName[tc.Name] = t
	}
	if err := b.openShards(snap.list, (*Topic).recoverShard); err != nil {
		return nil, err
	}
	b.snap.Store(snap)
	return b, nil
}

// newTopic makes the volatile handle of a topic whose shards are yet to
// be opened. Heap topics keep their one dheap.Q on the topic itself and
// have no FIFO shards.
func (b *Broker) newTopic(tc TopicConfig, base int, locs []shardLoc) *Topic {
	t := &Topic{b: b, cfg: tc, base: base, locs: locs}
	if !tc.Kind.heapKind() {
		t.shards = make([]*shard, tc.Shards)
	}
	return t
}

// set returns the current data-plane topic snapshot.
func (b *Broker) set() *topicSet { return b.snap.Load() }

// Topic returns the named topic, or nil if the broker has none.
func (b *Broker) Topic(name string) *Topic { return b.set().byName[name] }

// Topics lists the broker's topics in catalog order. The returned
// slice is the caller's to keep: it is a copy, never an alias of
// broker state.
func (b *Broker) Topics() []*Topic {
	s := b.set()
	return append([]*Topic(nil), s.list...)
}

// TopicNames lists the broker's topic names, sorted.
func (b *Broker) TopicNames() []string {
	s := b.set()
	names := make([]string, len(s.list))
	for i, t := range s.list {
		names[i] = t.Name()
	}
	sort.Strings(names)
	return names
}

// Threads reports the configured thread-id bound.
func (b *Broker) Threads() int { return b.threads }

// Heaps reports the size of the heap set the broker spans.
func (b *Broker) Heaps() int { return b.hs.Len() }

// ShardTotal reports the global shard-ordinal frontier: one past the
// highest ordinal any topic — live or deleted — ever held. Global
// shard ordinals (catalog creation order) index the lease regions;
// the frontier is monotone so a retired topic's lease lines are never
// adopted by a new one.
func (b *Broker) ShardTotal() int { return b.set().shardTotal }

// CatalogGeneration reports the catalog log's generation — bumped by
// every CompactCatalog.
func (b *Broker) CatalogGeneration() uint64 {
	b.adminMu.Lock()
	defer b.adminMu.Unlock()
	return b.cat.gen
}

// SlotFootprint reports the broker's root-slot footprint: used is the
// total number of slots below each heap's top, one past its last live
// shard window or lease region (the anchor slots excluded), and free
// how many of those no live window holds: the gaps retired windows
// left, awaiting reuse. A churning workload whose deletes balance its
// creates reuses the same windows, so its footprint stays bounded.
func (b *Broker) SlotFootprint() (used, free int) {
	b.adminMu.Lock()
	defer b.adminMu.Unlock()
	return b.cat.footprint()
}

// HeapSet returns the heap set the broker spans.
func (b *Broker) HeapSet() *pmem.HeapSet { return b.hs }

// Observer returns the observability sink the broker was opened with,
// nil when observation is disabled.
func (b *Broker) Observer() *obs.Observer { return b.obs }
