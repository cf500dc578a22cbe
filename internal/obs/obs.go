// Package obs is the broker's observability layer: per-thread
// latency histograms, topic/group gauges, and a lock-free event
// trace, all designed so that measurement never perturbs what the
// paper's cost model measures.
//
// The discipline mirrors pmem.Stats: state is sharded per thread (or
// held in uncontended atomics), the record path takes no locks,
// performs no allocations, and — critically for this repository —
// issues no persist instructions: an enabled observer adds zero
// fences, zero NTStores and zero flushes to any broker operation
// (pinned by internal/broker's TestObserverZeroPersistCost, which
// measures every row of the broker's persist budget with one). With no
// observer configured the cost is one predictable nil-check branch
// per instrumentation site.
//
// Three kinds of state:
//
//   - Histograms (hist.go): per-thread, allocation-free, log-bucketed
//     latency histograms per operation kind, with mergeable snapshots
//     and Quantile estimation — the tail-latency measurement the
//     ROADMAP's percentile program starts from.
//   - Gauges: TopicStats counts published/delivered/acked/redelivered
//     messages per topic, plus a per-shard published head and
//     consumption frontier; GroupStats exposes the shards a consumer
//     group owns, so Lag = published head − frontier is readable at
//     any time and reads the shard's actual remaining backlog even
//     for a group that bound the shard mid-life. Lag and imbalance
//     are the autoscaling signal the elastic-groups ROADMAP item
//     consumes.
//   - Trace (trace.go): fixed-size per-thread rings of small fixed
//     event records (op kind, tid, topic, shard, timestamp), dumped
//     on demand or on crash-fuzz audit failure for post-mortem
//     ordering evidence.
//
// Export (export.go): Snapshot() returns a stable struct renderable
// as JSON or Prometheus text format (see cmd/brokerstat).
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pmem"
)

// Op is a broker operation kind, the unit of latency attribution.
type Op uint8

const (
	OpPublish Op = iota
	OpPoll
	OpAck
	OpAdmin
	// OpScan covers membership-protocol events: expiry scans,
	// reassignments, and fenced (refused) member ops.
	OpScan
	NumOps
)

func (op Op) String() string {
	switch op {
	case OpPublish:
		return "publish"
	case OpPoll:
		return "poll"
	case OpAck:
		return "ack"
	case OpAdmin:
		return "admin"
	case OpScan:
		return "scan"
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// epoch anchors Now; only differences of Now values are meaningful.
var epoch = time.Now()

// Now returns a monotonic timestamp in nanoseconds. It allocates
// nothing and takes no locks, so it is safe on the record path.
func Now() int64 { return int64(time.Since(epoch)) }

// Config parameterizes an Observer.
type Config struct {
	// Threads bounds the thread ids that may record into the observer;
	// it must cover every tid the observed broker admits.
	Threads int
	// TraceEvents, when positive, enables the event trace with that
	// many record slots per thread (rounded up to a power of two).
	// Zero disables tracing.
	TraceEvents int
}

// Observer is one broker's observability state. Record methods are
// safe for concurrent use under the usual one-goroutine-per-tid rule;
// registration and snapshotting take an internal mutex and may run
// concurrently with recording.
type Observer struct {
	threads int
	hists   [NumOps][]Histogram
	trace   *Trace

	mu     sync.Mutex
	topics []*TopicStats
	groups []*GroupStats

	// heapStats, when set (the broker wires it at Open), feeds the
	// per-heap persist counters into snapshots. Exact while the heap
	// set is quiescent, like pmem's own stats.
	heapStats func() []pmem.Stats
}

// New creates an observer. It panics on a non-positive thread bound,
// mirroring pmem.New's construction convention.
func New(cfg Config) *Observer {
	if cfg.Threads <= 0 {
		panic("obs: Config.Threads must be positive")
	}
	o := &Observer{threads: cfg.Threads}
	for op := range o.hists {
		o.hists[op] = make([]Histogram, cfg.Threads)
	}
	if cfg.TraceEvents > 0 {
		o.trace = newTrace(cfg.Threads, cfg.TraceEvents)
	}
	return o
}

// Threads reports the configured thread-id bound.
func (o *Observer) Threads() int { return o.threads }

// Lat records one completed operation of the given kind: the latency
// is Now() − startNs, recorded into tid's own histogram. No locks, no
// allocations, no persist instructions.
func (o *Observer) Lat(tid int, op Op, startNs int64) {
	o.hists[op][tid].Record(Now() - startNs)
}

// Event appends one record to tid's trace ring (a no-op when tracing
// is disabled). topic may be nil and shard negative when the event has
// no shard attribution.
func (o *Observer) Event(tid int, op Op, topic *TopicStats, shard int) {
	if o.trace == nil {
		return
	}
	ti := int32(-1)
	if topic != nil {
		ti = topic.id
	}
	o.trace.record(tid, op, ti, int32(shard))
}

// Trace returns the event trace, nil when disabled.
func (o *Observer) Trace() *Trace { return o.trace }

// OpHist merges the per-thread histograms of one operation kind into
// a single snapshot. Counts recorded concurrently with the merge land
// in this snapshot or the next, never nowhere.
func (o *Observer) OpHist(op Op) HistSnapshot {
	var s HistSnapshot
	for i := range o.hists[op] {
		s.Merge(o.hists[op][i].Snapshot())
	}
	return s
}

// SetHeapStats installs the provider of per-heap persist counters
// included in snapshots; the broker wires the heap set's stats here.
func (o *Observer) SetHeapStats(fn func() []pmem.Stats) {
	o.mu.Lock()
	o.heapStats = fn
	o.mu.Unlock()
}

// TopicStats is one topic's gauge state. Counter methods are atomic
// and may be called from any goroutine.
type TopicStats struct {
	id   int32
	name string

	pubN   atomic.Uint64
	delN   atomic.Uint64
	ackN   atomic.Uint64
	redelN atomic.Uint64

	shardPub []atomic.Uint64
	shardDel []atomic.Uint64

	nvram atomic.Pointer[func() (areas, freeSlots int)]
}

// SetNVRAM installs the provider of the topic's allocator footprint —
// designated areas registered and slots in them that hold no message —
// included in snapshots; the broker wires its shards' pools here, and
// a recovered broker re-registering the topic replaces the provider.
func (t *TopicStats) SetNVRAM(fn func() (areas, freeSlots int)) { t.nvram.Store(&fn) }

// NVRAM reads the footprint provider; zeros if none was installed.
func (t *TopicStats) NVRAM() (areas, freeSlots int) {
	if fn := t.nvram.Load(); fn != nil {
		return (*fn)()
	}
	return 0, 0
}

// RegisterTopic returns the topic's gauge state, creating it on first
// registration. Re-registering a name (a broker recovered into the
// same observer) returns the existing state so counters span the
// process lifetime; the shard array grows if the topic does.
func (o *Observer) RegisterTopic(name string, shards int) *TopicStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	grow := func(old []atomic.Uint64) []atomic.Uint64 {
		grown := make([]atomic.Uint64, shards)
		for i := range old {
			grown[i].Store(old[i].Load())
		}
		return grown
	}
	for _, t := range o.topics {
		if t.name == name {
			if len(t.shardPub) < shards {
				t.shardPub = grow(t.shardPub)
				t.shardDel = grow(t.shardDel)
			}
			return t
		}
	}
	t := &TopicStats{
		id: int32(len(o.topics)), name: name,
		shardPub: make([]atomic.Uint64, shards),
		shardDel: make([]atomic.Uint64, shards),
	}
	o.topics = append(o.topics, t)
	return t
}

// Name returns the topic name.
func (t *TopicStats) Name() string { return t.name }

// Published counts n messages published to the given shard.
func (t *TopicStats) Published(shard, n int) {
	t.pubN.Add(uint64(n))
	t.shardPub[shard].Add(uint64(n))
}

// Delivered counts n messages handed to the application (first
// deliveries and redeliveries alike).
func (t *TopicStats) Delivered(n int) { t.delN.Add(uint64(n)) }

// Acked counts n messages durably acknowledged through Consumer.Ack.
func (t *TopicStats) Acked(n int) { t.ackN.Add(uint64(n)) }

// Redelivered counts n deliveries that re-served a message (after a
// Nack or a lease takeover).
func (t *TopicStats) Redelivered(n int) { t.redelN.Add(uint64(n)) }

// Counts returns the four message counters.
func (t *TopicStats) Counts() (published, delivered, acked, redelivered uint64) {
	return t.pubN.Load(), t.delN.Load(), t.ackN.Load(), t.redelN.Load()
}

// ShardPublished returns the number of messages published to one
// shard — the published head the lag gauge subtracts a frontier from.
func (t *TopicStats) ShardPublished(shard int) uint64 { return t.shardPub[shard].Load() }

// Depth estimates the messages published but not yet delivered for
// the first time: published − (delivered − redelivered), clamped at
// zero (concurrent reads of independent counters may transiently
// disagree).
func (t *TopicStats) Depth() uint64 {
	pub, del, _, redel := t.Counts()
	first := del - redel
	if pub < first {
		return 0
	}
	return pub - first
}

// GroupStats is one consumer group's gauge state: a consumption
// frontier per owned shard, registered as the group subscribes, plus
// the membership-protocol counters (fenced ops, reassigned and stolen
// shards, expiry scans).
type GroupStats struct {
	name string

	fencedN     atomic.Uint64
	reassignedN atomic.Uint64
	stolenN     atomic.Uint64
	scanN       atomic.Uint64

	mu      sync.Mutex
	cursors []*ShardCursor
}

// RegisterGroup creates gauge state for one consumer group. Groups
// are transient (a recovered broker binds fresh ones), so every call
// creates a new entry, named group-N in registration order.
func (o *Observer) RegisterGroup() *GroupStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	g := &GroupStats{name: fmt.Sprintf("group-%d", len(o.groups))}
	o.groups = append(o.groups, g)
	return g
}

// Name returns the group's registration name.
func (g *GroupStats) Name() string { return g.name }

// AddShard registers one owned shard and returns its frontier cursor.
// Called at group creation and from Group.Subscribe; safe against
// concurrent snapshots.
func (g *GroupStats) AddShard(t *TopicStats, shard int) *ShardCursor {
	c := &ShardCursor{t: t, shard: int32(shard)}
	g.mu.Lock()
	g.cursors = append(g.cursors, c)
	g.mu.Unlock()
	return c
}

// Fenced counts n member ops refused with a stale epoch (ErrFenced).
func (g *GroupStats) Fenced(n int) { g.fencedN.Add(uint64(n)) }

// Reassigned counts n shards dealt off a fenced member by
// Adopt/Scan.
func (g *GroupStats) Reassigned(n int) { g.reassignedN.Add(uint64(n)) }

// Stolen counts n shards claimed one at a time by Consumer.Steal.
func (g *GroupStats) Stolen(n int) { g.stolenN.Add(uint64(n)) }

// Scanned counts n expiry-scanner passes (Group.Scan), expiring or
// not.
func (g *GroupStats) Scanned(n int) { g.scanN.Add(uint64(n)) }

// Membership returns the membership-protocol counters: ops refused
// as fenced, shards reassigned, shards stolen, and scan passes.
func (g *GroupStats) Membership() (fenced, reassigned, stolen, scans uint64) {
	return g.fencedN.Load(), g.reassignedN.Load(), g.stolenN.Load(), g.scanN.Load()
}

// MaxLag returns the largest per-shard lag across the group's shards
// — the scalar form of the autoscaling signal.
func (g *GroupStats) MaxLag() uint64 {
	g.mu.Lock()
	cs := g.cursors
	g.mu.Unlock()
	var max uint64
	for _, c := range cs {
		if l := c.Lag(); l > max {
			max = l
		}
	}
	return max
}

// ShardCursor is one shard's consumption frontier as seen by a group.
// The frontier itself — the count of messages removed from the shard's
// queue by fresh deliveries — lives on the TopicStats, shared across
// group incarnations: consumption is destructive in this broker, so a
// group that binds a shard mid-life (a recovered broker's drain group)
// inherits what previous owners consumed and its lag reads the actual
// remaining backlog, not a re-count of messages long gone.
type ShardCursor struct {
	t     *TopicStats
	shard int32
}

// Advance moves the frontier past n newly consumed messages.
// Redeliveries do not advance it: the frontier counts distinct
// messages, so lag never undercounts a backlog that is merely being
// re-served.
func (c *ShardCursor) Advance(n int) { c.t.shardDel[c.shard].Add(uint64(n)) }

// Frontier returns the shard's consumption frontier: the number of
// messages delivered out of the shard for the first time.
func (c *ShardCursor) Frontier() uint64 { return c.t.shardDel[c.shard].Load() }

// Lag returns the shard's published head minus the consumption
// frontier, clamped at zero (the two counters are read independently):
// the number of published messages no group has consumed yet.
func (c *ShardCursor) Lag() uint64 {
	pub := c.t.shardPub[c.shard].Load()
	f := c.t.shardDel[c.shard].Load()
	if pub < f {
		return 0
	}
	return pub - f
}
