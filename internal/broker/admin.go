package broker

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/obs"
	"repro/internal/pmem"
)

// Live broker administration. Open brings up a broker — empty on a
// fresh heap set, fully recovered on a set carrying a catalog — and
// CreateTopic/CreateAckGroup append to the durable catalog log at
// runtime, so a production deployment never has to declare its whole
// topic universe up front. DeleteTopic and CompactCatalog complete
// the lifecycle: topics retire behind tombstone records, their shard
// windows become free slots for later creations, and the log itself is
// rewritten into a fresh generation when debris accumulates. Every
// operation is crash-atomic through the second amendment's
// ordered-persist discipline (initialize, append → fence, anchor; see
// cataloglog.go): a crash at any point either recovers the operation
// completely or as if it was never attempted.

// Options parameterizes Open.
type Options struct {
	// Threads bounds the thread ids that may call broker operations.
	// Required (positive) when Open creates a fresh broker; on
	// recovery, 0 adopts the recorded bound and any other value must
	// match it.
	Threads int
	// Observer, when non-nil, receives per-op latency samples, topic
	// and group gauges, and trace events for the broker's lifetime. Its
	// thread bound must cover the broker's. Observation costs no
	// persist instructions; with Observer nil each instrumentation site
	// costs one predictable branch. The same observer may be handed to
	// a recovered broker: topic gauge state is re-registered by name,
	// so counters span crashes of the observed process's broker.
	Observer *obs.Observer
}

// Open brings up a broker on the heap set. Call while no other thread
// operates; Open itself uses thread id 0.
//
// A set whose anchor heap hosts a catalog is recovered, never
// overwritten. Phase one replays the catalog log on heap 0 record by
// record and verifies every other member's stamp against it — a set
// missing a catalogued heap, containing a blank or foreign heap, or
// assembled in the wrong order is an error, never a silent mis-scan.
// Phase two replays the paper's per-queue recovery for every shard,
// heap by heap, the per-heap phases in parallel, then re-binds the
// lease regions. Every phase reads the image through a pmem.Reader,
// so an image no broker could have left — a corrupt catalog, stamp,
// lease region, area registry, queue root or heap-topic header, two
// live nodes with one index — is an error wrapping pmem.ErrCorrupt,
// never a panic. Options.Threads must equal the bound the broker was
// created with (it sizes the per-thread head-index regions recovery
// scans) or be 0 to adopt it.
//
// A blank set gets a fresh broker with no topics — create them at
// runtime with CreateTopic — and needs a positive Options.Threads, so
// Open(hs, Options{}) is "recover or fail". Its catalog log has room
// for a few hundred typical topic records; CompactCatalog resizes it.
// The anchor flip is the last persist of creation, so a crash inside
// Open leaves no broker, and what it leaves never stops a later
// creation, on any set: on heap 0 a blank, torn or uncommitted log at
// a fixed stride from the heap's first allocation, on a member a stamp
// carrying the set stamp of such a log. Any other durable state is
// refused with an error wrapping pmem.ErrCorrupt rather than
// overwritten: a member carrying a catalog or another set's stamp, and
// a zero heap-0 anchor over a catalog log that commits records, which
// only a broker that anchored the log does.
func Open(hs *pmem.HeapSet, opts Options) (*Broker, error) {
	r := pmem.NewReader(hs.Heap(0))
	reg := r.Ptr(hs.Heap(0).RootAddr(slotAnchor), pmem.CacheLineBytes)
	switch {
	case r.Err() != nil:
		return nil, r.Err()
	case reg == 0:
		return openFresh(hs, opts)
	}
	return openExisting(hs, opts, r, reg)
}

// checkObserver refuses an observer that admits fewer thread ids than
// the broker: both open paths ask before their first persist, so a
// refused Open leaves the set as it found it.
func checkObserver(o *obs.Observer, threads int) error {
	if o != nil && o.Threads() < threads {
		return fmt.Errorf("broker: observer admits %d thread ids, broker needs %d", o.Threads(), threads)
	}
	return nil
}

// openFresh creates an empty broker: the catalog log header and zero
// commit line on heap 0, fenced, then membership stamps on heaps 1..,
// then the anchor that names the log. A member stamped by a creation
// that crashed on this set is debris like its log: its stamp is the
// set stamp of a log checkNoCommittedLog found.
func openFresh(hs *pmem.HeapSet, opts Options) (*Broker, error) {
	if opts.Threads <= 0 {
		return nil, fmt.Errorf("broker: Threads must be positive to create a broker")
	}
	if err := checkSet(hs, opts.Threads); err != nil {
		return nil, err
	}
	if err := checkObserver(opts.Observer, opts.Threads); err != nil {
		return nil, err
	}
	debris, committed := checkNoCommittedLog(hs.Heap(0))
	for i := 1; i < hs.Len(); i++ {
		if err := checkMemberEmpty(hs.Heap(i), i, debris); err != nil {
			return nil, err
		}
	}
	if committed != nil {
		return nil, committed
	}
	b := &Broker{hs: hs, threads: opts.Threads}
	b.cat = createCatalogLog(hs, 0, opts.Threads)
	b.snap.Store(&topicSet{byName: map[string]*Topic{}})
	b.observe(opts.Observer)
	return b, nil
}

// observe installs the observer on a newly opened broker: the
// heap-stat provider, plus gauge state for every topic the broker
// already has (recovery re-registers by name, so an observer that
// outlives the broker keeps its counters). Establishes the invariant
// the hot paths rely on: b.obs != nil ⇒ every topic has ostats. The
// caller has passed o through checkObserver.
func (b *Broker) observe(o *obs.Observer) {
	if o == nil {
		return
	}
	b.obs = o
	hs := b.hs
	o.SetHeapStats(func() []pmem.Stats {
		out := make([]pmem.Stats, hs.Len())
		for i := range out {
			out[i] = hs.Heap(i).TotalStats()
		}
		return out
	})
	for _, t := range b.set().list {
		t.register(o)
	}
}

// openExisting recovers the broker anchored at reg on heap 0, which r
// reads: catalog log replay, stamp verification, then the paper's
// per-queue recovery heap by heap in parallel, then lease-region
// re-binding.
func openExisting(hs *pmem.HeapSet, opts Options, r *pmem.Reader, reg pmem.Addr) (*Broker, error) {
	lay, err := readCatalog(r, hs, reg)
	if err != nil {
		return nil, err
	}
	threads := opts.Threads
	if threads == 0 {
		threads = lay.threads
	} else if threads != lay.threads {
		return nil, fmt.Errorf("broker: Open with %d threads, but the broker was created with %d",
			threads, lay.threads)
	}
	if threads <= 0 {
		return nil, r.Errorf("broker: catalog records non-positive thread bound %d", lay.threads)
	}
	if err := checkSet(hs, threads); err != nil {
		return nil, err
	}
	// Vetted before shard recovery writes anything to the heaps.
	if err := checkObserver(opts.Observer, threads); err != nil {
		return nil, err
	}
	b, err := build(hs, threads, lay)
	if err != nil {
		return nil, err
	}
	for g, loc := range lay.leaseLocs {
		lr, err := readLeaseRegion(hs.Heap(loc.heap), loc.heap, loc.base, g, lay.leaseCaps[g])
		if err != nil {
			return nil, err
		}
		b.regions = append(b.regions, lr)
	}
	b.bound = make([]bool, len(b.regions))
	b.observe(opts.Observer)
	return b, nil
}

// CreateTopic creates a topic on a live broker, durably: each shard
// window is placed in the smallest gap between its heap's live windows,
// or just past the last of them, the windows are scrubbed and the
// shard queues initialized on their member heaps (dealt round-robin by
// global ordinal), a checksummed record is appended to the catalog log
// and fenced, and only then does the commit stamp's persist make the
// topic visible. A crash anywhere before that last persist recovers as
// if CreateTopic was never called; after it, the topic recovers fully,
// empty or with whatever was published. A member heap too full for a
// shard's queue refuses the call with an error wrapping
// pmem.ErrOutOfSpace, leaving the slot table as that crash would.
//
// The catalog-protocol cost is a pinned two blocking persists (record,
// commit stamp) plus the per-shard queue initialization, which also
// makes the scrub durable — independent of how many topics the broker
// already has.
//
// tid follows the usual rule: it must be owned by the calling
// goroutine for the duration, and may be any id in [0, Threads).
// CreateTopic may run concurrently with data-plane traffic on other
// tids; concurrent CreateTopic calls serialize internally. Groups do
// not subscribe new topics automatically — subscribe an existing
// group with Group.Subscribe, or create a new group.
func (b *Broker) CreateTopic(tid int, tc TopicConfig) (*Topic, error) {
	b.adminMu.Lock()
	defer b.adminMu.Unlock()
	sp := b.span(tid)
	if err := validateTopic(tc); err != nil {
		return nil, err
	}
	snap := b.set()
	if snap.byName[tc.Name] != nil {
		return nil, fmt.Errorf("broker: duplicate topic %q", tc.Name)
	}
	if len(snap.list)+1 > maxCatTopics {
		return nil, fmt.Errorf("broker: broker already has %d topics (max %d)", len(snap.list), maxCatTopics)
	}
	// Reserve log space up front so a full log cannot leak windows.
	if err := b.cat.room(topicRecLines(tc.Shards)); err != nil {
		return nil, err
	}
	if snap.shardTotal+tc.Shards > maxCatShards {
		return nil, fmt.Errorf("broker: global shard ordinal space exhausted (%d of %d; ordinals of deleted topics are never reissued)",
			snap.shardTotal, maxCatShards)
	}

	// 1. Allocate: place every shard on the heap its global ordinal deals
	// it to, round-robin across the set, by best fit. Nothing durable
	// happens, so a refused placement only hands the windows back.
	width := slotsForKind(tc.Kind)
	locs := make([]shardLoc, 0, tc.Shards)
	for si := 0; si < tc.Shards; si++ {
		hi := (snap.shardTotal + si) % b.hs.Len()
		loc, err := b.cat.place(b.hs, hi, width, fmt.Sprintf("topic %q shard %d", tc.Name, si))
		if err != nil {
			for _, l := range locs {
				b.cat.release(l, width)
			}
			return nil, err
		}
		locs = append(locs, loc)
	}

	// 2. Initialize the shard queues, heap by heap in parallel. A heap
	// out of space refuses the creation: the windows and their views go
	// back, as after a crash before the anchor.
	t := b.newTopic(tc, snap.shardTotal, locs)
	views := make([]*pmem.Heap, len(locs))
	if err := catch(pmem.ErrOutOfSpace, func() {
		b.openShards([]*Topic{t}, func(t *Topic, si int, view *pmem.Heap) error {
			views[si] = view
			// Scrub the window before building on it: a retired queue's
			// slots (acked frontier, epoch...), or those of a creation
			// that crashed short of its anchor, would otherwise survive
			// wherever the new queue kind does not overwrite them and
			// mislead the recovery dispatch. Every structure keeps its
			// root in word 0 of a slot. The constructor's own fence on
			// this heap makes the scrub durable before the record's
			// anchor, so a crash never sees a committed topic on an
			// unscrubbed window.
			for slot := 0; slot < width; slot++ {
				view.NTStore(tid, view.RootAddr(slot), 0)
			}
			t.createShard(si, view, tid)
			return nil
		})
	}); err != nil {
		for si, loc := range locs {
			if views[si] != nil {
				b.hs.Heap(loc.heap).ReleaseView(views[si])
			}
			b.cat.release(loc, width)
		}
		return nil, fmt.Errorf("broker: topic %q: %w", tc.Name, err)
	}

	// 3 + 4. Append the record, fence, anchor. Visible only after the
	// commit persist; a crash in between recovers as "never existed",
	// and replay finds the windows free.
	b.cat.appendRecord(tid, topicRecord(b.cat.records+1, tc, locs, snap.shardTotal))
	// Registered before the snapshot swap publishes the topic, so the
	// hot-path invariant (visible topic ⇒ ostats set) holds.
	t.register(b.obs)

	ns := &topicSet{
		list:       append(append([]*Topic(nil), snap.list...), t),
		byName:     make(map[string]*Topic, len(snap.byName)+1),
		shardTotal: snap.shardTotal + tc.Shards,
	}
	for n, tp := range snap.byName {
		ns.byName[n] = tp
	}
	ns.byName[tc.Name] = t
	b.snap.Store(ns)
	sp.done(obs.OpAdmin, t.ostats)
	return t, nil
}

// catch runs f and returns the error f panicked with when it wraps
// sentinel: pmem.ErrOutOfSpace, which AllocRaw raises, or
// pmem.ErrCorrupt, which a recovery constructor without an error result
// raises. Every other panic, the crash signal included, goes on up.
func catch(sentinel error, f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); !ok || !errors.Is(e, sentinel) {
				panic(r)
			}
			err = r.(error)
		}
	}()
	f()
	return nil
}

// AckGroupConfig parameterizes CreateAckGroup.
type AckGroupConfig struct {
	// Capacity is the number of global shard ordinals the region's
	// lease lines cover: consumer groups bound to the region may only
	// subscribe topics whose shards fall below it. It must be at least
	// the broker's current shard total; 0 selects the current shard
	// total plus 256 ordinals of headroom for topics created later.
	Capacity int
}

// defaultLeaseHeadroom is the growth headroom (in global shard
// ordinals) CreateAckGroup adds over the current shard total when
// AckGroupConfig.Capacity is zero: room for topics created after the
// region.
const defaultLeaseHeadroom = 256

// CreateAckGroup allocates a durable consumer-group lease region on a
// live broker and records it in the catalog log, following the same
// allocate → initialize → append → anchor discipline as CreateTopic
// (the same crash atomicity holds, at the same two blocking persists
// plus the region's initialization). Regions are dealt round-robin
// across the heap set. Returns the region index to pass as
// LeaseConfig.Region to NewGroupAcked. A member heap too full for the
// region refuses the call with an error wrapping pmem.ErrOutOfSpace,
// leaving the slot table as a crash before the record would.
func (b *Broker) CreateAckGroup(tid int, cfg AckGroupConfig) (int, error) {
	b.adminMu.Lock()
	defer b.adminMu.Unlock()
	sp := b.span(tid)
	snap := b.set()
	capacity := cfg.Capacity
	if capacity == 0 {
		capacity = snap.shardTotal + defaultLeaseHeadroom
	}
	if capacity < snap.shardTotal {
		return 0, fmt.Errorf("broker: lease capacity %d below the current shard total %d", capacity, snap.shardTotal)
	}
	if capacity > maxCatShards {
		return 0, fmt.Errorf("broker: lease capacity %d out of range [1,%d]", capacity, maxCatShards)
	}
	b.regionMu.Lock()
	group := len(b.regions)
	b.regionMu.Unlock()
	if group+1 > maxCatAckGroups {
		return 0, fmt.Errorf("broker: broker already has %d ack groups (max %d)", group, maxCatAckGroups)
	}
	if err := b.cat.room(1); err != nil {
		return 0, err
	}

	hi := group % b.hs.Len()
	loc, err := b.cat.place(b.hs, hi, 1, fmt.Sprintf("lease region %d", group))
	if err != nil {
		return 0, err
	}
	// A heap too full for the region refuses the call: the window goes
	// back, as in CreateTopic's refusal.
	var lr leaseRegion
	if err := catch(pmem.ErrOutOfSpace, func() {
		lr = initLeaseRegion(b.hs.Heap(hi), tid, hi, loc.base, group, capacity)
	}); err != nil {
		b.cat.release(loc, 1)
		return 0, fmt.Errorf("broker: lease region %d: %w", group, err)
	}
	b.cat.appendRecord(tid, ackGroupRecord(b.cat.records+1, capacity, loc))
	b.regionMu.Lock()
	b.regions = append(b.regions, lr)
	b.bound = append(b.bound, false)
	b.regionMu.Unlock()
	sp.done(obs.OpAdmin, nil)
	return group, nil
}

// DeleteTopic retires the named topic durably and reclaims its
// root-slot windows: the topic is unpublished from the data plane
// (every *Topic handle turns into ErrTopicDeleted, in-flight
// operations are drained), a checksummed tombstone record is appended
// to the catalog log and anchored exactly like a creation, and only
// after that anchor persist do the topic's shard windows leave the
// live slot table, free for CreateTopic to reuse. A crash anywhere
// before the anchor recovers as "the topic still exists" — with every
// message it held — and a crash after it recovers the delete
// completely, so a window is never reusable in any execution where the
// topic could come back.
//
// Messages still in the topic are dropped with it: drain first (group
// consumption or DequeueShard) if they matter. Consumer groups that
// subscribed the topic keep working on their other topics — polls skip
// the deleted refs — and the topic's global shard ordinals are never
// reissued, so its stale lease lines can never be adopted by a new
// topic.
//
// The catalog-protocol cost is at most three blocking persists; the
// common path is two (tombstone record, commit stamp). When tombstone
// debris has accumulated past half the log's record space, DeleteTopic
// compacts the log in the same call (see CompactCatalog) — amortized,
// the cost bound still holds.
func (b *Broker) DeleteTopic(tid int, name string) error {
	b.adminMu.Lock()
	defer b.adminMu.Unlock()
	sp := b.span(tid)
	snap := b.set()
	t := snap.byName[name]
	if t == nil {
		return fmt.Errorf("broker: no topic %q", name)
	}
	if t.cfg.Kind.heapKind() {
		// The dheap's entry region is AllocRaw'd from the member heap,
		// which has no free path, so a re-created heap topic would strand
		// a whole arena per churn cycle (a re-created FIFO shard strands
		// less: its node pool's registry and areas, and its per-thread
		// line regions). Refused
		// until dheap regions are recyclable (see the ROADMAP follow-on).
		return fmt.Errorf("broker: DeleteTopic on %s topic %q: %w (a heap topic's entry region cannot be recycled)",
			t.cfg.Kind, name, errors.ErrUnsupported)
	}
	// Reserve log space up front. A log too full for a tombstone but
	// holding debris is compacted instead — the new generation simply
	// omits the topic, which is the same atomic flip.
	roomErr := b.cat.room(tombstoneLines)
	if roomErr != nil && b.cat.deadLines == 0 {
		return roomErr
	}

	// 1. Unpublish: swap a snapshot without the topic, flip its deleted
	// flag, and drain the data plane — after this loop no operation is
	// inside a shard and none can get in.
	ns := &topicSet{
		byName:     make(map[string]*Topic, len(snap.byName)-1),
		shardTotal: snap.shardTotal,
	}
	for _, tp := range snap.list {
		if tp != t {
			ns.list = append(ns.list, tp)
			ns.byName[tp.Name()] = tp
		}
	}
	b.snap.Store(ns)
	t.deleted.Store(true)
	for t.inflight.Load() != 0 {
		runtime.Gosched()
	}

	// 2 + 3. Tombstone: append, fence, anchor. Visible (the topic gone)
	// only after the commit persist; a crash in between recovers the
	// topic.
	if roomErr != nil {
		if err := b.compactLocked(tid, 0); err != nil {
			// Nothing durable changed; resurrect the volatile state.
			t.deleted.Store(false)
			b.snap.Store(snap)
			return err
		}
	} else {
		b.cat.appendRecord(tid, tombstoneRecord(b.cat.records+1, name))
		b.cat.deadLines += topicRecLines(len(t.locs)) + tombstoneLines
	}

	// 4. Reclaim: only now — the tombstone (or the generation that
	// omits the topic) is anchored — do the windows leave the slot
	// table. The view claims go back to the member heaps so CreateTopic
	// can re-view the same slots.
	for si, loc := range t.locs {
		b.hs.Heap(loc.heap).ReleaseView(t.shards[si].h)
		b.cat.release(loc, slotsForKind(t.cfg.Kind))
	}

	// Debris past half the record space triggers reclamation of the log
	// itself.
	if b.cat.deadLines*2 > b.cat.totalLines-logHeaderLines {
		if err := b.compactLocked(tid, 0); err != nil {
			return fmt.Errorf("broker: topic %q deleted, but compaction failed: %w", name, err)
		}
	}
	sp.done(obs.OpAdmin, nil)
	return nil
}

// CompactCatalog rewrites the catalog log's live records into a fresh
// next-generation region, dropping tombstone debris, and flips the
// root-slot anchor to it — one single-word persist, so recovery on
// either side of the flip reads exactly one complete generation.
// capacityLines resizes the log's record space (0 keeps the current
// capacity), which makes compaction the log-full escape hatch: a
// broker that outgrew its log compacts into a larger generation
// without restarting. A heap too full for a new region
// refuses the call with an error wrapping pmem.ErrOutOfSpace and
// leaves the log as it was.
//
// Cost: one fence covering the whole new generation plus the anchor
// persist — independent of how many dead records are dropped.
// DeleteTopic calls this automatically when debris exceeds half the
// record space; explicit calls are for resizing or for reclaiming
// eagerly.
func (b *Broker) CompactCatalog(tid, capacityLines int) error {
	b.adminMu.Lock()
	defer b.adminMu.Unlock()
	sp := b.span(tid)
	maxCap := maxCatalogLines - logHeaderLines
	if capacityLines < 0 || capacityLines > maxCap {
		return fmt.Errorf("broker: capacityLines %d out of range [0,%d]", capacityLines, maxCap)
	}
	if err := b.compactLocked(tid, capacityLines); err != nil {
		return err
	}
	sp.done(obs.OpAdmin, nil)
	return nil
}

// compactLocked gathers the live catalog records — the current
// snapshot's topics with their ordinal bases, then every lease region
// — and hands them to the log's generation writer. Caller holds
// adminMu.
func (b *Broker) compactLocked(tid, capacityLines int) error {
	snap := b.set()
	var recs []catRecord
	for _, t := range snap.list {
		recs = append(recs, topicRecord(len(recs)+1, t.cfg, t.locs, t.base))
	}
	b.regionMu.Lock()
	for _, lr := range b.regions {
		recs = append(recs, ackGroupRecord(len(recs)+1, lr.cap, shardLoc{heap: lr.heap, base: lr.slot}))
	}
	b.regionMu.Unlock()
	return b.cat.compact(tid, b.threads, capacityLines, recs, snap.shardTotal)
}
