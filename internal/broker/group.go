package broker

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrLeaseCapacity reports a topic whose shards' global ordinals
// exceed the lease region's recorded capacity. Binding has one path —
// NewGroupAcked subscribes its topics through Subscribe — so the
// diagnostic (topic, shard, ordinal, region, capacity) is the same
// whenever it is refused; callers test errors.Is(err, ErrLeaseCapacity)
// and react by minting a roomier region (CreateAckGroup).
var ErrLeaseCapacity = errors.New("broker: lease region capacity exceeded")

// ErrPlainGroup reports an acknowledgment-path verb (Ack, Nack, Renew)
// or a membership verb (Adopt, Scan, Steal) on a group that keeps no
// delivery state (NewGroup). The refusal names the verb, takes no lock
// and issues no persist instruction.
var ErrPlainGroup = errors.New("broker: group has no acknowledgments (use NewGroupAcked)")

// acked refuses verb on a plain group.
func (g *Group) acked(verb string) error {
	if !g.leased {
		return fmt.Errorf("%w: %s", ErrPlainGroup, verb)
	}
	return nil
}

// Message is one delivered payload with its provenance.
type Message struct {
	Topic   string
	Shard   int
	Payload []byte
}

// ShardRef names one shard of one topic.
type ShardRef struct {
	Topic string
	Shard int
}

// Group is a consumer group over a set of topics. Every shard of
// every subscribed topic is assigned to exactly one member, so the
// group collectively consumes each message once. Shard ownership means
// per-shard FIFO order is preserved end-to-end.
//
// Plain groups (NewGroup) are at-least-once across crashes: a
// delivery is durable when the poll returns, and a member that crashed
// mid-poll leaves its window to be recovered. Acked groups
// (NewGroupAcked) separate delivery from processing: a poll writes a
// durable lease record before returning messages and the messages are
// consumed only when Consumer.Ack covers them, giving exactly-once
// *processing* across consumer crashes (lease takeover redelivers the
// unacked suffix, see Adopt) and broker crashes (recovery redelivers
// everything beyond the acked frontier).
type Group struct {
	consumers []*Consumer
	b         *Broker
	topics    map[string]bool // subscribed topic names

	// ostats is the group's gauge state (per-shard lag cursors),
	// non-nil exactly when the broker has an observer.
	ostats *obs.GroupStats

	// Acked-group state (zero for plain groups).
	leased    bool
	region    leaseRegion
	regionIdx int // the region's index (LeaseConfig.Region), for diagnostics
	ttl       uint64
	now       func() uint64
	cache     []leaseCache // one per global shard ordinal, owner-accessed
	recovered []RecoveredLease
	mu        sync.Mutex // serializes Adopt/Scan/Steal and Subscribe against each other

	// epochs holds the current fencing token per global shard ordinal —
	// the volatile authority mirrored into every lease line's epoch
	// word. Seeded from the durable lines at bind (pre-epoch regions
	// seed 0), bumped under g.mu on every takeover. See membership.go.
	epochs []uint64
}

// leaseCache mirrors one durable lease line: durable is the content
// covered by the last completed fence (renewal elision compares
// against it), pending the content staged by an unfenced write.
type leaseCache struct {
	durable Lease
	pending Lease
	seq     uint64
}

// RecoveredLease is a lease found active (or torn) in the durable
// region when an acked group bound it — the in-flight delivery state
// of the group's previous incarnation, which Gray's argument says must
// be as durable as the payloads themselves. The referenced messages
// were never acknowledged, so they are back in their shards awaiting
// redelivery; the record tells an operator who held them and until
// when. Torn records (a crash mid-lease-write) decode as the zero
// Lease.
type RecoveredLease struct {
	Shard ShardRef
	Lease Lease
}

func (b *Broker) collectRefs(topicNames []string) ([]*consumerShard, error) {
	var refs []*consumerShard
	for _, name := range topicNames {
		t := b.Topic(name)
		if t == nil {
			return nil, fmt.Errorf("broker: unknown topic %q", name)
		}
		if t.cfg.Kind != KindFIFO {
			return nil, t.kindErr("group subscription", KindFIFO)
		}
		for s := 0; s < t.Shards(); s++ {
			refs = append(refs, &consumerShard{t: t, shard: s, global: t.base + s})
		}
	}
	return refs, nil
}

// newGroup makes a group of n members owning nothing: every
// constructor subscribes its topics through Group.Subscribe, the one
// place shards are admitted, bound and dealt.
func (b *Broker) newGroup(n int) (*Group, error) {
	if n <= 0 {
		return nil, fmt.Errorf("broker: group needs at least one consumer")
	}
	g := &Group{consumers: make([]*Consumer, n), b: b, topics: map[string]bool{}}
	for i := range g.consumers {
		g.consumers[i] = &Consumer{g: g, id: i}
	}
	return g, nil
}

// Stats returns the group's observability gauge state — the per-shard
// lag cursors the elastic-groups autoscaler reads — or nil when the
// broker has no observer.
func (g *Group) Stats() *obs.GroupStats { return g.ostats }

// NewGroup subscribes n consumers to the named topics, assigning
// shards to members round-robin across the combined shard list.
// Acked topics may be consumed through a plain group too: every
// delivery is then acknowledged immediately (auto-ack), which keeps
// the at-least-once contract but forfeits both ack amortization and
// crash redelivery of in-flight messages.
func (b *Broker) NewGroup(topicNames []string, n int) (*Group, error) {
	g, err := b.newGroup(n)
	if err == nil {
		err = g.Subscribe(0, topicNames...)
	}
	if err != nil {
		return nil, err
	}
	return g, nil
}

// LeaseConfig parameterizes an acked consumer group.
type LeaseConfig struct {
	// Region selects which lease region (the index CreateAckGroup
	// returned) backs the group; a region serves one live group at a
	// time, and covers only topics whose shards' global ordinals fall
	// below its recorded capacity.
	Region int
	// TTL is the lease duration in clock units; a member whose lease is
	// older than TTL may have its shards adopted (Adopt). Default:
	// one second of wall-clock nanoseconds.
	TTL uint64
	// Now is the group's clock. Default: wall-clock nanoseconds. Tests
	// inject logical clocks for deterministic expiry.
	Now func() uint64
}

// NewGroupAcked subscribes n consumers to the named topics — all of
// which must be Acked — with durable delivery state: every poll writes
// a lease record into the group's region before returning messages,
// Consumer.Ack durably marks them processed, and Adopt moves a
// crashed member's shards (redelivering its unacked suffix) to a
// survivor. Shards are dealt round-robin as in NewGroup.
//
// The topics are bound exactly as Subscribe binds them — it is the
// same code, run with thread id 0 — so records left active in the
// region by a previous incarnation are returned by RecoveredLeases and
// cleared. Call while no other thread operates on the broker.
func (b *Broker) NewGroupAcked(topicNames []string, n int, lc LeaseConfig) (*Group, error) {
	g, err := b.newGroup(n)
	if err != nil {
		return nil, err
	}
	// Claim the region before anything is bound, written or registered
	// with the observer, so a refusal leaves no trace of the group.
	b.regionMu.Lock()
	switch {
	case lc.Region < 0 || lc.Region >= len(b.regions):
		err = fmt.Errorf("broker: lease region %d out of range (broker has %d; use CreateAckGroup)",
			lc.Region, len(b.regions))
	case b.bound[lc.Region]:
		err = fmt.Errorf("broker: lease region %d already serves a group", lc.Region)
	default:
		b.bound[lc.Region] = true
		g.region = b.regions[lc.Region]
	}
	b.regionMu.Unlock()
	if err != nil {
		return nil, err
	}
	g.leased, g.regionIdx = true, lc.Region
	g.ttl = lc.TTL
	if g.ttl == 0 {
		g.ttl = uint64(time.Second)
	}
	g.now = lc.Now
	if g.now == nil {
		g.now = func() uint64 { return uint64(time.Now().UnixNano()) }
	}
	// Sized to the region's capacity, not the current shard total, so
	// topics subscribed later index it without growing.
	g.cache = make([]leaseCache, g.region.cap)
	g.epochs = make([]uint64, g.region.cap)
	if err := g.Subscribe(0, topicNames...); err != nil {
		// Refused before its first write: the group never existed, so
		// the claim must not outlive it.
		b.regionMu.Lock()
		b.bound[lc.Region] = false
		b.regionMu.Unlock()
		return nil, err
	}
	return g, nil
}

// Subscribe adds the named topics' shards to the group — the way a
// group reaches topics created (CreateTopic) after the group was, and
// the way every constructor gives a new group its first ones. New
// shards are dealt one by one to the member owning the fewest (ties to
// the lowest index — round-robin from an empty group), so load stays
// balanced; existing assignments never move. Subscribing a topic the
// group already consumes is an error, as is a non-Acked topic, or one
// whose global ordinals exceed the region's capacity
// (ErrLeaseCapacity), on an acked group. A refused Subscribe changed
// nothing, durable or volatile.
//
// Binding a shard to an acked group seeds its frontier from the
// queue's durable acked index and its fencing token from the durable
// lease line (virgin and pre-epoch v<=4 lines seed epoch 0), surfaces
// a record a previous incarnation left active — or torn — through
// RecoveredLeases, and clears it preserving the epoch, so a cleared
// line still outranks any pre-crash owner. The clears ride one fence;
// a fresh region (all lines virgin) writes nothing.
//
// tid must be owned by the caller (it writes lease records on an
// acked group). Members may keep polling on their own tids meanwhile,
// on either group kind: every member verb holds its consumer's lock,
// and Subscribe holds them all.
func (g *Group) Subscribe(tid int, topicNames ...string) error {
	defer g.lockAll()()
	call := map[string]bool{}
	for _, name := range topicNames {
		if g.topics[name] {
			return fmt.Errorf("broker: group already subscribes topic %q", name)
		}
		if call[name] {
			return fmt.Errorf("broker: duplicate topic %q in Subscribe", name)
		}
		call[name] = true
	}
	refs, err := g.b.collectRefs(topicNames)
	if err != nil {
		return err
	}
	if g.leased {
		for _, r := range refs {
			if !r.t.Acked() {
				return fmt.Errorf("broker: acked group over topic %q, which is not Acked", r.t.Name())
			}
			// The region covers global shard ordinals [0, cap): a topic
			// created after the region may exceed it, in which case this
			// group needs a region with more headroom (CreateAckGroup with
			// a larger Capacity).
			if r.global >= g.region.cap {
				return fmt.Errorf("%w: topic %q shard %d (global ordinal %d) exceeds lease region %d's capacity %d",
					ErrLeaseCapacity, r.t.Name(), r.shard, r.global, g.regionIdx, g.region.cap)
			}
		}
	}
	// Past the last refusal: from here on the call cannot fail.
	w := leaseWriter{g: g, tid: tid}
	if g.leased {
		for _, r := range refs {
			floor := r.t.shards[r.shard].AckedTo()
			r.deliveredTo, r.leasedTo = floor, floor
			l, ok := g.region.readLeaseLine(r.global)
			if ok {
				g.epochs[r.global] = l.Epoch
			}
			r.epoch = g.epochs[r.global]
			if !ok || l.Active {
				g.recovered = append(g.recovered,
					RecoveredLease{Shard: ShardRef{Topic: r.t.Name(), Shard: r.shard}, Lease: l})
				w.write(r.global, Lease{Epoch: l.Epoch})
			}
		}
	}
	for _, r := range refs {
		c := leastLoaded(g.consumers)
		c.refs = append(c.refs, r)
	}
	// The group meets the observer here and not in its constructor, so
	// one that was refused is never listed.
	if o := g.b.obs; o != nil {
		if g.ostats == nil {
			g.ostats = o.RegisterGroup()
		}
		for _, r := range refs {
			r.cur = g.ostats.AddShard(r.t.ostats, r.shard)
		}
	}
	w.commit()
	for _, name := range topicNames {
		g.topics[name] = true
	}
	return nil
}

// lockAll takes the group's lock and then every member's, in member
// order — the one order every whole-group operation (Subscribe,
// Adopt, Scan, Steal) uses — and returns the matching unlock.
func (g *Group) lockAll() (unlock func()) {
	g.mu.Lock()
	for _, c := range g.consumers {
		c.mu.Lock()
	}
	return func() {
		for _, c := range g.consumers {
			c.mu.Unlock()
		}
		g.mu.Unlock()
	}
}

// leastLoaded picks the member owning the fewest shards, ties to the
// first: the one dealing rule of Subscribe, Adopt and Scan.
func leastLoaded(cs []*Consumer) *Consumer {
	min := cs[0]
	for _, c := range cs[1:] {
		if len(c.refs) < len(min.refs) {
			min = c
		}
	}
	return min
}

// RecoveredLeases lists the lease records an acked group found active
// (or torn) at bind time — the previous incarnation's in-flight
// windows. Nil for plain groups and for a first binding.
func (g *Group) RecoveredLeases() []RecoveredLease { return g.recovered }

// Size returns the number of group members.
func (g *Group) Size() int { return len(g.consumers) }

// Consumer returns group member i.
func (g *Group) Consumer(i int) *Consumer { return g.consumers[i] }

type consumerShard struct {
	t      *Topic
	shard  int
	global int // ordinal across all topics, indexes the lease region

	// cur is the shard's lag cursor in the group's gauge state, non-nil
	// exactly when the broker has an observer. Advanced on fresh
	// deliveries only — redeliveries re-serve messages the frontier
	// already passed.
	cur *obs.ShardCursor

	// Acked-group bookkeeping, accessed only by the owning member (or
	// under the involved members' locks during Adopt/Scan/Steal).
	deliveredTo uint64 // last queue index returned to the application
	leasedTo    uint64 // high end of the durable lease obligation
	pendingN    int    // queued redeliveries not yet re-served
	unackedN    int    // messages delivered but not yet acknowledged
	epoch       uint64 // fencing token the current owner writes into the lease line
}

// pendingMsg is one message awaiting redelivery: adopted from a
// crashed member or returned by a Nack.
type pendingMsg struct {
	r       *consumerShard
	idx     uint64
	payload []byte
}

// Consumer is one group member. A Consumer must be driven by a single
// goroutine; tid follows the usual one-goroutine-per-tid rule.
type Consumer struct {
	g       *Group
	id      int
	mu      sync.Mutex // held by every member verb, and by lockAll for all members at once
	refs    []*consumerShard
	next    int
	pending []pendingMsg

	// fenced records the shards taken from this member since its last
	// acknowledgment-path op: the member held a now-stale epoch on
	// them. The next Ack/Nack/Renew is refused with ErrFenced
	// (consuming the record), so a presumed-dead member that resurfaces
	// learns it lost ownership before any of its state reaches the
	// durable frontier. See membership.go.
	fenced []fencedShard

	// Scratch of the poll and ack verbs, reused so that a verb allocates
	// only the messages it returns: a poll's payloads and the shard each
	// came from, one shard's indices, the shards owed a fence (their
	// topics still entered), the lease lines staged. Only a verb holding
	// c.mu uses them, and every verb leaves the pointer-holding ones
	// cleared, not just truncated (see reset) — between calls a member
	// pins no payload, shard or topic.
	ps      [][]byte
	from    []*consumerShard
	idxs    []uint64
	touched []*consumerShard
	staged  []int
}

// gathered records r as the shard of every payload in c.ps from index
// from on.
func (c *Consumer) gathered(from int, r *consumerShard) {
	for range c.ps[from:] {
		c.from = append(c.from, r)
	}
}

// message returns the i-th payload a poll gathered as a Message.
func (c *Consumer) message(i int) Message {
	r := c.from[i]
	return Message{Topic: r.t.Name(), Shard: r.shard, Payload: c.ps[i]}
}

// messages returns the payloads a poll gathered in the member's scratch
// as messages, in one allocation sized to what was dequeued (nil for
// none), and leaves the scratch cleared: a poll for a large max that
// finds one message pays for one.
func (c *Consumer) messages() []Message {
	if len(c.ps) == 0 {
		return nil
	}
	out := make([]Message, len(c.ps))
	for i := range c.ps {
		out[i] = c.message(i)
	}
	c.ps, c.from = reset(c.ps), reset(c.from)
	return out
}

// reset empties a reused buffer of pointers: cleared before it is
// truncated, because s[:0] alone leaves the old elements in the backing
// array, where what one wide call put there stays reachable for as long
// as later calls are narrower. A loop, not clear: a poll resets four
// buffers of one element or so, and clear's runtime call cost a Poll
// about 20 ns more than these stores.
func reset[T any](s []T) []T {
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s[:0]
}

// exitTouched leaves the topics of the shards a verb left owing a
// fence, once the fence landed — or a crash signal ended the verb.
func (c *Consumer) exitTouched() {
	for _, r := range c.touched {
		r.t.exit()
	}
	c.touched = reset(c.touched)
}

// Assigned lists the shards this member owns.
func (c *Consumer) Assigned() []ShardRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ShardRef, len(c.refs))
	for i, r := range c.refs {
		out[i] = ShardRef{Topic: r.t.Name(), Shard: r.shard}
	}
	return out
}

// Poll delivers the first available message of the member's shards,
// scanned round-robin: it is PollBatch with max 1, returning the one
// message by value, so it allocates nothing. ok is false when every
// owned shard was observed empty. When Poll returns a message, the
// delivery is already durable (the dequeue's persist covers it on a
// plain group; the lease record on an acked one).
func (c *Consumer) Poll(tid int) (Message, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.poll(tid, 1) {
		return Message{}, false
	}
	m := c.message(0)
	c.ps, c.from = reset(c.ps), reset(c.from)
	return m, true
}

// PollBatch drains up to max messages from the member's shards
// round-robin, riding a single blocking persist per persistence
// domain it dequeued from: each shard's batch dequeue issues one
// NTStore of its new head index, and since a fence is per-thread
// *per-heap* and covers all of that thread's outstanding NTStores on
// that heap regardless of which shard's local line they target, one
// SFENCE per touched heap at the end makes every shard's progress
// durable together. With all of a member's shards on one domain that
// is a single fence per poll; a poll that finds every owned shard
// empty at an already-persisted head index issues no persist
// instructions at all, so idle consumers poll for free.
//
// On a plain group the batch is acknowledged as a whole when PollBatch
// returns: at that point every delivery in it is durable and will
// never be re-delivered after a crash. A crash mid-poll leaves the
// whole window unacknowledged — its messages are redelivered (or, for
// a suffix whose NTStore happened to land without the fence, consumed)
// on recovery, exactly dual to PublishBatch.
//
// On an acked group the poll instead *leases*: the shard dequeues
// issue no persist instructions at all, and what the single fence
// makes durable — before any message is returned — is the lease
// record (owner, unacked range, deadline) in the group's region, so
// delivery state itself survives crashes. Messages queued for
// redelivery (Adopt, Nack) are served first, in index order per
// shard; the batch stays redeliverable until Consumer.Ack covers it.
// An empty result means every owned shard was observed empty.
func (c *Consumer) PollBatch(tid, max int) []Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.poll(tid, max)
	return c.messages()
}

// poll gathers up to max messages into the member's scratch through
// the group kind's body and reports whether it found any. The caller
// holds c.mu.
func (c *Consumer) poll(tid, max int) bool {
	if max <= 0 || len(c.refs) == 0 {
		return false
	}
	sp := c.g.b.span(tid)
	c.ps, c.from = c.ps[:0], c.from[:0]
	if c.g.leased {
		c.gatherLeased(tid, max, sp)
	} else {
		c.gatherPlain(tid, max, sp)
	}
	if len(c.ps) == 0 {
		// An all-empty scan moves the cursor once round the ring, back
		// where it was: resetting it would bias delivery toward
		// low-numbered shards after any idle period. It records no
		// latency sample either: an idle poll is free by design, and a
		// spin-polling consumer would otherwise drown the delivery
		// distribution in empty-scan samples.
		return false
	}
	sp.lat(obs.OpPoll)
	return true
}

// gatherPlain is a plain group's poll body: one unfenced batch dequeue
// per shard, then one fence per touched domain.
func (c *Consumer) gatherPlain(tid, max int, sp span) {
	// A shard whose dequeue left an NTStore unfenced keeps its topic
	// entered until after the covering fence: the NTStore must land
	// before DeleteTopic may reclaim (and CreateTopic reuse) the window
	// it targets. Any other shard's topic is left at once.
	defer c.exitTouched()
	for scanned := 0; scanned < len(c.refs) && len(c.ps) < max; scanned++ {
		r := c.refs[c.next]
		if !r.t.enter() {
			c.next = (c.next + 1) % len(c.refs)
			continue // topic retired: its shards read as empty
		}
		// One NTStore of the shard's new head index now; the fence (one
		// per touched heap, below) and the retires wait. An acked shard
		// instead leases and acknowledges under its own fence: amortized
		// acked consumption goes through leased groups, not this path.
		var dirty bool
		from := len(c.ps)
		c.ps, dirty = r.t.shards[r.shard].DequeueBatchAppend(tid, max-from, c.ps)
		if dirty {
			c.touched = append(c.touched, r)
		} else {
			r.t.exit()
		}
		sp.delivered(r.t, r.shard, r.cur, len(c.ps)-from)
		c.gathered(from, r)
		// Advance past the shard even when it filled the batch: the
		// next poll then starts at the following shard, so one
		// continuously hot shard cannot starve the others.
		c.next = (c.next + 1) % len(c.refs)
	}
	// One fence per distinct domain covers every touched shard's
	// NTStores there.
	fenceShards(tid, c.touched)
	for _, r := range c.touched {
		r.t.shards[r.shard].CompleteBatch(tid)
	}
}

// gatherLeased is an acked group's poll body: redeliveries first, then
// leased dequeues, then one fence for the lease lines written.
func (c *Consumer) gatherLeased(tid, max int, sp span) {
	// Redeliveries first: adopted or nacked messages are already
	// covered by a durable lease, so serving them costs nothing.
	for len(c.ps) < max && len(c.pending) > 0 {
		p := c.pending[0]
		c.pending[0] = pendingMsg{} // the served prefix must not pin its payloads
		c.pending = c.pending[1:]
		if p.r.t.Deleted() {
			// Retired with the topic: a deleted topic's messages are
			// dropped, redeliveries included (see DeleteTopic).
			p.r.pendingN--
			continue
		}
		c.ps, c.from = append(c.ps, p.payload), append(c.from, p.r)
		p.r.deliveredTo = p.idx
		p.r.pendingN--
		p.r.unackedN++
		// A re-serve counts as delivered and redelivered; the lag
		// frontier already passed this message, so it stays put.
		bump(p.r.t.ostats, (*obs.TopicStats).Delivered, 1)
		bump(p.r.t.ostats, (*obs.TopicStats).Redelivered, 1)
	}
	w := leaseWriter{g: c.g, tid: tid, staged: c.staged}
	deadline := c.g.now() + c.g.ttl
	for scanned := 0; scanned < len(c.refs) && len(c.ps) < max; scanned++ {
		r := c.refs[c.next]
		c.next = (c.next + 1) % len(c.refs)
		if r.pendingN > 0 {
			// Per-shard FIFO: no fresh dequeues ahead of queued
			// redeliveries of the same shard.
			continue
		}
		if !r.t.enter() {
			continue // topic retired: its shards read as empty
		}
		s := r.t.shards[r.shard]
		from := len(c.ps)
		c.ps, c.idxs = s.DequeueLeasedAppend(tid, max-from, c.ps, c.idxs[:0])
		r.t.exit()
		n := len(c.idxs)
		if n == 0 {
			continue
		}
		c.gathered(from, r)
		sp.delivered(r.t, r.shard, r.cur, n)
		r.deliveredTo = c.idxs[n-1]
		r.leasedTo = r.deliveredTo
		r.unackedN += n
		w.hold(r, c.id, s.AckedTo(), deadline)
	}
	// The leases are durable before any message is exposed; a crash
	// before this fence redelivers the whole window on recovery.
	w.commit()
	c.staged = w.staged
}

// Ack durably acknowledges every message this member has been handed
// so far: for each owned shard, one NTStore of the delivered index
// into the shard queue's per-thread ack line, then a single fence per
// touched persistence domain — the whole ack batch rides one blocking
// persist per domain, and an Ack with nothing new to acknowledge costs
// nothing. Acknowledged messages are never redelivered, by any path:
// recovery takes the maximum acked index per thread exactly as it does
// for head indices. Returns the number of newly acknowledged messages.
//
// If this member was fenced off any of its shards since its last
// acknowledgment-path op (Adopt, Scan or Steal took them — the
// member held a stale epoch), Ack refuses the whole call with
// ErrFenced and acknowledges nothing: the member must treat its
// outstanding window as lost (it will be redelivered elsewhere) and
// re-poll. The refusal consumes the fencing record, so subsequent
// calls proceed on the shards the member still owns. On a plain group
// Ack returns ErrPlainGroup.
func (c *Consumer) Ack(tid int) (int, error) {
	if err := c.ackPath(tid, "Ack"); err != nil {
		return 0, err
	}
	defer c.mu.Unlock()
	sp := c.g.b.span(tid)
	n := 0
	// A shard with an ack NTStore unfenced keeps its topic entered
	// until the covering fence landed, so DeleteTopic cannot reclaim
	// the window under it; any other shard's topic is left at once.
	defer c.exitTouched()
	for _, r := range c.refs {
		if !r.t.enter() {
			// Retired with the topic: nothing durable left to advance,
			// and the outstanding window is dropped, not acknowledged.
			r.unackedN = 0
			continue
		}
		s := r.t.shards[r.shard]
		if r.deliveredTo <= s.AckedTo() {
			r.t.exit()
			continue
		}
		// Count delivered messages, not the index delta: the range may
		// contain gaps where recovery discarded torn enqueues.
		n += r.unackedN
		bump(r.t.ostats, (*obs.TopicStats).Acked, r.unackedN)
		r.unackedN = 0
		if s.AckToUnfenced(tid, r.deliveredTo) {
			c.touched = append(c.touched, r)
		} else {
			r.t.exit()
		}
	}
	// One fence per distinct domain covers every touched shard's ack
	// NTStores there; only then are the durable frontiers promoted.
	fenceShards(tid, c.touched)
	for _, r := range c.touched {
		r.t.shards[r.shard].CompleteAck(tid)
	}
	// Like an empty poll, an Ack with nothing new to acknowledge costs
	// nothing and records no sample.
	if n > 0 {
		sp.done(obs.OpAck, nil)
	}
	return n, nil
}

// ackPath is the preamble every acknowledgment-path verb shares:
// refuse a plain group, lock the member, and refuse (ErrFenced) a
// member that lost shards to a takeover. On a nil return the caller
// holds c.mu; on a refusal nothing is held and nothing was persisted
// on the verb's behalf.
func (c *Consumer) ackPath(tid int, verb string) error {
	if err := c.g.acked(verb); err != nil {
		return err
	}
	c.mu.Lock()
	if err := c.takeFenced(tid); err != nil {
		c.mu.Unlock()
		return err
	}
	return nil
}

// Nack rescinds every delivered-but-unacknowledged message of this
// member: the messages go back onto the member's redelivery queue (a
// later PollBatch serves them again, in order, before any fresh
// dequeue of the same shard), and each affected shard's lease record
// is rewritten — one NTStoreLine per shard, one fence for the whole
// nack — so the rescission itself is durable delivery state. Returns
// the number of messages queued for redelivery, or ErrFenced (and
// queues nothing) when the member was fenced off shards since its
// last acknowledgment-path op, or ErrPlainGroup — see Ack.
func (c *Consumer) Nack(tid int) (int, error) {
	if err := c.ackPath(tid, "Nack"); err != nil {
		return 0, err
	}
	defer c.mu.Unlock()
	w := leaseWriter{g: c.g, tid: tid}
	deadline := c.g.now() + c.g.ttl
	var nacked []pendingMsg
	for _, r := range c.refs {
		if !r.t.enter() {
			r.unackedN = 0 // dropped with the topic, see Ack
			continue
		}
		s := r.t.shards[r.shard]
		floor := s.AckedTo()
		if r.deliveredTo <= floor {
			r.t.exit()
			continue
		}
		ps, idxs := s.Unacked()
		r.t.exit()
		for i := range ps {
			if idxs[i] > r.deliveredTo {
				break // not yet re-served redeliveries stay where they are
			}
			nacked = append(nacked, pendingMsg{r: r, idx: idxs[i], payload: ps[i]})
			r.pendingN++
		}
		r.deliveredTo = floor
		r.unackedN = 0
		w.hold(r, c.id, floor, deadline)
	}
	// Prepending keeps per-shard index order: everything nacked
	// precedes any still-queued redelivery of the same shard.
	c.pending = append(nacked, c.pending...)
	w.commit()
	return len(nacked), nil
}

// Renew extends this member's lease deadlines to the given instant on
// every shard it holds unacknowledged messages of. A renewal whose
// deadline the durable record already covers writes nothing and costs
// nothing — renewing a healthy consumer at now+TTL is free until the
// deadline actually needs moving; otherwise the rewritten lines ride
// a single fence. A member fenced off shards since its last
// acknowledgment-path op gets ErrFenced and renews nothing (0 fences):
// a stale owner must not refresh deadlines on leases it lost. On a
// plain group Renew returns ErrPlainGroup.
func (c *Consumer) Renew(tid int, deadline uint64) error {
	if err := c.ackPath(tid, "Renew"); err != nil {
		return err
	}
	defer c.mu.Unlock()
	w := leaseWriter{g: c.g, tid: tid}
	for _, r := range c.refs {
		if !r.t.enter() {
			continue // retired with the topic: no lease to maintain
		}
		s := r.t.shards[r.shard]
		floor := s.AckedTo()
		r.t.exit()
		if r.leasedTo <= floor {
			continue // nothing unacknowledged: no lease to maintain
		}
		d := c.g.cache[r.global].durable
		if d.Active && d.Owner == c.id && d.Deadline >= deadline {
			continue // already durably covered
		}
		w.hold(r, c.id, floor, deadline)
	}
	w.commit()
	return nil
}

// leaseWriter batches lease-line writes that ride one fence on the
// region's domain; commit promotes the write cache only after the
// fence, so renewal elision never trusts an unfenced deadline.
type leaseWriter struct {
	g      *Group
	tid    int
	staged []int
}

func (w *leaseWriter) write(global int, l Lease) {
	c := &w.g.cache[global]
	c.seq++
	l.Seq = c.seq
	w.g.region.writeLeaseLine(w.tid, global, l)
	c.pending = l
	w.staged = append(w.staged, global)
}

// hold stages r's active line: owner holds the unacknowledged range
// (floor, r.leasedTo] under r's current epoch until deadline.
func (w *leaseWriter) hold(r *consumerShard, owner int, floor, deadline uint64) {
	w.write(r.global, Lease{
		Active: true, Owner: owner, Epoch: r.epoch,
		Lo: floor + 1, Hi: r.leasedTo,
		Deadline: deadline,
	})
}

func (w *leaseWriter) commit() {
	if len(w.staged) == 0 {
		return
	}
	w.g.region.h.Fence(w.tid)
	for _, gl := range w.staged {
		c := &w.g.cache[gl]
		c.durable = c.pending
	}
	w.staged = w.staged[:0]
}
