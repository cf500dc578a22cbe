package broker

import (
	"bytes"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/pmem"
)

// twoAckedTopics mirrors twoTopics with acknowledgment required on
// both: one fixed-width topic, one variable-payload topic.
func twoAckedTopics() []TopicConfig {
	return []TopicConfig{
		{Name: "events", Shards: 4, Acked: true},
		{Name: "jobs", Shards: 4, MaxPayload: 100, Acked: true},
	}
}

// logicalClock is a deterministic lease clock for tests.
type logicalClock struct{ v atomic.Uint64 }

func (c *logicalClock) Now() uint64      { return c.v.Load() }
func (c *logicalClock) Advance(d uint64) { c.v.Add(d) }

func newAckedBroker(t *testing.T, heaps, threads int, mode pmem.Mode) (*pmem.HeapSet, *Broker) {
	t.Helper()
	hs := pmem.NewSet(heaps, pmem.Config{Bytes: 64 << 20, Mode: mode, MaxThreads: threads})
	b, err := newBroker(hs, Options{Threads: threads}, twoAckedTopics(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return hs, b
}

// TestAckedDeliverAckRedeliver is the basic acked-group contract on a
// live broker: polled messages stay redeliverable until acked, Nack
// requeues them in order, Ack consumes them for good.
func TestAckedDeliverAckRedeliver(t *testing.T) {
	_, b := newAckedBroker(t, 1, 2, pmem.ModePerf)
	clk := &logicalClock{}
	g, err := b.NewGroupAcked([]string{"events", "jobs"}, 1, LeaseConfig{TTL: 10, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.RecoveredLeases()) != 0 {
		t.Fatalf("fresh bind recovered %d leases, want 0", len(g.RecoveredLeases()))
	}
	const n = 40
	for i := uint64(0); i < n; i++ {
		b.Topic("events").Publish(0, U64(i))
		b.Topic("jobs").Publish(0, blobPayload(i))
	}
	c := g.Consumer(0)
	first := c.PollBatch(1, 2*n)
	if len(first) != 2*n {
		t.Fatalf("delivered %d, want %d", len(first), 2*n)
	}
	// Nack: everything comes back, same multiset, per-shard order kept.
	if got, _ := c.Nack(1); got != 2*n {
		t.Fatalf("Nack requeued %d, want %d", got, 2*n)
	}
	second := c.PollBatch(1, 2*n)
	if len(second) != 2*n {
		t.Fatalf("redelivered %d, want %d", len(second), 2*n)
	}
	type sk struct {
		topic string
		shard int
	}
	perShard1, perShard2 := map[sk][]uint64{}, map[sk][]uint64{}
	for i := range first {
		k1 := sk{first[i].Topic, first[i].Shard}
		perShard1[k1] = append(perShard1[k1], AsU64(first[i].Payload[:8]))
		k2 := sk{second[i].Topic, second[i].Shard}
		perShard2[k2] = append(perShard2[k2], AsU64(second[i].Payload[:8]))
	}
	for k, v1 := range perShard1 {
		v2 := perShard2[k]
		if len(v1) != len(v2) {
			t.Fatalf("shard %v redelivered %d of %d", k, len(v2), len(v1))
		}
		for i := range v1 {
			if v1[i] != v2[i] {
				t.Fatalf("shard %v redelivery out of order at %d: %d vs %d", k, i, v2[i], v1[i])
			}
		}
	}
	if got, _ := c.Ack(1); got != 2*n {
		t.Fatalf("Ack acknowledged %d, want %d", got, 2*n)
	}
	if got, _ := c.Ack(1); got != 0 {
		t.Fatalf("second Ack acknowledged %d, want 0", got)
	}
	if ms := c.PollBatch(1, 8); len(ms) != 0 {
		t.Fatalf("acked messages reappeared: %d", len(ms))
	}
}

// TestAckFenceAccounting pins the tentpole cost model on one domain:
// a leased poll batch across several shards = 1 fence (the lease
// record's) and zero NTStores; an ack batch = 1 fence; a redundant ack
// = 0; a lease renewal = 1 fence the first time and 0 once the
// deadline is durable; a nack = 1 fence; redelivery and idle polls are
// persist-free.
func TestAckFenceAccounting(t *testing.T) {
	hs, b := newAckedBroker(t, 1, 2, pmem.ModePerf)
	clk := &logicalClock{}
	g, err := b.NewGroupAcked([]string{"events"}, 1, LeaseConfig{TTL: 100, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	c := g.Consumer(0)
	const n = 16 // 4 per shard
	for i := uint64(0); i < n; i++ {
		b.Topic("events").Publish(0, U64(i))
	}

	before := hs.TotalStats()
	ms := c.PollBatch(1, n)
	d := hs.TotalStats().Sub(before)
	if len(ms) != n {
		t.Fatalf("delivered %d, want %d", len(ms), n)
	}
	if d.Fences != 1 {
		t.Fatalf("leased poll across 4 shards = %d fences, want 1", d.Fences)
	}
	if d.NTStores != 0 {
		t.Fatalf("leased poll issued %d NTStores, want 0 (dequeues persist nothing)", d.NTStores)
	}
	if d.Flushes != 4 {
		t.Fatalf("leased poll issued %d flushes, want 4 (one lease line per shard)", d.Flushes)
	}

	before = hs.TotalStats()
	if got, _ := c.Ack(1); got != n {
		t.Fatalf("Ack acknowledged %d, want %d", got, n)
	}
	d = hs.TotalStats().Sub(before)
	if d.Fences != 1 || d.NTStores != 4 {
		t.Fatalf("ack batch = %d fences, %d NTStores; want 1 fence, 4 NTStores (one ack line per shard)",
			d.Fences, d.NTStores)
	}

	before = hs.TotalStats()
	c.Ack(1) // nothing new
	d = hs.TotalStats().Sub(before)
	if d.Fences != 0 || d.NTStores != 0 {
		t.Fatalf("redundant ack = %d fences, %d NTStores; want 0, 0", d.Fences, d.NTStores)
	}

	// Renewal: with an unacked window, moving the deadline costs one
	// fence; repeating it against the durable deadline costs nothing.
	for i := uint64(0); i < 4; i++ {
		b.Topic("events").Publish(0, U64(100+i))
	}
	c.PollBatch(1, 4) // leases with deadline now+100
	clk.Advance(50)
	deadline := clk.Now() + 100
	before = hs.TotalStats()
	c.Renew(1, deadline)
	d = hs.TotalStats().Sub(before)
	if d.Fences != 1 {
		t.Fatalf("first renewal = %d fences, want 1", d.Fences)
	}
	before = hs.TotalStats()
	c.Renew(1, deadline)
	c.Renew(1, deadline-10)
	d = hs.TotalStats().Sub(before)
	if d.Fences != 0 || d.Flushes != 0 {
		t.Fatalf("renewal at an already-durable deadline = %d fences, %d flushes; want 0, 0", d.Fences, d.Flushes)
	}

	before = hs.TotalStats()
	if got, _ := c.Nack(1); got != 4 {
		t.Fatalf("Nack requeued %d, want 4", got)
	}
	d = hs.TotalStats().Sub(before)
	if d.Fences != 1 {
		t.Fatalf("nack = %d fences, want 1", d.Fences)
	}

	// Redelivery of the nacked window is served from the pending queue:
	// no new lease, no persists at all.
	before = hs.TotalStats()
	if ms := c.PollBatch(1, 4); len(ms) != 4 {
		t.Fatal("nacked window not redelivered")
	}
	d = hs.TotalStats().Sub(before)
	if d.Fences != 0 || d.NTStores != 0 || d.Flushes != 0 {
		t.Fatalf("redelivery poll = %d fences, %d NTStores, %d flushes; want 0/0/0", d.Fences, d.NTStores, d.Flushes)
	}
	c.Ack(1)

	// Idle acked polls are persist-free.
	before = hs.TotalStats()
	for i := 0; i < 100; i++ {
		if ms := c.PollBatch(1, 8); len(ms) != 0 {
			t.Fatal("queue should be empty")
		}
	}
	d = hs.TotalStats().Sub(before)
	if d.Fences != 0 || d.NTStores != 0 || d.Flushes != 0 {
		t.Fatalf("100 idle polls = %d fences, %d NTStores, %d flushes; want 0/0/0", d.Fences, d.NTStores, d.Flushes)
	}
}

// TestLeaseTakeover pins Adopt: refusal while the lease is unexpired,
// exactly the unacked suffix redelivered to the adopter, acked
// messages gone for good, shard ownership moved.
func TestLeaseTakeover(t *testing.T) {
	_, b := newAckedBroker(t, 1, 3, pmem.ModePerf)
	clk := &logicalClock{}
	g, err := b.NewGroupAcked([]string{"events"}, 2, LeaseConfig{TTL: 10, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	for i := uint64(0); i < n; i++ {
		b.Topic("events").Publish(0, U64(i))
	}
	victim, survivor := g.Consumer(1), g.Consumer(0)
	// The victim drains its two shards: first batch acked, second left
	// in flight.
	ackedMsgs := victim.PollBatch(2, 4)
	if len(ackedMsgs) != 4 {
		t.Fatalf("victim polled %d, want 4", len(ackedMsgs))
	}
	victim.Ack(2)
	inflight := victim.PollBatch(2, 4)
	if len(inflight) != 4 {
		t.Fatalf("victim polled %d in-flight, want 4", len(inflight))
	}

	if _, err := g.Adopt(2, 1, 0); err == nil {
		t.Fatal("Adopt succeeded while the victim's lease is unexpired")
	}
	clk.Advance(100)
	moved, err := g.Adopt(2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 4 {
		t.Fatalf("Adopt moved %d redeliveries, want 4", moved)
	}
	if len(victim.Assigned()) != 0 || len(survivor.Assigned()) != 4 {
		t.Fatalf("ownership after adopt: victim %d shards, survivor %d; want 0 and 4",
			len(victim.Assigned()), len(survivor.Assigned()))
	}

	want := map[uint64]bool{}
	for _, m := range inflight {
		want[AsU64(m.Payload)] = true
	}
	for _, m := range ackedMsgs {
		want[AsU64(m.Payload)] = false // acked: must never reappear
	}
	got := map[uint64]int{}
	for {
		ms := survivor.PollBatch(1, 8)
		if len(ms) == 0 {
			break
		}
		for _, m := range ms {
			got[AsU64(m.Payload)]++
		}
		survivor.Ack(1)
	}
	for id, redeliver := range want {
		if redeliver && got[id] != 1 {
			t.Fatalf("unacked message %d delivered %d times after takeover, want 1", id, got[id])
		}
		if !redeliver && got[id] != 0 {
			t.Fatalf("acked message %d redelivered after takeover", id)
		}
	}
	if len(got) != n-4 {
		t.Fatalf("survivor saw %d distinct messages, want %d", len(got), n-4)
	}
}

// TestAckedRecoveryExactlyOnce is the deterministic whole-broker leg:
// acked messages never reappear across a crash, delivered-but-unacked
// messages are redelivered exactly once, and the fresh group binding
// surfaces the previous incarnation's lease records.
func TestAckedRecoveryExactlyOnce(t *testing.T) {
	_, b := newAckedBroker(t, 2, 2, pmem.ModeCrash)
	hs := b.HeapSet()
	clk := &logicalClock{}
	g, err := b.NewGroupAcked([]string{"events", "jobs"}, 1, LeaseConfig{TTL: 10, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	for i := uint64(1); i <= n; i++ {
		b.Topic("events").Publish(0, U64(i))
		b.Topic("jobs").Publish(0, blobPayload(n+i)) // disjoint id spaces
	}
	c := g.Consumer(0)
	acked := map[uint64]string{}
	ms := c.PollBatch(1, 50)
	for _, m := range ms {
		acked[AsU64(m.Payload[:8])] = m.Topic
	}
	c.Ack(1)
	inflight := map[uint64]bool{}
	for _, m := range c.PollBatch(1, 30) {
		inflight[AsU64(m.Payload[:8])] = true
	}
	// No ack for the second window: the crash hits with 30 in flight.
	hs.CrashNow()
	hs.FinalizeCrash(rand.New(rand.NewSource(31)))
	hs.Restart()

	r, err := Open(hs, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	clk2 := &logicalClock{}
	g2, err := r.NewGroupAcked([]string{"events", "jobs"}, 1, LeaseConfig{TTL: 10, Now: clk2.Now})
	if err != nil {
		t.Fatal(err)
	}
	// The stale in-flight windows surface as recovered lease records.
	if len(g2.RecoveredLeases()) == 0 {
		t.Fatal("no lease records recovered despite an in-flight window at the crash")
	}
	for _, rl := range g2.RecoveredLeases() {
		if rl.Lease.Active && rl.Lease.Owner != 0 {
			t.Fatalf("recovered lease %v names owner %d, want 0", rl.Shard, rl.Lease.Owner)
		}
	}
	seen := map[uint64]int{}
	c2 := g2.Consumer(0)
	for {
		ms := c2.PollBatch(1, 16)
		if len(ms) == 0 {
			break
		}
		for _, m := range ms {
			id := AsU64(m.Payload[:8])
			if m.Topic == "jobs" && !bytes.Equal(m.Payload, blobPayload(id)) {
				t.Fatalf("message %d corrupted across recovery", id)
			}
			seen[id]++
		}
		c2.Ack(1)
	}
	for id := range acked {
		if seen[id] > 0 {
			t.Fatalf("acked message %d redelivered after the crash", id)
		}
	}
	for id := range inflight {
		if seen[id] != 1 {
			t.Fatalf("in-flight message %d redelivered %d times, want exactly 1", id, seen[id])
		}
	}
	// Everything published is either acked before the crash or drained
	// after it — exactly once, no allowance.
	if total := len(acked) + len(seen); total != 2*n {
		t.Fatalf("processed %d distinct messages, want %d", total, 2*n)
	}
}
