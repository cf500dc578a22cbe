package broker

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/pmem"
)

// obsWorkload drives a fixed deterministic mix — publishes, batch
// publishes, plain polls, acked polls with acks, a runtime topic
// creation — so persist counts can be compared across runs that differ
// only in observation.
func obsWorkload(t *testing.T, b *Broker) {
	t.Helper()
	events, jobs := b.Topic("events"), b.Topic("jobs")
	for i := uint64(0); i < 100; i++ {
		events.Publish(0, U64(i))
		jobs.PublishKey(0, U64(i%5), blobPayload(i))
	}
	var batch [][]byte
	for i := uint64(100); i < 140; i++ {
		batch = append(batch, U64(i))
	}
	events.PublishBatch(0, batch)
	if _, err := b.CreateTopic(0, TopicConfig{Name: "acked", Shards: 2, Acked: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateAckGroup(0, AckGroupConfig{}); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 60; i++ {
		b.Topic("acked").Publish(0, U64(i))
	}

	g, err := b.NewGroup([]string{"events", "jobs"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Consumer(0)
	for {
		if ms := c.PollBatch(0, 16); len(ms) == 0 {
			break
		}
	}
	if _, ok := c.Poll(0); ok {
		t.Fatal("plain drain incomplete")
	}

	ag, err := b.NewGroupAcked([]string{"acked"}, 1, LeaseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ac := ag.Consumer(0)
	for {
		ms := ac.PollBatch(0, 8)
		if len(ms) == 0 {
			break
		}
		ac.Ack(0)
	}
}

// TestObserverGauges checks the counters and lag the workload should
// produce: everything published is delivered and (on the acked topic)
// acked, frontiers catch published heads, and the snapshot agrees.
func TestObserverGauges(t *testing.T) {
	o := obs.New(obs.Config{Threads: 2})
	hs := pmem.NewSet(2, pmem.Config{Bytes: 64 << 20, MaxThreads: 2})
	b, err := Open(hs, Options{Threads: 2, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range twoTopics() {
		if _, err := b.CreateTopic(0, tc); err != nil {
			t.Fatal(err)
		}
	}
	obsWorkload(t, b)

	before := hs.TotalStats()
	s := o.Snapshot()
	if after := hs.TotalStats(); after != before {
		t.Fatalf("taking a snapshot touched simulated memory: %+v -> %+v", before, after)
	}
	byName := map[string]obs.TopicSnapshot{}
	for _, ts := range s.Topics {
		byName[ts.Topic] = ts
	}
	// Footprint: every shard opened its first node area, and a drained
	// topic holds on to a slot or two per shard (the dummy, the deferred
	// retiree) — the rest of its areas is free. jobs' shards have a blob
	// pool, of smaller areas, beside the node pool.
	for _, name := range []string{"events", "acked"} {
		got, shards := byName[name], b.Topic(name).Shards()
		held := int(got.NVRAMAreas*4096 - got.NVRAMFreeSlots)
		if int(got.NVRAMAreas) != shards || held < shards || held > 2*shards {
			t.Fatalf("%s footprint: %d areas, %d free slots (%d held) over %d shards", name, got.NVRAMAreas, got.NVRAMFreeSlots, held, shards)
		}
	}
	if got, shards := byName["jobs"], b.Topic("jobs").Shards(); int(got.NVRAMAreas) != 2*shards || got.NVRAMFreeSlots == 0 {
		t.Fatalf("jobs footprint: %d areas, %d free slots over %d shards with two pools each", got.NVRAMAreas, got.NVRAMFreeSlots, shards)
	}
	if got := byName["events"]; got.Published != 140 || got.Delivered != 140 || got.Depth != 0 {
		t.Fatalf("events gauges: %+v", got)
	}
	if got := byName["jobs"]; got.Published != 100 || got.Delivered != 100 {
		t.Fatalf("jobs gauges: %+v", got)
	}
	if got := byName["acked"]; got.Published != 60 || got.Delivered != 60 || got.Acked != 60 || got.Redelivered != 0 {
		t.Fatalf("acked gauges: %+v", got)
	}
	for _, gs := range s.Groups {
		if gs.MaxLag != 0 {
			t.Fatalf("drained group %s reports lag: %+v", gs.Group, gs)
		}
	}
	for _, opName := range []string{"publish", "poll", "ack", "admin"} {
		op, ok := s.Op(opName)
		if !ok || op.Count == 0 {
			t.Fatalf("no %s latency samples recorded", opName)
		}
	}
	if len(s.Heaps) != 2 || s.Heaps[0].Fences == 0 {
		t.Fatalf("heap persist counters missing: %+v", s.Heaps)
	}

	// Lag rises with a fresh backlog and MaxLag sees the biggest one.
	b.Topic("events").Publish(0, U64(999))
	var lag uint64
	for _, gs := range o.Snapshot().Groups {
		if gs.MaxLag > lag {
			lag = gs.MaxLag
		}
	}
	if lag != 1 {
		t.Fatalf("one-message backlog reports max lag %d, want 1", lag)
	}
}

// TestObserverNackRedelivery checks redelivery accounting: nacked
// messages count as delivered+redelivered on re-serve and the
// frontier does not double-advance, so lag still drains to zero.
func TestObserverNackRedelivery(t *testing.T) {
	o := obs.New(obs.Config{Threads: 1})
	hs := pmem.NewSet(1, pmem.Config{Bytes: 32 << 20, MaxThreads: 1})
	b, err := Open(hs, Options{Threads: 1, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "t", Shards: 1, Acked: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateAckGroup(0, AckGroupConfig{}); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		b.Topic("t").Publish(0, U64(i))
	}
	g, err := b.NewGroupAcked([]string{"t"}, 1, LeaseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c := g.Consumer(0)
	if ms := c.PollBatch(0, 10); len(ms) != 10 {
		t.Fatalf("delivered %d, want 10", len(ms))
	}
	if n, _ := c.Nack(0); n != 10 {
		t.Fatalf("nacked %d, want 10", n)
	}
	if ms := c.PollBatch(0, 10); len(ms) != 10 {
		t.Fatal("redelivery incomplete")
	}
	c.Ack(0)

	ts := b.Topic("t").Stats()
	pub, del, ack, redel := ts.Counts()
	if pub != 10 || del != 20 || ack != 10 || redel != 10 {
		t.Fatalf("counters pub=%d del=%d ack=%d redel=%d, want 10,20,10,10", pub, del, ack, redel)
	}
	if d := ts.Depth(); d != 0 {
		t.Fatalf("depth = %d, want 0", d)
	}
	if lag := g.Stats().MaxLag(); lag != 0 {
		t.Fatalf("lag = %d, want 0", lag)
	}
}

// TestRefusedGroupLeavesNoGauges: a group constructor that refuses —
// region already serving a group, unknown or non-Acked topic, capacity
// exceeded — registers nothing with the observer. A phantom group's
// cursors never advance, so its MaxLag would grow with every publish
// for a group that does not exist.
func TestRefusedGroupLeavesNoGauges(t *testing.T) {
	o := obs.New(obs.Config{Threads: 2})
	hs := pmem.NewSet(1, pmem.Config{Bytes: 64 << 20, MaxThreads: 2})
	b, err := Open(hs, Options{Threads: 2, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "a", Shards: 2, Acked: true}); err != nil {
		t.Fatal(err)
	}
	tight, err := b.CreateAckGroup(0, AckGroupConfig{Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "late", Shards: 1, Acked: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "plain", Shards: 1}); err != nil {
		t.Fatal(err)
	}
	roomy, err := b.CreateAckGroup(0, AckGroupConfig{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.NewGroupAcked([]string{"a"}, 1, LeaseConfig{Region: tight})
	if err != nil {
		t.Fatal(err)
	}
	refused := map[string]func() error{
		"region already bound": func() error { _, err := b.NewGroupAcked([]string{"a"}, 1, LeaseConfig{Region: tight}); return err },
		"unknown topic":        func() error { _, err := b.NewGroupAcked([]string{"nope"}, 1, LeaseConfig{Region: roomy}); return err },
		"topic not Acked":      func() error { _, err := b.NewGroupAcked([]string{"plain"}, 1, LeaseConfig{Region: roomy}); return err },
		"no members":           func() error { _, err := b.NewGroup([]string{"plain"}, 0); return err },
		"plain, unknown topic": func() error { _, err := b.NewGroup([]string{"plain", "nope"}, 1); return err },
	}
	for what, construct := range refused {
		if construct() == nil {
			t.Fatalf("%s: the constructor succeeded", what)
		}
	}
	for i := uint64(0); i < 8; i++ {
		b.Topic("a").Publish(0, U64(i))
		b.Topic("late").Publish(0, U64(i))
	}
	for len(g.Consumer(0).PollBatch(1, 8)) > 0 {
		g.Consumer(0).Ack(1)
	}
	s := o.Snapshot()
	if len(s.Groups) != 1 {
		t.Fatalf("snapshot lists %d groups after 1 successful and %d refused constructions: %+v", len(s.Groups), len(refused), s.Groups)
	}
	if s.Groups[0].MaxLag != 0 || g.Stats().MaxLag() != 0 {
		t.Fatalf("the drained group reports lag: %+v", s.Groups[0])
	}
	// A refusal releases the region it had claimed.
	if _, err := b.NewGroupAcked([]string{"late"}, 1, LeaseConfig{Region: roomy}); err != nil {
		t.Fatalf("region %d stayed claimed by a refused group: %v", roomy, err)
	}
}

// TestObserverSurvivesRecovery: an observer handed to the recovered
// broker keeps counting into the same topic series.
func TestObserverSurvivesRecovery(t *testing.T) {
	o := obs.New(obs.Config{Threads: 2})
	hs := pmem.NewSet(2, pmem.Config{Bytes: 4 << 20, MaxThreads: 2, Mode: pmem.ModeCrash})
	b, err := Open(hs, Options{Threads: 2, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "t", Shards: 2}); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 20; i++ {
		b.Topic("t").Publish(0, U64(i))
	}
	hs.CrashNow()
	hs.FinalizeCrash(nil)
	hs.Restart()
	b2, err := Open(hs, Options{Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5; i++ {
		b2.Topic("t").Publish(0, U64(i))
	}
	s := o.Snapshot()
	if len(s.Topics) != 1 {
		t.Fatalf("recovery duplicated the topic series: %+v", s.Topics)
	}
	if s.Topics[0].Published != 25 {
		t.Fatalf("published = %d, want 25 across the crash", s.Topics[0].Published)
	}
	// The footprint gauges follow the recovered broker's pools: one area
	// per shard, all of it free but the 25 messages and each shard's
	// dummy.
	if held := s.Topics[0].NVRAMAreas*4096 - s.Topics[0].NVRAMFreeSlots; s.Topics[0].NVRAMAreas != 2 || held != 25+2 {
		t.Fatalf("footprint after recovery: %d areas, %d free slots (%d held)", s.Topics[0].NVRAMAreas, s.Topics[0].NVRAMFreeSlots, held)
	}
}

// TestOpenRefusedObserverLeavesSetBlank: an observer that admits fewer
// thread ids than the broker is refused before Open's first persist, so
// the failed call leaves no durable broker behind — every member's
// anchor slot is still zero and the corrected retry creates the broker
// with the bound the caller now asks for. The same refusal on a used
// set happens before shard recovery and leaves the broker recoverable.
func TestOpenRefusedObserverLeavesSetBlank(t *testing.T) {
	hs := pmem.NewSet(2, pmem.Config{Bytes: 4 << 20, MaxThreads: 8, Mode: pmem.ModeCrash})
	small := obs.New(obs.Config{Threads: 2})
	if _, err := Open(hs, Options{Threads: 8, Observer: small}); err == nil {
		t.Fatal("Open with an observer admitting 2 of 8 thread ids should fail")
	}
	for i := 0; i < hs.Len(); i++ {
		if a := hs.Heap(i).Load(0, hs.Heap(i).RootAddr(slotAnchor)); a != 0 {
			t.Fatalf("the refused Open left heap %d's anchor slot at %#x", i, a)
		}
	}
	b, err := Open(hs, Options{Threads: 4})
	if err != nil {
		t.Fatalf("retry after the refused Open: %v", err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "t", Shards: 2}); err != nil {
		t.Fatal(err)
	}
	b.Topic("t").Publish(0, U64(7))
	hs.CrashNow()
	hs.FinalizeCrash(nil)
	hs.Restart()

	var before pmem.Stats
	for i := 0; i < hs.Len(); i++ {
		before.Add(hs.Heap(i).TotalStats())
	}
	if _, err := Open(hs, Options{Observer: small}); err == nil {
		t.Fatal("recovery with an observer admitting 2 of 4 thread ids should fail")
	}
	var after pmem.Stats
	for i := 0; i < hs.Len(); i++ {
		after.Add(hs.Heap(i).TotalStats())
	}
	if d := after.Sub(before); d.Stores+d.NTStores+d.CASes+d.DCASes != 0 {
		t.Fatalf("the refused recovery wrote to the set: %+v", d)
	}
	r, err := Open(hs, Options{Observer: obs.New(obs.Config{Threads: 4})})
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := r.Topic("t").DequeueShard(0, 0); !ok || AsU64(p) != 7 {
		t.Fatalf("recovered message = %v,%v", p, ok)
	}
}

// TestSubscribeWhilePolling exercises the one-lock rule with the gauges
// watching, on both group kinds: the group is subscribed to a new topic
// while a member is actively polling (Poll and PollBatch in turn, and
// acking on an acked group) on its own tid, and the lag read through the
// new gauges must stay sane (bounded by what was actually published,
// draining to zero once consumption catches up).
func TestSubscribeWhilePolling(t *testing.T) {
	for _, acked := range []bool{false, true} {
		name := "plain"
		if acked {
			name = "acked"
		}
		t.Run(name, func(t *testing.T) { testSubscribeWhilePolling(t, acked) })
	}
}

func testSubscribeWhilePolling(t *testing.T, acked bool) {
	o := obs.New(obs.Config{Threads: 3})
	hs := pmem.NewSet(2, pmem.Config{Bytes: 64 << 20, MaxThreads: 3})
	b, err := Open(hs, Options{Threads: 3, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if _, err := b.CreateTopic(0, TopicConfig{Name: name, Shards: 2, Acked: acked}); err != nil {
			t.Fatal(err)
		}
	}
	const perTopic = 300
	for i := uint64(0); i < perTopic; i++ {
		b.Topic("a").Publish(0, U64(i))
		b.Topic("b").Publish(0, U64(i))
	}
	var g *Group
	if acked {
		if _, err = b.CreateAckGroup(0, AckGroupConfig{}); err == nil {
			g, err = b.NewGroupAcked([]string{"a"}, 1, LeaseConfig{})
		}
	} else {
		g, err = b.NewGroup([]string{"a"}, 1)
	}
	if err != nil {
		t.Fatal(err)
	}
	c := g.Consumer(0)

	var wg sync.WaitGroup
	var delivered int
	wg.Add(1)
	var subscribed atomic.Bool
	go func() { // member polls (and acks) on tid 1 throughout
		defer wg.Done()
		// Idle polls count toward giving up only once Subscribe is back:
		// a hot poll loop can keep it off the member's lock for the whole
		// drain of "a" (a mutex hands off to a starved waiter only after
		// a millisecond), and quitting then would test nothing.
		for i, idle := 0, 0; idle < 100; i++ {
			n := 0
			if i%2 == 0 {
				if _, ok := c.Poll(1); ok {
					n = 1
				}
			} else {
				n = len(c.PollBatch(1, 7))
			}
			delivered += n
			if n > 0 {
				idle = 0
			} else if subscribed.Load() {
				idle++
			}
			if acked {
				c.Ack(1)
			}
		}
	}()
	err = g.Subscribe(2, "b") // concurrent, own tid
	subscribed.Store(true)
	if err != nil {
		t.Fatal(err)
	}
	// Lag read mid-flight must never exceed what exists to consume.
	for i := 0; i < 50; i++ {
		if lag := g.Stats().MaxLag(); lag > perTopic {
			t.Errorf("lag %d exceeds per-topic backlog %d", lag, perTopic)
			break
		}
	}
	wg.Wait()

	if delivered != 2*perTopic {
		t.Fatalf("delivered %d, want %d", delivered, 2*perTopic)
	}
	if lag := g.Stats().MaxLag(); lag != 0 {
		t.Fatalf("drained lag = %d, want 0", lag)
	}
	s := o.Snapshot()
	for _, ts := range s.Topics {
		done := ts.Delivered
		if acked {
			done = ts.Acked
		}
		if done != perTopic || ts.Depth != 0 {
			t.Fatalf("topic %s after drain: %+v", ts.Topic, ts)
		}
	}
}

// benchBroker builds a 1-heap, 2-topic broker for the publish/poll
// benchmarks, returning the publish topic and a plain consumer.
func benchBroker(b *testing.B, o *obs.Observer, lat pmem.LatencyModel) (*Topic, *Consumer) {
	b.Helper()
	hs := pmem.NewSet(1, pmem.Config{Bytes: 256 << 20, MaxThreads: 2, Latency: lat})
	br, err := Open(hs, Options{Threads: 2, Observer: o})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := br.CreateTopic(0, TopicConfig{Name: "t", Shards: 4}); err != nil {
		b.Fatal(err)
	}
	g, err := br.NewGroup([]string{"t"}, 1)
	if err != nil {
		b.Fatal(err)
	}
	return br.Topic("t"), g.Consumer(0)
}

// BenchmarkPublishPollDisabled vs BenchmarkPublishPollEnabled measure
// the instrumentation cost: Disabled pins the one-branch budget (no
// measurable regression vs the pre-observability baseline), Enabled
// the full record-path cost.
func BenchmarkPublishPollDisabled(b *testing.B) { benchPublishPoll(b, nil) }

func BenchmarkPublishPollEnabled(b *testing.B) {
	benchPublishPoll(b, obs.New(obs.Config{Threads: 2}))
}

func benchPublishPoll(b *testing.B, o *obs.Observer) {
	topic, c := benchBroker(b, o, pmem.ZeroLatency())
	p := U64(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topic.Publish(0, p)
		if i%16 == 15 {
			c.PollBatch(1, 16)
		}
	}
}

// BenchmarkPublishPollSingle is one Publish and one Poll under the
// default prices: the fifo-single shape, two one-line fence windows a
// message, and the profile target for what the per-message path pays
// beside its persists.
func BenchmarkPublishPollSingle(b *testing.B) {
	topic, c := benchBroker(b, nil, pmem.DefaultLatency())
	p := U64(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topic.Publish(0, p)
		if _, ok := c.Poll(1); !ok {
			b.Fatal("Poll found nothing behind a Publish")
		}
	}
}

// BenchmarkPublishPollBatch8 is one PublishBatch of eight 8-byte
// messages and one PollBatch of eight under the default prices: the
// fifo-batch8 shape, one fence window a side for eight messages, and
// the profile target for what a batch pays beside its persists.
func BenchmarkPublishPollBatch8(b *testing.B) {
	topic, c := benchBroker(b, nil, pmem.DefaultLatency())
	batch := make([][]byte, 8)
	for i := range batch {
		batch[i] = U64(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := topic.PublishBatch(0, batch); err != nil {
			b.Fatal(err)
		}
		if ms := c.PollBatch(1, len(batch)); len(ms) != len(batch) {
			b.Fatalf("PollBatch found %d of the %d messages behind a PublishBatch", len(ms), len(batch))
		}
	}
}

// TestPublishPathAllocFree pins that observation adds no allocations
// to the fixed-payload publish hot path.
func TestPublishPathAllocFree(t *testing.T) {
	topicOf := func(o *obs.Observer) *Topic {
		hs := pmem.NewSet(1, pmem.Config{Bytes: 64 << 20, MaxThreads: 1})
		b, err := Open(hs, Options{Threads: 1, Observer: o})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.CreateTopic(0, TopicConfig{Name: "t", Shards: 2}); err != nil {
			t.Fatal(err)
		}
		return b.Topic("t")
	}
	p := U64(1)
	disabled := topicOf(nil)
	observed := topicOf(obs.New(obs.Config{Threads: 1, TraceEvents: 64}))
	base := testing.AllocsPerRun(300, func() { disabled.Publish(0, p) })
	withObs := testing.AllocsPerRun(300, func() { observed.Publish(0, p) })
	if withObs > base {
		t.Fatalf("observer adds allocations to Publish: %.1f -> %.1f per op", base, withObs)
	}
}
