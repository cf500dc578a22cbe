package broker

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/pmem"
)

// TestOpenCreateRecoverRoundTrip is the live-administration round
// trip: Open brings up an empty broker, topics appear at runtime via
// CreateTopic, and after a power failure the same Open brings
// the same broker back — topics, placements and payloads intact, no
// matter that they were created across separate administrative calls.
func TestOpenCreateRecoverRoundTrip(t *testing.T) {
	hs := pmem.NewSet(2, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4})
	if _, err := Open(hs, Options{}); err == nil {
		t.Fatal("Open creating a broker without a thread bound should fail")
	}
	b, err := Open(hs, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Topics()) != 0 || b.ShardTotal() != 0 {
		t.Fatalf("fresh broker has %d topics, %d shards; want 0, 0", len(b.Topics()), b.ShardTotal())
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "events", Shards: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "events", Shards: 1}); err == nil {
		t.Fatal("duplicate CreateTopic should fail")
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "jobs", Shards: 2, MaxPayload: 64}); err != nil {
		t.Fatal(err)
	}
	// 358 blob lines: a seal's line field holds 255.
	if _, err := b.CreateTopic(0, TopicConfig{Name: "huge", Shards: 1, MaxPayload: 20000}); !errors.Is(err, ErrMaxPayload) {
		t.Fatalf("CreateTopic with MaxPayload 20000: want ErrMaxPayload, got %v", err)
	}
	for i := uint64(0); i < 8; i++ {
		b.Topic("events").Publish(0, U64(i))
		b.Topic("jobs").Publish(0, blobPayload(100+i))
	}
	hs.CrashNow()
	hs.FinalizeCrash(rand.New(rand.NewSource(81)))
	hs.Restart()

	if _, err := Open(hs, Options{Threads: 3}); err == nil {
		t.Fatal("Open with a mismatched thread bound should fail")
	}
	r, err := Open(hs, Options{}) // adopt the recorded bound
	if err != nil {
		t.Fatal(err)
	}
	if r.Threads() != 2 {
		t.Fatalf("adopted thread bound = %d, want 2", r.Threads())
	}
	if got := len(r.Topics()); got != 2 {
		t.Fatalf("recovered %d topics, want 2", got)
	}
	for s := 0; s < 4; s++ {
		if got, want := r.Topic("events").locs[s].heap, b.Topic("events").locs[s].heap; got != want {
			t.Fatalf("events shard %d recovered on heap %d, want %d", s, got, want)
		}
	}
	gotEvents, gotJobs := map[uint64]bool{}, 0
	for _, topic := range r.Topics() {
		for s := 0; s < topic.Shards(); s++ {
			for {
				p, ok := topic.DequeueShard(0, s)
				if !ok {
					break
				}
				id := AsU64(p[:8])
				if topic.Name() == "events" {
					gotEvents[id] = true
				} else {
					if !bytes.Equal(p, blobPayload(id)) {
						t.Fatalf("job %d corrupted across recovery", id)
					}
					gotJobs++
				}
			}
		}
	}
	if len(gotEvents) != 8 || gotJobs != 8 {
		t.Fatalf("recovered %d events, %d jobs; want 8 each", len(gotEvents), gotJobs)
	}
	// The recovered broker stays administrable: create, publish, read.
	if _, err := r.CreateTopic(0, TopicConfig{Name: "late", Shards: 2}); err != nil {
		t.Fatal(err)
	}
	r.Topic("late").Publish(0, U64(7))
	if p, ok := r.Topic("late").DequeueShard(0, 0); !ok || AsU64(p) != 7 {
		t.Fatalf("post-recovery topic delivery = %v,%v", p, ok)
	}
}

// TestCreateTopicCrashBeforeAnchor pins the creation protocol's crash
// atomicity, deterministically: a crash in the window between the
// record's append fence and its anchor stamp recovers as "the topic
// never existed" — and the torn record at the log's tail is truncated
// by the next creation, which appends over it and commits.
func TestCreateTopicCrashBeforeAnchor(t *testing.T) {
	hs := pmem.NewSet(2, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4})
	b, err := Open(hs, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "base", Shards: 2}); err != nil {
		t.Fatal(err)
	}
	b.Topic("base").Publish(0, U64(11))

	testHookAfterAppend = func() { hs.CrashNow() }
	crashed := pmem.Protect(func() { b.CreateTopic(0, TopicConfig{Name: "late", Shards: 2}) })
	testHookAfterAppend = nil
	if !crashed {
		t.Fatal("CreateTopic survived a crash armed between append and anchor")
	}
	hs.FinalizeCrash(rand.New(rand.NewSource(82)))
	hs.Restart()

	r, err := Open(hs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Topic("late") != nil {
		t.Fatal("a create that crashed before its anchor stamp recovered as existing")
	}
	used, _ := r.SlotFootprint()
	if p, ok := r.Topic("base").DequeueShard(0, 0); !ok || AsU64(p) != 11 {
		t.Fatalf("pre-existing topic lost its message: %v,%v", p, ok)
	}
	// Re-create over the torn tail, publish, power-fail, recover: the
	// debris never resurfaces and the committed topic round-trips.
	if _, err := r.CreateTopic(0, TopicConfig{Name: "late", Shards: 2}); err != nil {
		t.Fatal(err)
	}
	// The crashed create's marks were fenced, so its windows lie below
	// them owned by no record: the re-create reuses them.
	if now, _ := r.SlotFootprint(); now != used {
		t.Fatalf("re-create after the crashed create moved the slot footprint %d -> %d; the stranded windows were not reused", used, now)
	}
	r.Topic("late").Publish(0, U64(21))
	r.Topic("late").Publish(0, U64(22))
	hs.CrashNow()
	hs.FinalizeCrash(rand.New(rand.NewSource(83)))
	hs.Restart()
	r2, err := Open(hs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64]bool{}
	for s := 0; s < r2.Topic("late").Shards(); s++ {
		for {
			p, ok := r2.Topic("late").DequeueShard(0, s)
			if !ok {
				break
			}
			if got[AsU64(p)] {
				t.Fatalf("message %d recovered twice", AsU64(p))
			}
			got[AsU64(p)] = true
		}
	}
	if !got[21] || !got[22] || len(got) != 2 {
		t.Fatalf("recovered %v, want {21, 22}", got)
	}
}

// TestCreateAckGroupDynamic: lease regions created at runtime bind
// groups over topics created before and after them, enforcing the
// recorded capacity — a region without headroom refuses topics beyond
// it instead of mis-indexing lease lines.
func TestCreateAckGroupDynamic(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 3})
	b, err := Open(pmem.NewSetOf(h), Options{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "a", Shards: 2, Acked: true}); err != nil {
		t.Fatal(err)
	}
	// An exactly-sized region and one with headroom.
	tight, err := b.CreateAckGroup(0, AckGroupConfig{Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	roomy, err := b.CreateAckGroup(0, AckGroupConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateAckGroup(0, AckGroupConfig{Capacity: 1}); err == nil {
		t.Fatal("capacity below the current shard total should fail")
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "late", Shards: 2, Acked: true}); err != nil {
		t.Fatal(err)
	}
	clk := &logicalClock{}
	// The tight region cannot cover the late topic's ordinals [2, 4).
	if _, err := b.NewGroupAcked([]string{"a", "late"}, 1, LeaseConfig{Region: tight, TTL: 10, Now: clk.Now}); err == nil {
		t.Fatal("binding past the region capacity should fail")
	}
	g, err := b.NewGroupAcked([]string{"a", "late"}, 1, LeaseConfig{Region: roomy, TTL: 10, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 8; i++ {
		b.Topic("a").Publish(0, U64(i))
		b.Topic("late").Publish(0, U64(100+i))
	}
	got := map[uint64]int{}
	c := g.Consumer(0)
	for {
		ms := c.PollBatch(1, 8)
		if len(ms) == 0 {
			break
		}
		for _, m := range ms {
			got[AsU64(m.Payload)]++
		}
		c.Ack(1)
	}
	if len(got) != 16 {
		t.Fatalf("drained %d distinct messages across both topics, want 16", len(got))
	}
	for id, n := range got {
		if n != 1 {
			t.Fatalf("message %d delivered %d times", id, n)
		}
	}
}

// TestSubscribeLiveTopics: a group reaches topics created after it via
// Subscribe — plain groups as they are, acked groups with lease
// frontiers seeded and capacity enforced; duplicate or unknown
// subscriptions are errors.
func TestSubscribeLiveTopics(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 3})
	b, err := Open(pmem.NewSetOf(h), Options{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "first", Shards: 2}); err != nil {
		t.Fatal(err)
	}
	g, err := b.NewGroup([]string{"first"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Subscribe(0, "first"); err == nil {
		t.Fatal("re-subscribing an owned topic should fail")
	}
	if err := g.Subscribe(0, "nope"); err == nil {
		t.Fatal("subscribing an unknown topic should fail")
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "second", Shards: 3}); err != nil {
		t.Fatal(err)
	}
	if err := g.Subscribe(0, "second"); err != nil {
		t.Fatal(err)
	}
	owned := map[ShardRef]bool{}
	total := 0
	for i := 0; i < g.Size(); i++ {
		for _, r := range g.Consumer(i).Assigned() {
			if owned[r] {
				t.Fatalf("shard %v assigned twice after Subscribe", r)
			}
			owned[r] = true
			total++
		}
	}
	if total != 5 {
		t.Fatalf("group owns %d shards after Subscribe, want 5", total)
	}
	// The dealt shards balance: 5 shards over 2 members = 3 and 2.
	if d := len(g.Consumer(0).Assigned()) - len(g.Consumer(1).Assigned()); d < -1 || d > 1 {
		t.Fatalf("Subscribe dealt unevenly: %d vs %d shards",
			len(g.Consumer(0).Assigned()), len(g.Consumer(1).Assigned()))
	}
	for i := uint64(0); i < 12; i++ {
		b.Topic("second").Publish(0, U64(i))
	}
	got := map[uint64]bool{}
	for i := 0; i < g.Size(); i++ {
		for {
			m, ok := g.Consumer(i).Poll(i + 1)
			if !ok {
				break
			}
			if m.Topic != "second" {
				t.Fatalf("unexpected topic %q", m.Topic)
			}
			if got[AsU64(m.Payload)] {
				t.Fatalf("message %d delivered twice", AsU64(m.Payload))
			}
			got[AsU64(m.Payload)] = true
		}
	}
	if len(got) != 12 {
		t.Fatalf("delivered %d of 12 post-subscribe messages", len(got))
	}
}

// TestCatalogLogFull: a log sized to exactly one topic record takes
// the first create and refuses the second with ErrCatalogFull — no
// panic, no partial state — compacting into a larger log admits both
// refused verbs, and the broker (and its recovery) still works.
func TestCatalogLogFull(t *testing.T) {
	hs := pmem.NewSetOf(pmem.New(pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 2}))
	// A 1-shard topic record spans 3 lines: header, name, placements.
	b, err := Open(hs, Options{Threads: 2, CatalogLines: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "only", Shards: 1}); err != nil {
		t.Fatal(err)
	}
	used0, _ := b.SlotFootprint()
	if _, err := b.CreateTopic(0, TopicConfig{Name: "overflow", Shards: 1}); !errors.Is(err, ErrCatalogFull) {
		t.Fatalf("CreateTopic on a full catalog log: %v, want ErrCatalogFull", err)
	}
	if _, err := b.CreateAckGroup(0, AckGroupConfig{}); !errors.Is(err, ErrCatalogFull) {
		t.Fatalf("CreateAckGroup on a full catalog log: %v, want ErrCatalogFull", err)
	}
	if used, free := b.SlotFootprint(); used != used0 || free != 0 {
		t.Fatalf("refused creates left (used %d, free %d), want (used %d, free 0)", used, free, used0)
	}
	// The remedy the error names: compact into a larger log.
	if err := b.CompactCatalog(0, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "overflow", Shards: 1}); err != nil {
		t.Fatalf("CreateTopic after CompactCatalog(0, 8): %v", err)
	}
	if _, err := b.CreateAckGroup(0, AckGroupConfig{}); err != nil {
		t.Fatalf("CreateAckGroup after CompactCatalog(0, 8): %v", err)
	}
	b.Topic("only").Publish(0, U64(5))
	hs.Heap(0).CrashNow()
	hs.FinalizeCrash(rand.New(rand.NewSource(84)))
	hs.Restart()
	r, err := Open(hs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Topics()) != 2 {
		t.Fatalf("recovered %d topics, want 2", len(r.Topics()))
	}
	if p, ok := r.Topic("only").DequeueShard(0, 0); !ok || AsU64(p) != 5 {
		t.Fatalf("recovered message = %v,%v", p, ok)
	}
}

// TestTopicsSnapshotCopy: Topics returns a copy the caller may mangle
// without aliasing broker state, and TopicNames reports sorted names.
func TestTopicsSnapshotCopy(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 2})
	b, err := newBroker(pmem.NewSetOf(h), Options{Threads: 1}, []TopicConfig{
		{Name: "zebra", Shards: 1}, {Name: "apple", Shards: 1},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := b.Topics()
	ts[0] = nil
	ts[1] = nil
	if got := b.Topics(); got[0] == nil || got[0].Name() != "zebra" {
		t.Fatal("mutating the Topics result aliased broker state")
	}
	names := b.TopicNames()
	if len(names) != 2 || names[0] != "apple" || names[1] != "zebra" {
		t.Fatalf("TopicNames = %v, want sorted [apple zebra]", names)
	}
}
