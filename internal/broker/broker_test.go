package broker

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pmem"
)

// twoTopics is the reference deployment used across the tests:
// 2 topics × 4 shards, one fixed-width and one variable-payload.
func twoTopics() []TopicConfig {
	return []TopicConfig{
		{Name: "events", Shards: 4},                // fixed 8-byte payloads
		{Name: "jobs", Shards: 4, MaxPayload: 100}, // variable payloads
	}
}

// newBroker is the tests' fixture for a populated broker: Open on the
// blank set, one CreateTopic per topic, then ackGroups lease regions
// each sized exactly to the shard total.
func newBroker(hs *pmem.HeapSet, opts Options, topics []TopicConfig, ackGroups int) (*Broker, error) {
	b, err := Open(hs, opts)
	if err != nil {
		return nil, err
	}
	for _, tc := range topics {
		if _, err := b.CreateTopic(0, tc); err != nil {
			return nil, err
		}
	}
	for g := 0; g < ackGroups; g++ {
		if _, err := b.CreateAckGroup(0, AckGroupConfig{Capacity: b.ShardTotal()}); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// blobPayload embeds id in a deterministic variable-length payload so
// the audit can both identify and integrity-check delivered bytes.
func blobPayload(id uint64) []byte {
	n := 9 + int(id%80)
	p := make([]byte, n)
	copy(p, U64(id))
	for i := 8; i < n; i++ {
		p[i] = byte(id>>(8*uint(i%8)) ^ uint64(i))
	}
	return p
}

func TestPublishConsumeMultiTopic(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 4})
	b, err := newBroker(pmem.NewSetOf(h), Options{Threads: 3}, twoTopics(), 0)
	if err != nil {
		t.Fatal(err)
	}
	events, jobs := b.Topic("events"), b.Topic("jobs")
	if events == nil || jobs == nil || b.Topic("nope") != nil {
		t.Fatal("topic lookup broken")
	}
	const n = 400
	for i := uint64(0); i < n; i++ {
		events.Publish(0, U64(i))
		jobs.PublishKey(1, U64(i%7), blobPayload(i))
	}
	g, err := b.NewGroup([]string{"events", "jobs"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The two members partition the 8 shards without overlap.
	owned := map[ShardRef]bool{}
	for i := 0; i < g.Size(); i++ {
		for _, r := range g.Consumer(i).Assigned() {
			if owned[r] {
				t.Fatalf("shard %v assigned twice", r)
			}
			owned[r] = true
		}
	}
	if len(owned) != 8 {
		t.Fatalf("assigned %d shards, want 8", len(owned))
	}
	gotEvents := map[uint64]bool{}
	lastByKeyShard := map[string]uint64{}
	total := 0
	for i := 0; i < g.Size(); i++ {
		c := g.Consumer(i)
		for {
			m, ok := c.Poll(i + 1)
			if !ok {
				break
			}
			total++
			id := AsU64(m.Payload[:8])
			switch m.Topic {
			case "events":
				if gotEvents[id] {
					t.Fatalf("event %d delivered twice", id)
				}
				gotEvents[id] = true
			case "jobs":
				if !bytes.Equal(m.Payload, blobPayload(id)) {
					t.Fatalf("job %d payload corrupted", id)
				}
				// PublishKey ordering: per key, ids ascend.
				k := fmt.Sprintf("%d/%d", id%7, m.Shard)
				if last, seen := lastByKeyShard[k]; seen && id <= last {
					t.Fatalf("key %d out of order: %d after %d", id%7, id, last)
				}
				lastByKeyShard[k] = id
			}
		}
	}
	if total != 2*n || len(gotEvents) != n {
		t.Fatalf("delivered %d messages (%d events), want %d (%d)", total, len(gotEvents), 2*n, n)
	}
}

// TestPollFairnessAfterIdle pins the round-robin cursor across idle
// periods: an all-empty scan must leave the cursor where it was, not
// reset it to shard 0 (which would permanently bias delivery toward
// low-numbered shards after any idle period).
func TestPollFairnessAfterIdle(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 2})
	b, err := newBroker(pmem.NewSetOf(h), Options{Threads: 1}, []TopicConfig{{Name: "events", Shards: 3}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.NewGroup([]string{"events"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Consumer(0)
	events := b.Topic("events")
	events.Publish(0, U64(1)) // round-robin: lands on shard 0
	if m, ok := c.Poll(0); !ok || AsU64(m.Payload) != 1 {
		t.Fatalf("poll = %v,%v", m, ok)
	}
	// Idle: two all-empty scans. The cursor must stay on shard 1.
	for i := 0; i < 2; i++ {
		if _, ok := c.Poll(0); ok {
			t.Fatal("queue should be empty")
		}
	}
	// One message per shard (the topic's rr cursor is at 1).
	events.Publish(0, U64(2)) // shard 1
	events.Publish(0, U64(3)) // shard 2
	events.Publish(0, U64(4)) // shard 0
	m, ok := c.Poll(0)
	if !ok || m.Shard != 1 || AsU64(m.Payload) != 2 {
		t.Fatalf("first post-idle poll = shard %d payload %d, want shard 1 payload 2 (cursor was reset)",
			m.Shard, AsU64(m.Payload))
	}
}

// TestPublishPollBatchAllocs pins the Go allocations of one
// PublishBatch(8) + PollBatch(8) round on a fixed topic beside the
// fence pins: 1, the []Message the poll returns. It was 27 — per
// message a volatile node and a payload copy, the rest result-slice
// growth and per-call bookkeeping — until volatile nodes became their
// slots' mirror entries, payload copies were carved from chunks (an
// allocation per 256 messages, which AllocsPerRun's whole-number
// average rounds away) and the Consumer kept its scratch. A ceiling, so
// data-plane work can only lower it; see TestPublishPollAllocs for the
// other verb rounds.
func TestPublishPollBatchAllocs(t *testing.T) {
	round := publishPollBatchRound(t)
	if got := testing.AllocsPerRun(500, round); got > 1 {
		t.Fatalf("PublishBatch(8)+PollBatch(8) = %v allocs, want <= 1", got)
	}
}

// TestPublishPollBatchAllocsBytes pins the bytes of the same round,
// which the count rounds away: 56 a message, the 48-byte Message the
// poll returns and the 8-byte payload copy, plus less than one for
// what arrives in whole chunks (a payload chunk straddling the window,
// a depot buffer). Volatile nodes carved 64 to a chunk read 48 more.
func TestPublishPollBatchAllocsBytes(t *testing.T) {
	round := publishPollBatchRound(t)
	const rounds = 20_000
	got := allocBytesPer(8*rounds, func() {
		for i := 0; i < rounds; i++ {
			round()
		}
	})
	if got >= 57 {
		t.Fatalf("PublishBatch(8)+PollBatch(8) = %.2f B per message, want 56", got)
	}
}

// TestPollBatchWideMaxAllocsBytes pins that a poll pays for what it
// delivers, not for what it asked: a Publish + PollBatch(64) round on a
// four-shard topic that finds one message allocates that message's
// 48-byte Message and 8-byte payload copy. Sizing the batch ahead of
// the first delivery read 3 KiB, room for 64 Messages.
func TestPollBatchWideMaxAllocsBytes(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 2})
	b, err := newBroker(pmem.NewSetOf(h), Options{Threads: 2}, []TopicConfig{{Name: "events", Shards: 4}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.NewGroup([]string{"events"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	events, c := b.Topic("events"), g.Consumer(0)
	payload := U64(7)
	round := func() {
		events.Publish(0, payload)
		if ms := c.PollBatch(1, 64); len(ms) != 1 {
			t.Fatalf("PollBatch(64) delivered %d messages, want 1", len(ms))
		}
	}
	for i := 0; i < 2000; i++ {
		round()
	}
	const rounds = 20_000
	got := allocBytesPer(rounds, func() {
		for i := 0; i < rounds; i++ {
			round()
		}
	})
	if got >= 64 {
		t.Fatalf("Publish+PollBatch(64) delivering one message = %.2f B, want < 64", got)
	}
}

// publishPollBatchRound builds a fixed topic of four shards on one heap
// and returns its PublishBatch(8) + PollBatch(8) round, warmed past
// pool and slice growth.
func publishPollBatchRound(t *testing.T) func() {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 2})
	b, err := newBroker(pmem.NewSetOf(h), Options{Threads: 2}, []TopicConfig{{Name: "events", Shards: 4}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.NewGroup([]string{"events"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	events, c := b.Topic("events"), g.Consumer(0)
	batch := make([][]byte, 8)
	for i := range batch {
		batch[i] = U64(uint64(i))
	}
	round := func() {
		events.PublishBatch(0, batch)
		c.PollBatch(1, 8)
	}
	for i := 0; i < 2000; i++ {
		round()
	}
	return round
}

// TestSteadyFootprintSplitTids runs the broker the way brokers run —
// one tid only publishes, another only polls and acks — on a heap sized
// for the in-flight window, for twenty times the messages that heap
// could hold if every message took a fresh slot. Once warm, neither the
// heap break nor any pool's area count may move: the slots the consumer
// tid retires must reach the producer tid. When ssmem's free lists were
// per thread only this died with "out of simulated persistent memory".
func TestSteadyFootprintSplitTids(t *testing.T) {
	heapBytes := int64(16 << 20)
	if raceEnabled {
		heapBytes = 3 << 20 // the warm footprint is 2.02 MiB
	}
	hs := pmem.NewSet(1, pmem.Config{Bytes: heapBytes, MaxThreads: 2})
	b, err := Open(hs, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	const blobBytes = 1024
	fixed, err := b.CreateTopic(0, TopicConfig{Name: "fixed", Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := b.CreateTopic(0, TopicConfig{Name: "blob", Shards: 1, MaxPayload: blobBytes, Acked: true})
	if err != nil {
		t.Fatal(err)
	}
	region, err := b.CreateAckGroup(0, AckGroupConfig{})
	if err != nil {
		t.Fatal(err)
	}
	gf, err := b.NewGroup([]string{"fixed"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := b.NewGroupAcked([]string{"blob"}, 1, LeaseConfig{Region: region, TTL: 1 << 40, Now: func() uint64 { return 1 }})
	if err != nil {
		t.Fatal(err)
	}
	cf, cb := gf.Consumer(0), gb.Consumer(0)

	words, blobs := make([][]byte, 8), make([][]byte, 8)
	for i := range words {
		words[i], blobs[i] = U64(uint64(i)), bytes.Repeat([]byte{byte(i)}, blobBytes)
	}
	// run moves msgs messages through tp, 8 at a time: published on
	// tid 0, polled (and acked) on tid 1.
	run := func(tp *Topic, c *Consumer, batch [][]byte, msgs int64) {
		for n := int64(0); n < msgs; n += 8 {
			if err := tp.PublishBatch(0, batch); err != nil {
				t.Fatal(err)
			}
			for got := 0; got < len(batch); {
				ms := c.PollBatch(1, len(batch))
				if len(ms) == 0 {
					t.Fatalf("topic %s: %d of %d messages delivered", tp.Name(), got, len(batch))
				}
				got += len(ms)
				if !tp.Acked() {
					continue
				}
				if _, err := c.Ack(1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	type footprint struct {
		brk   uint64
		areas [2]int
	}
	measure := func() footprint {
		fp := footprint{brk: hs.Heap(0).RawMem(8)} // word 1 of a heap is its persistent break
		fp.areas[0], _ = fixed.nvram()
		fp.areas[1], _ = blob.nvram()
		return fp
	}
	run(fixed, cf, words, 8192)
	run(blob, cb, blobs, 8192)
	warm := measure()
	// A fixed-topic message is one 64 B node; a blob message is one
	// slot: the node line, then whole lines carrying 56 payload bytes
	// each.
	const blobSlot = 64 + (blobBytes+55)/56*64
	run(fixed, cf, words, 20*heapBytes/64)
	run(blob, cb, blobs, 20*heapBytes/blobSlot)
	if got := measure(); got != warm {
		t.Fatalf("footprint moved after warm-up: %+v -> %+v", warm, got)
	}
}

// TestPollBatchNoStarvation: a shard that fills a whole poll batch
// must not pin the cursor — the next poll starts at the following
// shard, so a continuously hot shard cannot starve its siblings.
func TestPollBatchNoStarvation(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 2})
	b, err := newBroker(pmem.NewSetOf(h), Options{Threads: 1}, []TopicConfig{{Name: "events", Shards: 2}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.NewGroup([]string{"events"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Consumer(0)
	events := b.Topic("events")
	for i := uint64(0); i < 10; i++ {
		events.Publish(0, U64(i)) // round-robin: evens → shard 0, odds → shard 1
	}
	// First poll fills entirely from shard 0.
	for _, m := range c.PollBatch(0, 5) {
		if m.Shard != 0 {
			t.Fatalf("first poll delivered from shard %d, want 0", m.Shard)
		}
	}
	// Keep shard 0 hot (the topic's rr cursor is back at shard 0).
	for i := uint64(10); i < 20; i++ {
		events.Publish(0, U64(i))
	}
	// The next poll must serve shard 1's backlog, not shard 0 again.
	ms := c.PollBatch(0, 5)
	if len(ms) != 5 {
		t.Fatalf("second poll delivered %d messages, want 5", len(ms))
	}
	for i, m := range ms {
		if m.Shard != 1 {
			t.Fatalf("second poll message %d came from shard %d: hot shard 0 starved shard 1", i, m.Shard)
		}
	}
}

// TestPollBatchMixedTopics drains a fixed-width and a blob topic
// through one consumer's PollBatch and audits payload integrity.
func TestPollBatchMixedTopics(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 2})
	b, err := newBroker(pmem.NewSetOf(h), Options{Threads: 2}, twoTopics(), 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.NewGroup([]string{"events", "jobs"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := uint64(0); i < n; i++ {
		b.Topic("events").Publish(0, U64(i))
		b.Topic("jobs").Publish(0, blobPayload(i))
	}
	c := g.Consumer(0)
	gotEvents, gotJobs := map[uint64]bool{}, map[uint64]bool{}
	for {
		ms := c.PollBatch(1, 7)
		if len(ms) == 0 {
			break
		}
		for _, m := range ms {
			id := AsU64(m.Payload[:8])
			switch m.Topic {
			case "events":
				if gotEvents[id] {
					t.Fatalf("event %d delivered twice", id)
				}
				gotEvents[id] = true
			case "jobs":
				if !bytes.Equal(m.Payload, blobPayload(id)) {
					t.Fatalf("job %d payload corrupted", id)
				}
				if gotJobs[id] {
					t.Fatalf("job %d delivered twice", id)
				}
				gotJobs[id] = true
			}
		}
	}
	if len(gotEvents) != n || len(gotJobs) != n {
		t.Fatalf("delivered %d events, %d jobs; want %d each", len(gotEvents), len(gotJobs), n)
	}
}

func TestCatalogRecoverRoundTrip(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4})
	b, err := newBroker(pmem.NewSetOf(h), Options{Threads: 2}, twoTopics(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b.Topic("events").Publish(0, U64(42))
	b.Topic("jobs").Publish(0, blobPayload(7))
	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(2)))
	h.Restart()
	// The very call that created the broker: over a set that hosts a
	// catalog it recovers — the topics and their payloads below, not an
	// empty broker — and leaves the catalog where it was.
	anchor := h.Load(0, h.RootAddr(slotAnchor))
	r, err := Open(pmem.NewSetOf(h), Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Load(0, h.RootAddr(slotAnchor)); got != anchor {
		t.Fatalf("Open over an existing catalog moved the anchor %#x -> %#x", anchor, got)
	}
	if len(r.Topics()) != len(twoTopics()) {
		t.Fatalf("Open over an existing catalog returned %d topics, want the %d recovered ones", len(r.Topics()), len(twoTopics()))
	}
	for i, tc := range twoTopics() {
		got := r.Topics()[i]
		if got.Name() != tc.Name || got.Shards() != tc.Shards {
			t.Fatalf("recovered topic %d = %s/%d, want %s/%d",
				i, got.Name(), got.Shards(), tc.Name, tc.Shards)
		}
	}
	if p, ok := r.Topic("events").DequeueShard(0, 0); !ok || AsU64(p) != 42 {
		t.Fatalf("recovered event = %v,%v", p, ok)
	}
	found := false
	for s := 0; s < r.Topic("jobs").Shards(); s++ {
		if p, ok := r.Topic("jobs").DequeueShard(0, s); ok {
			if !bytes.Equal(p, blobPayload(7)) {
				t.Fatal("recovered job payload corrupted")
			}
			found = true
		}
	}
	if !found {
		t.Fatal("acknowledged job lost across crash")
	}
}

func TestRecoverThreadBound(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4})
	b, err := newBroker(pmem.NewSetOf(h), Options{Threads: 3}, twoTopics(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b.Topic("events").Publish(2, U64(9))
	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(4)))
	h.Restart()
	// A mismatched bound would silently mis-scan the per-thread
	// head-index regions; it must be rejected instead.
	if _, err := Open(pmem.NewSetOf(h), Options{Threads: 2}); err == nil {
		t.Fatal("Open with a mismatched thread bound should fail")
	}
	// 0 adopts the recorded bound.
	r, err := Open(pmem.NewSetOf(h), Options{Threads: 0})
	if err != nil {
		t.Fatal(err)
	}
	if r.Threads() != 3 {
		t.Fatalf("adopted thread bound = %d, want 3", r.Threads())
	}
	if p, ok := r.Topic("events").DequeueShard(0, 0); !ok || AsU64(p) != 9 {
		t.Fatalf("recovered event = %v,%v", p, ok)
	}
}

// TestRecoverWithoutBroker: Open with zero Options is "recover or
// fail" — a blank set has nothing to recover and no thread bound to
// create with.
func TestRecoverWithoutBroker(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 2})
	if _, err := Open(pmem.NewSetOf(h), Options{}); err == nil {
		t.Fatal("Open(Options{}) on a blank heap should fail")
	}
	if h.Load(0, h.RootAddr(slotAnchor)) != 0 {
		t.Fatal("the refused Open anchored something on the blank heap")
	}
}

// TestMultiHeapPlacementSpread pins the one placement: global
// round-robin deals consecutive shards across the set. What a poll
// over both domains costs is a row of testdata/budget.txt.
func TestMultiHeapPlacementSpread(t *testing.T) {
	hs := pmem.NewSet(2, pmem.Config{Bytes: 64 << 20, MaxThreads: 2})
	b, err := newBroker(hs, Options{Threads: 1}, twoTopics(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, topic := range b.Topics() {
		for s := 0; s < topic.Shards(); s++ {
			if want := s % 2; topic.locs[s].heap != want {
				t.Fatalf("round-robin: %s shard %d on heap %d, want %d",
					topic.Name(), s, topic.locs[s].heap, want)
			}
		}
	}
}

// TestAffineGroupFencesOneDomain: over round-robin placement, a
// two-member group is dealt the shards of one heap each (shard s sits
// on heap s%2 and goes to member s%2) and drains only those, so a
// PollBatch draining several shards fences one domain; the budget row
// "PollBatch(16), 2 members, 1 domain each" pins that one fence a poll.
func TestAffineGroupFencesOneDomain(t *testing.T) {
	hs := pmem.NewSet(2, pmem.Config{Bytes: 64 << 20, MaxThreads: 4})
	b, err := newBroker(hs, Options{Threads: 2}, []TopicConfig{{Name: "events", Shards: 4}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.NewGroup([]string{"events"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.Size(); i++ {
		refs := g.Consumer(i).refs
		if len(refs) != 2 {
			t.Fatalf("consumer %d owns %d shards, want 2", i, len(refs))
		}
		for _, r := range refs {
			if h := r.t.locs[r.shard].heap; h != i {
				t.Fatalf("consumer %d owns shard %d on heap %d, want %d", i, r.shard, h, i)
			}
		}
	}
	const n = 16
	for i := uint64(0); i < n; i++ {
		b.Topic("events").Publish(0, U64(i)) // 4 per shard round-robin
	}
	for i := 0; i < g.Size(); i++ {
		if ms := g.Consumer(i).PollBatch(1, n); len(ms) != n/2 {
			t.Fatalf("consumer %d drained %d messages, want %d", i, len(ms), n/2)
		}
	}
}

// TestMultiHeapRecoverRoundTrip crashes a 2-heap broker mid-state and
// recovers it from the catalog plus stamps alone: topics, placements
// and messages on both domains survive.
func TestMultiHeapRecoverRoundTrip(t *testing.T) {
	hs := pmem.NewSet(2, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4})
	b, err := newBroker(hs, Options{Threads: 2}, twoTopics(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin placement: events shards alternate heaps. Publish one
	// message per shard on both topics so both domains hold state.
	for i := uint64(0); i < 8; i++ {
		b.Topic("events").Publish(0, U64(i))
		b.Topic("jobs").Publish(0, blobPayload(i))
	}
	hs.CrashNow()
	hs.FinalizeCrash(rand.New(rand.NewSource(5)))
	hs.Restart()
	r, err := Open(hs, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Heaps() != 2 {
		t.Fatalf("recovered broker spans %d heaps, want 2", r.Heaps())
	}
	for ti, topic := range r.Topics() {
		for s := 0; s < topic.Shards(); s++ {
			if got, want := topic.locs[s].heap, b.Topics()[ti].locs[s].heap; got != want {
				t.Fatalf("recovered %s shard %d on heap %d, want %d", topic.Name(), s, got, want)
			}
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
				if topic.Name() == "events" {
					gotEvents[AsU64(p)] = true
				} else {
					id := AsU64(p[:8])
					if !bytes.Equal(p, blobPayload(id)) {
						t.Fatalf("job %d corrupted across multi-heap recovery", id)
					}
					gotJobs++
				}
			}
		}
	}
	if len(gotEvents) != 8 || gotJobs != 8 {
		t.Fatalf("recovered %d events, %d jobs; want 8 each", len(gotEvents), gotJobs)
	}
}

// TestRecoverHeapSetMismatch: recovery on a set that does not match
// the catalog — missing heaps, a blank heap spliced in, or members in
// the wrong order — must error, never silently drop or mis-scan
// shards.
func TestRecoverHeapSetMismatch(t *testing.T) {
	cfg := pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4}
	h0, h1, h2 := pmem.New(cfg), pmem.New(cfg), pmem.New(cfg)
	hs := pmem.NewSetOf(h0, h1, h2)
	b, err := newBroker(hs, Options{Threads: 2}, twoTopics(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b.Topic("events").Publish(0, U64(1))
	hs.CrashNow()
	hs.FinalizeCrash(rand.New(rand.NewSource(6)))
	hs.Restart()

	if _, err := Open(pmem.NewSetOf(h0), Options{Threads: 2}); err == nil {
		t.Fatal("Open with 1 of 3 catalogued heaps should fail")
	}
	if _, err := Open(pmem.NewSetOf(h0, h1), Options{Threads: 2}); err == nil {
		t.Fatal("Open with 2 of 3 catalogued heaps should fail")
	}
	blank := pmem.New(cfg)
	if _, err := Open(pmem.NewSetOf(h0, h1, blank), Options{Threads: 2}); err == nil {
		t.Fatal("Open with a blank heap replacing a member should fail")
	}
	if _, err := Open(pmem.NewSetOf(h0, h2, h1), Options{Threads: 2}); err == nil {
		t.Fatal("Open with members out of order should fail")
	}
	// A foreign heap carrying another broker's stamp must be rejected.
	foreign := pmem.NewSet(2, cfg)
	if _, err := newBroker(foreign, Options{Threads: 1}, []TopicConfig{{Name: "x", Shards: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	foreign.CrashNow()
	foreign.FinalizeCrash(rand.New(rand.NewSource(7)))
	foreign.Restart()
	if _, err := Open(pmem.NewSetOf(h0, h1, foreign.Heap(1)), Options{Threads: 2}); err == nil {
		t.Fatal("Open with another broker's heap spliced in should fail")
	}
	// The correct set still recovers, with the message intact.
	r, err := Open(pmem.NewSetOf(h0, h1, h2), Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := r.Topic("events").DequeueShard(0, 0); !ok || AsU64(p) != 1 {
		t.Fatalf("recovered event = %v,%v", p, ok)
	}
}

// TestNewSetRejectsOccupiedMembers: Open must not create a broker over
// a set whose members carry durable broker state — in any position,
// not just heap 0 — instead of silently overwriting another broker's
// catalog, stamp or shards.
func TestNewSetRejectsOccupiedMembers(t *testing.T) {
	cfg := pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4}
	topics := []TopicConfig{{Name: "events", Shards: 2}}
	old := pmem.NewSet(2, cfg)
	if _, err := newBroker(old, Options{Threads: 2}, topics, 0); err != nil {
		t.Fatal(err)
	}
	old.CrashNow()
	old.FinalizeCrash(rand.New(rand.NewSource(8)))
	old.Restart()

	fresh := func() *pmem.Heap { return pmem.New(cfg) }
	// A former anchor heap (full catalog) spliced into a non-anchor
	// position of a new set.
	if _, err := Open(pmem.NewSetOf(fresh(), old.Heap(0)), Options{Threads: 2}); err == nil {
		t.Fatal("Open over a heap hosting a catalog (non-anchor position) should fail")
	}
	// A former member heap (stamp) likewise.
	if _, err := Open(pmem.NewSetOf(fresh(), old.Heap(1)), Options{Threads: 2}); err == nil {
		t.Fatal("Open over a heap carrying a membership stamp should fail")
	}
	// Anchor position: the catalog there is recovered, not overwritten,
	// and recovery refuses the blank heap spliced in beside it.
	if _, err := Open(pmem.NewSetOf(old.Heap(0), fresh()), Options{Threads: 2}); err == nil {
		t.Fatal("Open of an anchor heap beside a blank member should fail")
	}
	// The untouched old set remains recoverable.
	if _, err := Open(pmem.NewSetOf(old.Heap(0), old.Heap(1)), Options{Threads: 2}); err != nil {
		t.Fatal(err)
	}
}
