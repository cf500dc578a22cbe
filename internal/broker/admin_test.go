package broker

import (
	"bytes"
	"errors"
	"fmt"
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
// by the next creation, which appends over it and commits. That
// creation takes the windows the crashed one built in, over the root
// slots its queues wrote, so it stands on the scrub.
func TestCreateTopicCrashBeforeAnchor(t *testing.T) {
	var b *Broker
	hs := cutBeforeCommit(t, func() (*pmem.HeapSet, func()) {
		hs := pmem.NewSet(2, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4})
		var err error
		if b, err = Open(hs, Options{Threads: 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.CreateTopic(0, TopicConfig{Name: "base", Shards: 2}); err != nil {
			t.Fatal(err)
		}
		b.Topic("base").Publish(0, U64(11))
		return hs, func() { b.CreateTopic(0, TopicConfig{Name: "late", Shards: 2}) }
	})
	// The crashed creation's windows are still in the slot table.
	crashedTable := fmt.Sprint(b.cat.live)
	hs.FinalizeCrash(rand.New(rand.NewSource(82)))
	hs.Restart()

	r, err := Open(hs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Topic("late") != nil {
		t.Fatal("a create that crashed before its anchor stamp recovered as existing")
	}
	if p, ok := r.Topic("base").DequeueShard(0, 0); !ok || AsU64(p) != 11 {
		t.Fatalf("pre-existing topic lost its message: %v,%v", p, ok)
	}
	// Re-create over the torn tail, publish, power-fail, recover: the
	// debris never resurfaces and the committed topic round-trips.
	if _, err := r.CreateTopic(0, TopicConfig{Name: "late", Shards: 2}); err != nil {
		t.Fatal(err)
	}
	// No record owns the crashed create's windows, so the re-create
	// takes exactly them.
	if got := slotTable(r); got != crashedTable {
		t.Fatalf("re-create after the crashed create holds slot table %s, want the crashed create's %s", got, crashedTable)
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
	b, err := Open(hs, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A 1-shard topic record spans 3 lines: header, name, placements.
	if err := b.CompactCatalog(0, 3); err != nil {
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

// creationCuts cuts power at every access a fresh Open makes on every
// member of a blank set of heaps members, and hands each crashed and
// restarted set to f, with a name for the cut.
func creationCuts(t *testing.T, heaps int, f func(what string, hs *pmem.HeapSet)) {
	t.Helper()
	cfg := pmem.Config{Bytes: 16 << 20, Mode: pmem.ModeCrash, MaxThreads: 1}
	blank := pmem.NewSet(heaps, cfg)
	counts := sweepCounts(blank, func() {
		if _, err := Open(blank, Options{Threads: 1}); err != nil {
			t.Fatal(err)
		}
	})
	for hi, n := range counts {
		for k := int64(1); k <= n; k++ {
			what := fmt.Sprintf("%d heap(s), cut at heap %d access %d of %d", heaps, hi, k, n)
			hs := pmem.NewSet(heaps, cfg)
			hs.Heap(hi).ScheduleCrashAtAccess(k)
			if !pmem.Protect(func() { Open(hs, Options{Threads: 1}) }) {
				t.Fatalf("%s: Open finished; the armed crash never reached it", what)
			}
			hs.FinalizeCrash(rand.New(rand.NewSource(k)))
			hs.Restart()
			f(what, hs)
		}
	}
}

// TestOpenOverCrashedCreation: a power cut at each access of Open's
// creation on a blank set of one, two or three heaps leaves debris but
// no anchor — on heap 0 nothing, a torn log header, or a whole header
// over a commit line with no record; on a member that header's set
// stamp — and the next Open creates over it. The broker it creates
// spans the set with a 4-shard topic and recovers it after a crash. A
// zero anchor over a log that commits a record is refused with
// pmem.ErrCorrupt instead: only a broker that anchored the log commits
// into it.
func TestOpenOverCrashedCreation(t *testing.T) {
	for heaps := 1; heaps <= 3; heaps++ {
		headers, stamps := 0, 0
		creationCuts(t, heaps, func(what string, hs *pmem.HeapSet) {
			// A cut on the anchor's own persist, after its store, may
			// leave a whole broker; Open recovers that one.
			h := hs.Heap(0)
			if h.RawMem(h.RootAddr(slotAnchor)) == 0 {
				if base := pmem.NewReader(h).FirstAlloc(logHeaderLines * pmem.CacheLineBytes); base != 0 {
					var hdr [pmem.WordsPerLine]uint64
					for i := range hdr {
						hdr[i] = h.RawMem(base + pmem.Addr(i*pmem.WordBytes))
					}
					if hdr[0] == catMagicV4 && hdr[7] == lineSum(catMagicV4, hdr[:7]) {
						headers++
					}
				}
				if heaps > 1 && hs.Heap(heaps-1).RawMem(hs.Heap(heaps-1).RootAddr(slotAnchor)) != 0 {
					stamps++
				}
			}
			b, err := Open(hs, Options{Threads: 1})
			if err != nil {
				t.Fatalf("%s: Open after a crashed creation: %v", what, err)
			}
			tp, err := b.CreateTopic(0, TopicConfig{Name: "t", Shards: 4})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			spans := map[int]bool{}
			for _, loc := range tp.locs {
				spans[loc.heap] = true
			}
			if len(spans) != heaps {
				t.Fatalf("%s: the topic's shards lie on %d of %d heaps", what, len(spans), heaps)
			}
			for m := uint64(1); m <= 8; m++ {
				if err := tp.Publish(0, U64(m)); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
			hs.CrashNow()
			hs.FinalizeCrash(rand.New(rand.NewSource(7)))
			hs.Restart()
			r, err := Open(hs, Options{})
			if err != nil {
				t.Fatalf("%s: recovery of the broker created over the debris: %v", what, err)
			}
			got := 0
			for s := 0; r.Topic("t") != nil && s < r.Topic("t").Shards(); s++ {
				for _, ok := r.Topic("t").DequeueShard(0, s); ok; _, ok = r.Topic("t").DequeueShard(0, s) {
					got++
				}
			}
			if got != 8 {
				t.Fatalf("%s: the recovered broker drained %d of 8 messages", what, got)
			}
		})
		if headers == 0 {
			t.Fatalf("%d heap(s): no cut left a whole log header behind a zero anchor", heaps)
		}
		if heaps > 1 && stamps == 0 {
			t.Fatalf("%d heaps: no cut left a stamped member behind a zero anchor", heaps)
		}
	}

	// The same log once it commits a record, behind a zeroed anchor.
	hs := pmem.NewSet(1, pmem.Config{Bytes: 16 << 20, Mode: pmem.ModeCrash, MaxThreads: 1})
	b, err := Open(hs, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "t", Shards: 1}); err != nil {
		t.Fatal(err)
	}
	h := hs.Heap(0)
	h.Store(0, h.RootAddr(slotAnchor), 0)
	h.Persist(0, h.RootAddr(slotAnchor))
	if _, err := Open(hs, Options{Threads: 1}); !errors.Is(err, pmem.ErrCorrupt) {
		t.Fatalf("Open over a committed log behind a zero anchor = %v, want pmem.ErrCorrupt", err)
	}
}

// TestOpenRefusesZeroAnchorPastDebris: after every cut of a one-heap
// creation that leaves anything at heap 0's first allocation, the next
// Open creates its broker's log past that debris. Zeroing that
// broker's anchor once it commits a topic must not read as a blank set,
// whether the debris header is whole, torn or blank: the check walks
// the debris at a fresh log's stride and finds the committed log.
func TestOpenRefusesZeroAnchorPastDebris(t *testing.T) {
	past := 0
	creationCuts(t, 1, func(what string, hs *pmem.HeapSet) {
		b, err := Open(hs, Options{Threads: 1})
		if err != nil {
			t.Fatalf("%s: Open over the debris of a crashed creation: %v", what, err)
		}
		h := hs.Heap(0)
		if b.cat.base == pmem.NewReader(h).FirstAlloc(logHeaderLines*pmem.CacheLineBytes) {
			return // no debris ahead of the live log
		}
		past++
		if _, err := b.CreateTopic(0, TopicConfig{Name: "t", Shards: 1}); err != nil {
			t.Fatal(err)
		}
		if err := b.Topic("t").Publish(0, U64(1)); err != nil {
			t.Fatal(err)
		}
		h.Store(0, h.RootAddr(slotAnchor), 0)
		h.Persist(0, h.RootAddr(slotAnchor))
		r, err := Open(hs, Options{Threads: 1})
		if err == nil {
			t.Fatalf("%s: Open over a committed log behind debris and a zero anchor created a broker with topics %q, want pmem.ErrCorrupt",
				what, r.TopicNames())
		}
		if !errors.Is(err, pmem.ErrCorrupt) {
			t.Fatalf("%s: Open over a committed log behind debris and a zero anchor = %v, want pmem.ErrCorrupt", what, err)
		}
	})
	if past == 0 {
		t.Fatal("no cut left the live log past debris")
	}
	t.Logf("%d cuts left the live log past debris", past)
}
