package broker

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/pmem"
)

// TestDeleteTopicRoundTrip is the retirement round trip: a deleted
// topic vanishes from the data plane (typed ErrTopicDeleted on stale
// handles), its name is immediately reusable with a different shape,
// and a crash after the delete recovers the new world — old messages
// gone with their topic, everything else intact.
func TestDeleteTopicRoundTrip(t *testing.T) {
	hs := pmem.NewSet(2, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4})
	b, err := Open(hs, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "keep", Shards: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "gone", Shards: 2, MaxPayload: 64}); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 4; i++ {
		if err := b.Topic("keep").Publish(0, U64(i)); err != nil {
			t.Fatal(err)
		}
		if err := b.Topic("gone").Publish(0, blobPayload(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	handle := b.Topic("gone")
	if err := b.DeleteTopic(0, "gone"); err != nil {
		t.Fatal(err)
	}
	if b.Topic("gone") != nil {
		t.Fatal("deleted topic still visible")
	}
	if !handle.Deleted() {
		t.Fatal("stale handle does not report Deleted")
	}
	if err := handle.Publish(0, blobPayload(1)); !errors.Is(err, ErrTopicDeleted) {
		t.Fatalf("Publish on a deleted topic = %v, want ErrTopicDeleted", err)
	}
	if err := handle.PublishKey(0, []byte("k"), blobPayload(1)); !errors.Is(err, ErrTopicDeleted) {
		t.Fatalf("PublishKey on a deleted topic = %v, want ErrTopicDeleted", err)
	}
	if err := handle.PublishBatch(0, [][]byte{blobPayload(1)}); !errors.Is(err, ErrTopicDeleted) {
		t.Fatalf("PublishBatch on a deleted topic = %v, want ErrTopicDeleted", err)
	}
	if _, ok := handle.DequeueShard(0, 0); ok {
		t.Fatal("DequeueShard on a deleted topic delivered a message")
	}
	if err := b.DeleteTopic(0, "gone"); err == nil {
		t.Fatal("double DeleteTopic should fail")
	}
	// The name is free again, with a different shape; the old windows
	// are free slots.
	if _, err := b.CreateTopic(0, TopicConfig{Name: "gone", Shards: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Topic("gone").Publish(0, U64(31)); err != nil {
		t.Fatal(err)
	}
	hs.CrashNow()
	hs.FinalizeCrash(rand.New(rand.NewSource(91)))
	hs.Restart()

	r, err := Open(hs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rg := r.Topic("gone")
	if rg == nil || rg.Shards() != 1 || rg.MaxPayload() != 8 {
		t.Fatalf("recreated topic recovered wrong: %+v", rg)
	}
	got := map[uint64]bool{}
	for {
		p, ok := rg.DequeueShard(0, 0)
		if !ok {
			break
		}
		got[AsU64(p)] = true
	}
	if len(got) != 1 || !got[31] {
		t.Fatalf("recreated topic recovered %v, want {31} (pre-delete messages must not resurface)", got)
	}
	kept := map[uint64]bool{}
	for s := 0; s < 2; s++ {
		for {
			p, ok := r.Topic("keep").DequeueShard(0, s)
			if !ok {
				break
			}
			kept[AsU64(p)] = true
		}
	}
	if len(kept) != 4 {
		t.Fatalf("untouched topic recovered %d messages, want 4", len(kept))
	}
}

// TestDeleteTopicCrashBeforeAnchor pins the delete protocol's crash
// atomicity: a crash between the tombstone's append fence and its
// anchor stamp recovers as "the topic still exists", messages and all —
// and a committed delete never resurrects across further crashes.
func TestDeleteTopicCrashBeforeAnchor(t *testing.T) {
	hs := pmem.NewSet(2, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4})
	b, err := Open(hs, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "victim", Shards: 2}); err != nil {
		t.Fatal(err)
	}
	b.Topic("victim").Publish(0, U64(41))
	b.Topic("victim").Publish(0, U64(42))

	testHookAfterAppend = func() { hs.CrashNow() }
	crashed := pmem.Protect(func() { b.DeleteTopic(0, "victim") })
	testHookAfterAppend = nil
	if !crashed {
		t.Fatal("DeleteTopic survived a crash armed between append and anchor")
	}
	hs.FinalizeCrash(rand.New(rand.NewSource(92)))
	hs.Restart()

	r, err := Open(hs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Topic("victim") == nil {
		t.Fatal("a delete that crashed before its anchor stamp recovered as committed")
	}
	got := map[uint64]bool{}
	for s := 0; s < r.Topic("victim").Shards(); s++ {
		for {
			p, ok := r.Topic("victim").DequeueShard(0, s)
			if !ok {
				break
			}
			if got[AsU64(p)] {
				t.Fatalf("message %d recovered twice", AsU64(p))
			}
			got[AsU64(p)] = true
		}
	}
	if !got[41] || !got[42] || len(got) != 2 {
		t.Fatalf("surviving topic recovered %v, want {41, 42}", got)
	}
	// The retry appends over the torn tombstone and commits; the delete
	// then survives any further crash — no resurrected topic.
	if err := r.DeleteTopic(0, "victim"); err != nil {
		t.Fatal(err)
	}
	hs.CrashNow()
	hs.FinalizeCrash(rand.New(rand.NewSource(93)))
	hs.Restart()
	r2, err := Open(hs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Topic("victim") != nil {
		t.Fatal("a committed delete resurrected across a crash")
	}
}

// TestDeleteTopicWindowReuse pins the acceptance criterion: a
// create/delete storm over cycles of the same topic shape reaches a
// steady-state high-water mark — the retired windows are provably
// reused, the footprint stops growing after the first cycle, and the
// free slots after a crash match the live ones exactly (they are the
// complement of the replayed live windows below the durable marks).
// The deliberately tiny log also forces the storm through repeated
// compactions.
func TestDeleteTopicWindowReuse(t *testing.T) {
	hs := pmem.NewSet(2, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 2})
	b, err := Open(hs, Options{Threads: 1, CatalogLines: 24})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "base", Shards: 1}); err != nil {
		t.Fatal(err)
	}
	b.Topic("base").Publish(0, U64(7))

	const cycles = 10
	// Two shards over two heaps: the same shape claims the same windows
	// every cycle once the first cycle has freed them.
	shape := TopicConfig{Name: "churn", Shards: 2}
	var used0, free0 int
	for i := 0; i < cycles; i++ {
		if _, err := b.CreateTopic(0, shape); err != nil {
			t.Fatalf("cycle %d create: %v", i, err)
		}
		for m := uint64(0); m < 4; m++ {
			b.Topic("churn").Publish(0, U64(uint64(i)<<8|m))
		}
		if err := b.DeleteTopic(0, "churn"); err != nil {
			t.Fatalf("cycle %d delete: %v", i, err)
		}
		used, free := b.SlotFootprint()
		if i == 0 {
			used0, free0 = used, free
			if free != 2*slotsPerShard {
				t.Fatalf("cycle 0 freed %d slots, want %d (two shard windows)", free, 2*slotsPerShard)
			}
			continue
		}
		if used != used0 || free != free0 {
			t.Fatalf("cycle %d footprint (used %d, free %d) drifted from steady state (used %d, free %d): windows not reused",
				i, used, free, used0, free0)
		}
	}
	if gen := b.CatalogGeneration(); gen == 0 {
		t.Fatal("a 10-cycle storm on a 24-line log never compacted")
	}
	// A same-shape create consumes the free slots completely: no fresh
	// windows, no mark movement.
	if _, err := b.CreateTopic(0, shape); err != nil {
		t.Fatal(err)
	}
	if used, free := b.SlotFootprint(); used != used0 || free != 0 {
		t.Fatalf("steady-state create left (used %d, free %d), want (used %d, free 0)", used, free, used0)
	}
	if err := b.DeleteTopic(0, "churn"); err != nil {
		t.Fatal(err)
	}

	// Free slots are derived, not stored: replay's claims and releases
	// rebuild the same footprint.
	hs.CrashNow()
	hs.FinalizeCrash(rand.New(rand.NewSource(94)))
	hs.Restart()
	r, err := Open(hs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if used, free := r.SlotFootprint(); used != used0 || free != free0 {
		t.Fatalf("recovered footprint (used %d, free %d), want (used %d, free %d)", used, free, used0, free0)
	}
	if p, ok := r.Topic("base").DequeueShard(0, 0); !ok || AsU64(p) != 7 {
		t.Fatalf("base message lost in the storm: %v,%v", p, ok)
	}
	// And the recovered free slots actually serve allocations.
	if _, err := r.CreateTopic(0, shape); err != nil {
		t.Fatal(err)
	}
	if used, free := r.SlotFootprint(); used != used0 || free != 0 {
		t.Fatalf("post-recovery create left (used %d, free %d), want (used %d, free 0)", used, free, used0)
	}
}

// TestCreateTopicOutOfSpace: create/publish/delete cycles on a small
// heap grow its break until a CreateTopic finds no room for a shard's
// queue. That call returns an error wrapping pmem.ErrOutOfSpace instead
// of panicking, leaves the slot footprint as it found it and the topic
// absent, and the image it leaves behind recovers.
func TestCreateTopicOutOfSpace(t *testing.T) {
	hs := pmem.NewSet(1, pmem.Config{Bytes: 16 << 20, Mode: pmem.ModeCrash, MaxThreads: 2})
	b, err := Open(hs, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "base", Shards: 1}); err != nil {
		t.Fatal(err)
	}
	b.Topic("base").Publish(0, U64(7))
	used, free, err := churnUntilFull(t, b)
	if !errors.Is(err, pmem.ErrOutOfSpace) {
		t.Fatalf("CreateTopic = %v, want pmem.ErrOutOfSpace", err)
	}
	if u, f := b.SlotFootprint(); u != used || f != free {
		t.Fatalf("refused create moved the slot footprint (used %d, free %d) -> (used %d, free %d)", used, free, u, f)
	}
	if b.Topic("churn") != nil {
		t.Fatal("refused create left its topic visible")
	}
	hs.CrashNow()
	hs.FinalizeCrash(rand.New(rand.NewSource(95)))
	hs.Restart()
	r, err := Open(hs, Options{})
	if err != nil {
		t.Fatalf("Open after the refused create: %v", err)
	}
	if r.Topic("churn") != nil {
		t.Fatal("the refused create recovered as existing")
	}
	if p, ok := r.Topic("base").DequeueShard(0, 0); !ok || AsU64(p) != 7 {
		t.Fatalf("base message lost: %v,%v", p, ok)
	}
}

// churnUntilFull runs create, 16-publish and delete cycles of a 1-shard
// topic named churn on b until a CreateTopic refuses, and returns that
// refusal with the slot footprint just before it. NVRAM has no free
// path, so every cycle moves the heap's break for good.
func churnUntilFull(t *testing.T, b *Broker) (used, free int, err error) {
	t.Helper()
	shape := TopicConfig{Name: "churn", Shards: 1}
	for cycle := 0; cycle < 200; cycle++ {
		used, free = b.SlotFootprint()
		if _, err := b.CreateTopic(0, shape); err != nil {
			t.Logf("refused at cycle %d: %v", cycle, err)
			return used, free, err
		}
		for m := uint64(0); m < 16; m++ {
			b.Topic("churn").Publish(0, U64(m))
		}
		if err := b.DeleteTopic(0, "churn"); err != nil {
			t.Fatalf("cycle %d delete: %v", cycle, err)
		}
	}
	t.Fatal("200 create/publish/delete cycles never ran the heap out of space")
	return
}

// TestPublishOutOfSpace: on a heap churned full, batches of two go to a
// 1-shard topic until its node pool must grow an area there is no room
// for. That PublishBatch returns an error wrapping pmem.ErrOutOfSpace
// having linked nothing: the slot it took goes back before the refusal,
// so a single publish after it still fits, the image a power loss
// leaves behind recovers, and its drain returns exactly the accepted
// messages.
func TestPublishOutOfSpace(t *testing.T) {
	hs := pmem.NewSet(1, pmem.Config{Bytes: 16 << 20, Mode: pmem.ModeCrash, MaxThreads: 2})
	b, err := Open(hs, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "base", Shards: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := churnUntilFull(t, b); !errors.Is(err, pmem.ErrOutOfSpace) {
		t.Fatalf("CreateTopic = %v, want pmem.ErrOutOfSpace", err)
	}
	base := b.Topic("base")
	var accepted []uint64
	for next := uint64(0); ; next += 2 {
		if next == 1<<14 {
			t.Fatal("8 192 batches never filled the shard's node area")
		}
		err := base.PublishBatch(0, [][]byte{U64(next), U64(next + 1)})
		if err == nil {
			accepted = append(accepted, next, next+1)
			continue
		}
		if !errors.Is(err, pmem.ErrOutOfSpace) {
			t.Fatalf("PublishBatch after %d messages = %v, want pmem.ErrOutOfSpace", len(accepted), err)
		}
		t.Logf("refused after %d messages: %v", len(accepted), err)
		break
	}
	// The refused batch gave its one slot back: the same batch is
	// refused again, and a single message takes that slot.
	if err := base.PublishBatch(0, [][]byte{U64(1 << 20), U64(1<<20 + 1)}); !errors.Is(err, pmem.ErrOutOfSpace) {
		t.Fatalf("PublishBatch after the refusal = %v, want pmem.ErrOutOfSpace", err)
	}
	if err := base.Publish(0, U64(1<<21)); err != nil {
		t.Fatalf("Publish into the slot the refusal gave back = %v", err)
	}
	accepted = append(accepted, 1<<21)
	hs.CrashNow()
	hs.FinalizeCrash(rand.New(rand.NewSource(96)))
	hs.Restart()
	r, err := Open(hs, Options{})
	if err != nil {
		t.Fatalf("Open after the refused publishes: %v", err)
	}
	var got []uint64
	for {
		p, ok := r.Topic("base").DequeueShard(0, 0)
		if !ok {
			break
		}
		got = append(got, AsU64(p))
	}
	if !slices.Equal(got, accepted) {
		t.Fatalf("recovered drain holds %d messages, want the %d accepted in order", len(got), len(accepted))
	}
}

// TestCompactCatalogOutOfSpace: on a heap churned full, a compaction
// into a larger generation needs a region the heap has no room for. It
// returns an error wrapping pmem.ErrOutOfSpace, leaves the catalog as it
// was, and the image a power loss leaves behind recovers it.
func TestCompactCatalogOutOfSpace(t *testing.T) {
	hs := pmem.NewSet(1, pmem.Config{Bytes: 16 << 20, Mode: pmem.ModeCrash, MaxThreads: 2})
	b, err := Open(hs, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "base", Shards: 1}); err != nil {
		t.Fatal(err)
	}
	b.Topic("base").Publish(0, U64(7))
	if _, _, err := churnUntilFull(t, b); !errors.Is(err, pmem.ErrOutOfSpace) {
		t.Fatalf("CreateTopic = %v, want pmem.ErrOutOfSpace", err)
	}
	gen, names := b.CatalogGeneration(), b.TopicNames()
	// 8 192 record lines are 512 KiB, more than the refused CreateTopic
	// needed.
	if err := b.CompactCatalog(0, 1<<13); !errors.Is(err, pmem.ErrOutOfSpace) {
		t.Fatalf("CompactCatalog on a full heap = %v, want pmem.ErrOutOfSpace", err)
	}
	if b.CatalogGeneration() != gen || !slices.Equal(b.TopicNames(), names) {
		t.Fatalf("refused compaction moved the catalog: generation %d -> %d, topics %v -> %v",
			gen, b.CatalogGeneration(), names, b.TopicNames())
	}
	hs.CrashNow()
	hs.FinalizeCrash(rand.New(rand.NewSource(97)))
	hs.Restart()
	r, err := Open(hs, Options{})
	if err != nil {
		t.Fatalf("Open after the refused compaction: %v", err)
	}
	if r.CatalogGeneration() != gen || !slices.Equal(r.TopicNames(), names) {
		t.Fatalf("recovered generation %d with topics %v, want %d with %v", r.CatalogGeneration(), r.TopicNames(), gen, names)
	}
	if p, ok := r.Topic("base").DequeueShard(0, 0); !ok || AsU64(p) != 7 {
		t.Fatalf("base message lost: %v,%v", p, ok)
	}
}

// TestCreateAckGroupOutOfSpace: a lease region larger than the heap is
// refused with an error wrapping pmem.ErrOutOfSpace, and the root-slot
// window it was placed in goes back. The window was cut from the gap a
// deleted 1-shard topic left, so a 1-shard topic created afterwards fits
// that gap only if the refusal released it. The image recovers without
// the region.
func TestCreateAckGroupOutOfSpace(t *testing.T) {
	hs := pmem.NewSet(1, pmem.Config{Bytes: 16 << 20, Mode: pmem.ModeCrash, MaxThreads: 2})
	b, err := Open(hs, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	gone, err := b.CreateTopic(0, TopicConfig{Name: "gone", Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.DeleteTopic(0, "gone"); err != nil {
		t.Fatal(err)
	}
	used, free := b.SlotFootprint()
	if _, err := b.CreateAckGroup(0, AckGroupConfig{Capacity: maxCatShards}); !errors.Is(err, pmem.ErrOutOfSpace) {
		t.Fatalf("CreateAckGroup of %d lease lines on a 16 MiB heap = %v, want pmem.ErrOutOfSpace", maxCatShards, err)
	}
	if u, f := b.SlotFootprint(); u != used || f != free {
		t.Fatalf("refused CreateAckGroup moved the slot footprint (used %d, free %d) -> (used %d, free %d)", used, free, u, f)
	}
	reuse, err := b.CreateTopic(0, TopicConfig{Name: "reuse", Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if reuse.locs[0] != gone.locs[0] {
		t.Fatalf("topic created after the refusal sits at %v, want the freed window %v", reuse.locs[0], gone.locs[0])
	}
	hs.CrashNow()
	hs.FinalizeCrash(rand.New(rand.NewSource(98)))
	hs.Restart()
	r, err := Open(hs, Options{})
	if err != nil {
		t.Fatalf("Open after the refused CreateAckGroup: %v", err)
	}
	if r.Topic("reuse") == nil {
		t.Fatal("the topic created after the refusal did not recover")
	}
	if g, err := r.CreateAckGroup(0, AckGroupConfig{}); err != nil || g != 0 {
		t.Fatalf("CreateAckGroup after recovery = (%d, %v), want region 0: the refused one must not be recorded", g, err)
	}
}

// TestCompactCatalogKeepsFreeWindows: a compaction writes only live
// records, yet a broker recovered from the new generation has the same
// free slots as the one that compacted — the marks travel with the
// generation and free space is their complement. Compared white-box
// too: the recovered slot table (live windows and marks) and every
// topic's windows equal the live broker's.
func TestCompactCatalogKeepsFreeWindows(t *testing.T) {
	hs := pmem.NewSet(2, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 2})
	b, err := Open(hs, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if _, err := b.CreateTopic(0, TopicConfig{Name: name, Shards: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.DeleteTopic(0, "b"); err != nil {
		t.Fatal(err)
	}
	if err := b.CompactCatalog(0, 0); err != nil {
		t.Fatal(err)
	}
	used, free := b.SlotFootprint()
	if used != 6*slotsPerShard || free != 2*slotsPerShard {
		t.Fatalf("live footprint (used %d, free %d), want (used %d, free %d)", used, free, 6*slotsPerShard, 2*slotsPerShard)
	}
	table, locs := slotTable(b), topicWindows(b)

	hs.CrashNow() // at quiescence: a clean restart
	hs.FinalizeCrash(rand.New(rand.NewSource(98)))
	hs.Restart()
	r, err := Open(hs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if u, f := r.SlotFootprint(); u != used || f != free {
		t.Fatalf("recovered footprint (used %d, free %d), want the live (used %d, free %d)", u, f, used, free)
	}
	if got := slotTable(r); got != table {
		t.Fatalf("recovered slot table %s, want the live %s", got, table)
	}
	if got := topicWindows(r); got != locs {
		t.Fatalf("recovered topic windows %s, want the live %s", got, locs)
	}
	// The freed windows serve the next create: the marks stay put.
	if _, err := r.CreateTopic(0, TopicConfig{Name: "d", Shards: 2}); err != nil {
		t.Fatal(err)
	}
	if u, f := r.SlotFootprint(); u != used || f != 0 {
		t.Fatalf("create after recovery left (used %d, free %d), want (used %d, free 0)", u, f, used)
	}
}

// slotTable renders the catalog's slot table — per-heap marks and live
// windows — for comparison across a restart.
func slotTable(b *Broker) string {
	b.adminMu.Lock()
	defer b.adminMu.Unlock()
	return fmt.Sprint(b.cat.marks, b.cat.live)
}

// topicWindows renders every topic's name and shard windows, in
// catalog order.
func topicWindows(b *Broker) string {
	var s strings.Builder
	for _, t := range b.set().list {
		fmt.Fprint(&s, t.Name(), t.locs, " ")
	}
	return s.String()
}

// TestCompactCatalogCrashBeforeFlip pins the generation flip's crash
// atomicity: a crash between the new generation's fence and the anchor
// flip recovers the old generation intact — same topics, same
// tombstones, same messages — and a completed flip survives crashes.
func TestCompactCatalogCrashBeforeFlip(t *testing.T) {
	hs := pmem.NewSetOf(pmem.New(pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 2}))
	b, err := Open(hs, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "a", Shards: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "b", Shards: 1}); err != nil {
		t.Fatal(err)
	}
	b.Topic("a").Publish(0, U64(51))
	if err := b.DeleteTopic(0, "b"); err != nil {
		t.Fatal(err)
	}

	testHookBeforeFlip = func() { hs.CrashNow() }
	crashed := pmem.Protect(func() { b.CompactCatalog(0, 0) })
	testHookBeforeFlip = nil
	if !crashed {
		t.Fatal("CompactCatalog survived a crash armed before the anchor flip")
	}
	hs.FinalizeCrash(rand.New(rand.NewSource(95)))
	hs.Restart()

	r, err := Open(hs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g := r.CatalogGeneration(); g != 0 {
		t.Fatalf("crash before the flip recovered generation %d, want 0 (the old one)", g)
	}
	if r.Topic("a") == nil || r.Topic("b") != nil {
		t.Fatal("old generation recovered with the wrong topic set")
	}
	if p, ok := r.Topic("a").DequeueShard(0, 0); !ok || AsU64(p) != 51 {
		t.Fatalf("message lost across the aborted compaction: %v,%v", p, ok)
	}
	r.Topic("a").Publish(0, U64(52))
	// The retried compaction commits; the new generation then survives
	// crashes and stays administrable.
	if err := r.CompactCatalog(0, 0); err != nil {
		t.Fatal(err)
	}
	if g := r.CatalogGeneration(); g != 1 {
		t.Fatalf("generation after compaction = %d, want 1", g)
	}
	hs.CrashNow()
	hs.FinalizeCrash(rand.New(rand.NewSource(96)))
	hs.Restart()
	r2, err := Open(hs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g := r2.CatalogGeneration(); g != 1 {
		t.Fatalf("recovered generation = %d, want 1", g)
	}
	if p, ok := r2.Topic("a").DequeueShard(0, 0); !ok || AsU64(p) != 52 {
		t.Fatalf("message lost across the committed compaction: %v,%v", p, ok)
	}
	if _, err := r2.CreateTopic(0, TopicConfig{Name: "c", Shards: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestCompactCatalogResize: compaction is the log-full escape hatch — a
// log that refused a create for want of space compacts into a larger
// generation and takes it, durably.
func TestCompactCatalogResize(t *testing.T) {
	hs := pmem.NewSetOf(pmem.New(pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 2}))
	// Room for exactly one 1-shard topic record (3 lines).
	b, err := Open(hs, Options{Threads: 2, CatalogLines: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "only", Shards: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "more", Shards: 1}); err == nil {
		t.Fatal("CreateTopic on a full log should fail")
	}
	if err := b.CompactCatalog(0, 2); err == nil {
		t.Fatal("resizing below the live record space should fail")
	}
	if err := b.CompactCatalog(0, 12); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "more", Shards: 1}); err != nil {
		t.Fatalf("CreateTopic after resize: %v", err)
	}
	b.Topic("more").Publish(0, U64(61))
	hs.CrashNow()
	hs.FinalizeCrash(rand.New(rand.NewSource(97)))
	hs.Restart()
	r, err := Open(hs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Topic("only") == nil || r.Topic("more") == nil {
		t.Fatal("resized catalog lost a topic")
	}
	if p, ok := r.Topic("more").DequeueShard(0, 0); !ok || AsU64(p) != 61 {
		t.Fatalf("post-resize message = %v,%v", p, ok)
	}
	// The adopted capacity persists: more creates fit.
	if _, err := r.CreateTopic(0, TopicConfig{Name: "third", Shards: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestErrLeaseCapacity pins the capacity-exceeded refusal as a typed,
// consistently phrased error on both binding paths: NewGroupAcked at
// construction and Subscribe afterwards.
func TestErrLeaseCapacity(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 3})
	b, err := Open(pmem.NewSetOf(h), Options{Threads: 3})
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
	clk := &logicalClock{}
	_, bindErr := b.NewGroupAcked([]string{"a", "late"}, 1, LeaseConfig{Region: tight, TTL: 10, Now: clk.Now})
	if !errors.Is(bindErr, ErrLeaseCapacity) {
		t.Fatalf("bind past capacity = %v, want ErrLeaseCapacity", bindErr)
	}
	g, err := b.NewGroupAcked([]string{"a"}, 1, LeaseConfig{Region: tight, TTL: 10, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	subErr := g.Subscribe(0, "late")
	if !errors.Is(subErr, ErrLeaseCapacity) {
		t.Fatalf("Subscribe past capacity = %v, want ErrLeaseCapacity", subErr)
	}
	// Both paths phrase the same condition identically, region index
	// included.
	want := fmt.Sprintf("exceeds lease region %d's capacity 2", tight)
	if !strings.Contains(bindErr.Error(), want) || !strings.Contains(subErr.Error(), want) {
		t.Fatalf("inconsistent capacity diagnostics:\n  bind:      %v\n  subscribe: %v", bindErr, subErr)
	}
}
