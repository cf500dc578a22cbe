package broker

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/pmem"
)

// legacyLayout replays the write-once builds' layout pass: every
// shard window dealt by the placement policy in creation order, then
// one anchor slot per lease region round-robin. The live-admin
// high-water allocator produces the same layout creation by creation;
// the legacy writers below need it up front.
func legacyLayout(hs *pmem.HeapSet, cfg Config) (locs [][]shardLoc, leaseLocs []shardLoc, err error) {
	policy := cfg.Placement
	if policy == nil {
		policy = RoundRobinPlacement
	}
	next := make([]int, hs.Len())
	for i := range next {
		next[i] = 1 // slot 0 is the anchor
	}
	locs = make([][]shardLoc, len(cfg.Topics))
	global := 0
	for ti, tc := range cfg.Topics {
		locs[ti] = make([]shardLoc, tc.Shards)
		for si := 0; si < tc.Shards; si++ {
			hi := policy(ti, si, global, tc.Shards, hs.Len())
			if hi < 0 || hi >= hs.Len() || next[hi]+slotsPerShard > hs.Heap(hi).RootSlots() {
				return nil, nil, fmt.Errorf("bad placement for topic %d shard %d", ti, si)
			}
			locs[ti][si] = shardLoc{heap: hi, base: next[hi]}
			next[hi] += slotsPerShard
			global++
		}
	}
	for g := 0; g < cfg.AckGroups; g++ {
		hi := g % hs.Len()
		leaseLocs = append(leaseLocs, shardLoc{heap: hi, base: next[hi]})
		next[hi]++
	}
	return locs, leaseLocs, nil
}

// writeCatalogV1 replays the legacy single-heap catalog writer
// verbatim (the "Broker1" layout documented in catalog.go): one header
// line, then one row per topic [slotBase, shards, maxPayload, nameLen,
// name 0..3]. Brokers written by pre-heap-set builds carry exactly
// this; the tests below pin that readCatalog still accepts it.
func writeCatalogV1(h *pmem.Heap, cfg Config) {
	const tid = 0
	bytes := int64((1 + len(cfg.Topics)) * pmem.CacheLineBytes)
	reg := h.AllocRaw(tid, bytes, pmem.CacheLineBytes)
	h.InitRange(tid, reg, bytes)

	h.Store(tid, reg, catMagic)
	h.Store(tid, reg+pmem.WordBytes, uint64(len(cfg.Topics)))
	h.Store(tid, reg+2*pmem.WordBytes, uint64(cfg.Threads))
	h.Flush(tid, reg)
	next := 1
	for i, tc := range cfg.Topics {
		row := reg + pmem.Addr((1+i)*pmem.CacheLineBytes)
		h.Store(tid, row, uint64(next))
		h.Store(tid, row+8, uint64(tc.Shards))
		h.Store(tid, row+16, uint64(tc.MaxPayload))
		h.Store(tid, row+24, uint64(len(tc.Name)))
		name := make([]byte, catNameBytes)
		copy(name, tc.Name)
		for w := 0; w < catNameBytes/pmem.WordBytes; w++ {
			var word uint64
			for b := 0; b < 8; b++ {
				word |= uint64(name[w*8+b]) << (8 * b)
			}
			h.Store(tid, row+pmem.Addr(32+w*8), word)
		}
		h.Flush(tid, row)
		next += tc.Shards * slotsPerShard
	}
	h.Fence(tid)

	h.Store(tid, h.RootAddr(slotAnchor), uint64(reg))
	h.Persist(tid, h.RootAddr(slotAnchor))
}

// seqBases assigns global shard ordinals sequentially in topic order,
// exactly as every pre-tombstone catalog version implies them.
func seqBases(topics []TopicConfig) (bases []int, next int) {
	for _, tc := range topics {
		bases = append(bases, next)
		next += tc.Shards
	}
	return bases, next
}

// createAsTid0 opens a legacy layout's shards the way the write-once
// constructors did: empty queues built by thread 0.
func createAsTid0(t *Topic, si int, view *pmem.Heap) error {
	t.createShard(si, view, 0)
	return nil
}

// newWithV1Catalog builds a broker exactly as a pre-heap-set binary
// did: shard queues at the deterministic sequential layout on one
// heap, then the v1 catalog.
func newWithV1Catalog(t *testing.T, h *pmem.Heap, cfg Config) *Broker {
	t.Helper()
	hs := pmem.NewSetOf(h)
	locs, _, err := legacyLayout(hs, cfg) // round-robin on 1 heap = v1 layout
	if err != nil {
		t.Fatal(err)
	}
	bases, next := seqBases(cfg.Topics)
	b, err := build(hs, cfg.Threads, cfg.Topics, locs, bases, next, createAsTid0)
	if err != nil {
		t.Fatal(err)
	}
	writeCatalogV1(h, cfg)
	return b
}

// writeCatalogV2 replays the pre-ack heap-set catalog writer verbatim
// (the "Broker2" layout documented in catalog.go): a v2 header without
// the ackGroups word, topic rows without the acked bit, shard
// placement words only. Brokers written by pre-lease builds carry
// exactly this.
func writeCatalogV2(hs *pmem.HeapSet, cfg Config, locs [][]shardLoc) {
	const tid = 0
	stamp := nextSetStamp()
	for i := 1; i < hs.Len(); i++ {
		h := hs.Heap(i)
		reg := h.AllocRaw(tid, pmem.CacheLineBytes, pmem.CacheLineBytes)
		h.InitRange(tid, reg, pmem.CacheLineBytes)
		h.Store(tid, reg, stampMagic)
		h.Store(tid, reg+8, stamp)
		h.Store(tid, reg+16, uint64(i))
		h.Store(tid, reg+24, uint64(hs.Len()))
		h.Persist(tid, reg)
		h.Store(tid, h.RootAddr(slotAnchor), uint64(reg))
		h.Persist(tid, h.RootAddr(slotAnchor))
	}
	h := hs.Heap(0)
	shardTotal := 0
	for _, tl := range locs {
		shardTotal += len(tl)
	}
	placeLines := (shardTotal + pmem.WordsPerLine - 1) / pmem.WordsPerLine
	bytes := int64(1+len(cfg.Topics)+placeLines) * pmem.CacheLineBytes
	reg := h.AllocRaw(tid, bytes, pmem.CacheLineBytes)
	h.InitRange(tid, reg, bytes)
	h.Store(tid, reg, catMagicV2)
	h.Store(tid, reg+8, uint64(len(cfg.Topics)))
	h.Store(tid, reg+16, uint64(cfg.Threads))
	h.Store(tid, reg+24, uint64(hs.Len()))
	h.Store(tid, reg+32, stamp)
	h.Store(tid, reg+40, uint64(shardTotal))
	h.Flush(tid, reg)
	place := 0
	for i, tc := range cfg.Topics {
		row := reg + pmem.Addr((1+i)*pmem.CacheLineBytes)
		h.Store(tid, row, uint64(tc.Shards))
		h.Store(tid, row+8, uint64(tc.MaxPayload))
		h.Store(tid, row+16, uint64(len(tc.Name)))
		h.Store(tid, row+24, uint64(place))
		name := make([]byte, catNameBytes)
		copy(name, tc.Name)
		for w := 0; w < catNameBytes/pmem.WordBytes; w++ {
			var word uint64
			for b := 0; b < 8; b++ {
				word |= uint64(name[w*8+b]) << (8 * b)
			}
			h.Store(tid, row+pmem.Addr(32+w*8), word)
		}
		h.Flush(tid, row)
		place += tc.Shards
	}
	placeBase := reg + pmem.Addr((1+len(cfg.Topics))*pmem.CacheLineBytes)
	j := 0
	for _, tl := range locs {
		for _, loc := range tl {
			h.Store(tid, placeBase+pmem.Addr(j*pmem.WordBytes), packLoc(loc))
			j++
		}
	}
	for l := 0; l < placeLines; l++ {
		h.Flush(tid, placeBase+pmem.Addr(l*pmem.CacheLineBytes))
	}
	h.Fence(tid)
	h.Store(tid, h.RootAddr(slotAnchor), uint64(reg))
	h.Persist(tid, h.RootAddr(slotAnchor))
}

// TestCatalogV2Recover: a broker persisted with the legacy (pre-ack)
// heap-set catalog must still recover on a matching set — lease-free:
// no topic acked, no lease regions — with payloads intact on every
// member heap.
func TestCatalogV2Recover(t *testing.T) {
	cfg := pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4}
	hs := pmem.NewSet(2, cfg)
	bcfg := Config{Topics: twoTopics(), Threads: 2}
	locs, leaseLocs, err := legacyLayout(hs, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(leaseLocs) != 0 {
		t.Fatalf("lease-free layout allocated %d lease regions", len(leaseLocs))
	}
	bases, next := seqBases(bcfg.Topics)
	b, err := build(hs, bcfg.Threads, bcfg.Topics, locs, bases, next, createAsTid0)
	if err != nil {
		t.Fatal(err)
	}
	writeCatalogV2(hs, bcfg, locs)
	b.Topic("events").Publish(0, U64(77))
	b.Topic("jobs").Publish(0, blobPayload(8))
	hs.CrashNow()
	hs.FinalizeCrash(rand.New(rand.NewSource(12)))
	hs.Restart()

	r, err := RecoverSet(hs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.AckGroups() != 0 {
		t.Fatalf("v2 recovery produced %d lease regions, want 0", r.AckGroups())
	}
	for _, topic := range r.Topics() {
		if topic.Acked() {
			t.Fatalf("v2 recovery marked topic %q acked", topic.Name())
		}
	}
	if _, err := r.NewGroupAcked([]string{"events"}, 1, LeaseConfig{}); err == nil {
		t.Fatal("NewGroupAcked on a v2 (lease-free) broker should fail")
	}
	if p, ok := r.Topic("events").DequeueShard(0, 0); !ok || AsU64(p) != 77 {
		t.Fatalf("recovered v2 event = %v,%v", p, ok)
	}
	found := false
	for s := 0; s < r.Topic("jobs").Shards(); s++ {
		if p, ok := r.Topic("jobs").DequeueShard(0, s); ok {
			if AsU64(p[:8]) != 8 {
				t.Fatal("recovered v2 job corrupted")
			}
			found = true
		}
	}
	if !found {
		t.Fatal("v2 job lost across recovery")
	}
}

// writeCatalogV3 replays the pre-log (write-once) heap-set catalog
// writer verbatim: the "Broker3" layout documented in catalog.go —
// v2 plus the ackGroups header word, the acked bit in topic rows and
// the lease placements after the shard placements. Brokers written by
// pre-live-admin builds carry exactly this; with the v4 log those
// builds are legacy and TestCatalogV3Recover pins that they stay
// recoverable.
func writeCatalogV3(hs *pmem.HeapSet, cfg Config, locs [][]shardLoc, leaseLocs []shardLoc) {
	const tid = 0
	stamp := nextSetStamp()
	for i := 1; i < hs.Len(); i++ {
		h := hs.Heap(i)
		reg := h.AllocRaw(tid, pmem.CacheLineBytes, pmem.CacheLineBytes)
		h.InitRange(tid, reg, pmem.CacheLineBytes)
		h.Store(tid, reg, stampMagic)
		h.Store(tid, reg+8, stamp)
		h.Store(tid, reg+16, uint64(i))
		h.Store(tid, reg+24, uint64(hs.Len()))
		h.Persist(tid, reg)
		h.Store(tid, h.RootAddr(slotAnchor), uint64(reg))
		h.Persist(tid, h.RootAddr(slotAnchor))
	}
	h := hs.Heap(0)
	shardTotal := 0
	for _, tl := range locs {
		shardTotal += len(tl)
	}
	placeWords := shardTotal + len(leaseLocs)
	placeLines := (placeWords + pmem.WordsPerLine - 1) / pmem.WordsPerLine
	bytes := int64(1+len(cfg.Topics)+placeLines) * pmem.CacheLineBytes
	reg := h.AllocRaw(tid, bytes, pmem.CacheLineBytes)
	h.InitRange(tid, reg, bytes)

	h.Store(tid, reg, catMagicV3)
	h.Store(tid, reg+8, uint64(len(cfg.Topics)))
	h.Store(tid, reg+16, uint64(cfg.Threads))
	h.Store(tid, reg+24, uint64(hs.Len()))
	h.Store(tid, reg+32, stamp)
	h.Store(tid, reg+40, uint64(shardTotal))
	h.Store(tid, reg+48, uint64(len(leaseLocs)))
	h.Flush(tid, reg)
	place := 0
	for i, tc := range cfg.Topics {
		row := reg + pmem.Addr((1+i)*pmem.CacheLineBytes)
		payloadWord := uint64(tc.MaxPayload)
		if tc.Acked {
			payloadWord |= catAckedBit
		}
		h.Store(tid, row, uint64(tc.Shards))
		h.Store(tid, row+8, payloadWord)
		h.Store(tid, row+16, uint64(len(tc.Name)))
		h.Store(tid, row+24, uint64(place))
		name := make([]byte, catNameBytes)
		copy(name, tc.Name)
		for w := 0; w < catNameBytes/pmem.WordBytes; w++ {
			var word uint64
			for b := 0; b < 8; b++ {
				word |= uint64(name[w*8+b]) << (8 * b)
			}
			h.Store(tid, row+pmem.Addr(32+w*8), word)
		}
		h.Flush(tid, row)
		place += tc.Shards
	}
	placeBase := reg + pmem.Addr((1+len(cfg.Topics))*pmem.CacheLineBytes)
	j := 0
	for _, tl := range locs {
		for _, loc := range tl {
			h.Store(tid, placeBase+pmem.Addr(j*pmem.WordBytes), packLoc(loc))
			j++
		}
	}
	for _, loc := range leaseLocs {
		h.Store(tid, placeBase+pmem.Addr(j*pmem.WordBytes), packLoc(loc))
		j++
	}
	for l := 0; l < placeLines; l++ {
		h.Flush(tid, placeBase+pmem.Addr(l*pmem.CacheLineBytes))
	}
	h.Fence(tid) // catalog body durable before the anchor names it

	h.Store(tid, h.RootAddr(slotAnchor), uint64(reg))
	h.Persist(tid, h.RootAddr(slotAnchor))
}

// TestCatalogV3Recover: a broker persisted with the write-once v3
// catalog — acked topics, pre-allocated lease regions — must still
// recover on a matching set: acked bits intact, lease regions
// re-bound (sized to the v3 shard total), acked messages never
// redelivered, in-flight ones exactly once. Administration is
// refused: a v3 catalog has no log to append to.
func TestCatalogV3Recover(t *testing.T) {
	cfg := pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4}
	hs := pmem.NewSet(2, cfg)
	bcfg := Config{Topics: twoAckedTopics(), Threads: 2, AckGroups: 1}
	locs, leaseLocs, err := legacyLayout(hs, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(leaseLocs) != 1 {
		t.Fatalf("layout allocated %d lease regions, want 1", len(leaseLocs))
	}
	bases, next := seqBases(bcfg.Topics)
	b, err := build(hs, bcfg.Threads, bcfg.Topics, locs, bases, next, createAsTid0)
	if err != nil {
		t.Fatal(err)
	}
	shardTotal := b.ShardTotal()
	for g, loc := range leaseLocs {
		b.regions = append(b.regions,
			initLeaseRegion(hs.Heap(loc.heap), 0, loc.heap, loc.base, g, shardTotal))
	}
	b.bound = make([]bool, len(b.regions))
	writeCatalogV3(hs, bcfg, locs, leaseLocs)

	clk := &logicalClock{}
	g, err := b.NewGroupAcked([]string{"events", "jobs"}, 1, LeaseConfig{TTL: 10, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	for i := uint64(1); i <= n; i++ {
		b.Topic("events").Publish(0, U64(i))
		b.Topic("jobs").Publish(0, blobPayload(n+i))
	}
	c := g.Consumer(0)
	ackedIDs := map[uint64]bool{}
	for _, m := range c.PollBatch(1, 20) {
		ackedIDs[AsU64(m.Payload[:8])] = true
	}
	c.Ack(1)
	inflight := map[uint64]bool{}
	for _, m := range c.PollBatch(1, 10) {
		inflight[AsU64(m.Payload[:8])] = true
	}
	// No ack for the second window: the crash hits with it in flight.
	hs.CrashNow()
	hs.FinalizeCrash(rand.New(rand.NewSource(61)))
	hs.Restart()

	r, err := RecoverSet(hs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.AckGroups() != 1 {
		t.Fatalf("v3 recovery produced %d lease regions, want 1", r.AckGroups())
	}
	for _, topic := range r.Topics() {
		if !topic.Acked() {
			t.Fatalf("v3 recovery dropped the acked bit of topic %q", topic.Name())
		}
	}
	// A v3 catalog is write-once: live administration must refuse.
	if _, err := r.CreateTopic(0, TopicConfig{Name: "late", Shards: 1}); err == nil {
		t.Fatal("CreateTopic on a v3 (write-once) catalog should fail")
	}
	if _, err := r.CreateAckGroup(0, AckGroupConfig{}); err == nil {
		t.Fatal("CreateAckGroup on a v3 (write-once) catalog should fail")
	}
	clk2 := &logicalClock{}
	g2, err := r.NewGroupAcked([]string{"events", "jobs"}, 1, LeaseConfig{TTL: 10, Now: clk2.Now})
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.RecoveredLeases()) == 0 {
		t.Fatal("no lease records recovered despite an in-flight window at the crash")
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
				t.Fatalf("message %d corrupted across v3 recovery", id)
			}
			seen[id]++
		}
		c2.Ack(1)
	}
	for id := range ackedIDs {
		if seen[id] > 0 {
			t.Fatalf("acked message %d redelivered after v3 recovery", id)
		}
	}
	for id := range inflight {
		if seen[id] != 1 {
			t.Fatalf("in-flight message %d redelivered %d times, want exactly 1", id, seen[id])
		}
	}
	if total := len(ackedIDs) + len(seen); total != 2*n {
		t.Fatalf("processed %d distinct messages, want %d", total, 2*n)
	}
}

// TestCatalogV1Recover: a broker persisted with the legacy single-heap
// catalog must still recover on a 1-heap set, payloads intact — and
// must be rejected on a multi-heap set rather than guessed at.
func TestCatalogV1Recover(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4})
	b := newWithV1Catalog(t, h, Config{Topics: twoTopics(), Threads: 2})
	b.Topic("events").Publish(0, U64(41))
	b.Topic("jobs").Publish(0, blobPayload(9))
	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(11)))
	h.Restart()

	other := pmem.New(pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4})
	if _, err := RecoverSet(pmem.NewSetOf(h, other), 2); err == nil {
		t.Fatal("v1 catalog on a 2-heap set should be rejected")
	}

	r, err := Recover(h, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range twoTopics() {
		got := r.Topics()[i]
		if got.Name() != tc.Name || got.Shards() != tc.Shards || got.HeapOf(0) != 0 {
			t.Fatalf("recovered topic %d = %s/%d on heap %d, want %s/%d on heap 0",
				i, got.Name(), got.Shards(), got.HeapOf(0), tc.Name, tc.Shards)
		}
	}
	if p, ok := r.Topic("events").DequeueShard(0, 0); !ok || AsU64(p) != 41 {
		t.Fatalf("recovered v1 event = %v,%v", p, ok)
	}
	found := false
	for s := 0; s < r.Topic("jobs").Shards(); s++ {
		if p, ok := r.Topic("jobs").DequeueShard(0, s); ok {
			if AsU64(p[:8]) != 9 {
				t.Fatal("recovered v1 job corrupted")
			}
			found = true
		}
	}
	if !found {
		t.Fatal("v1 job lost across recovery")
	}
}

// TestCatalogCorruptionErrors: a corrupted or truncated catalog log
// must surface as an error from Recover, never a panic deep in the
// simulator. The broker under test writes the v4 log; offsets target
// its layout (header line, commit line, allocator line, records).
func TestCatalogCorruptionErrors(t *testing.T) {
	newCrashed := func(t *testing.T) *pmem.Heap {
		h := pmem.New(pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4})
		b, err := New(h, Config{Topics: twoTopics(), Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		b.Topic("events").Publish(0, U64(1))
		h.CrashNow()
		h.FinalizeCrash(rand.New(rand.NewSource(3)))
		h.Restart()
		return h
	}
	expectErr := func(t *testing.T, h *pmem.Heap, what string) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: Recover panicked: %v", what, r)
			}
		}()
		if _, err := Recover(h, 2); err == nil {
			t.Fatalf("%s: Recover succeeded on a corrupted catalog", what)
		}
	}
	// On a 1-heap set the log is header (line 0), commit (line 1), one
	// allocator line (line 2), then the records from line 3.
	const recLine = logHeaderLines + 1

	t.Run("bad magic", func(t *testing.T) {
		h := newCrashed(t)
		reg := pmem.Addr(h.Load(0, h.RootAddr(slotAnchor)))
		h.Store(0, reg, 0xdead)
		expectErr(t, h, "bad magic")
	})
	t.Run("header field corrupted", func(t *testing.T) {
		// Any flipped header word — here the thread bound — must fail
		// the header checksum.
		h := newCrashed(t)
		reg := pmem.Addr(h.Load(0, h.RootAddr(slotAnchor)))
		h.Store(0, reg+16, 1<<40)
		expectErr(t, h, "header field")
	})
	t.Run("absurd commit count", func(t *testing.T) {
		h := newCrashed(t)
		reg := pmem.Addr(h.Load(0, h.RootAddr(slotAnchor)))
		h.Store(0, reg+pmem.CacheLineBytes, 1<<40)
		expectErr(t, h, "absurd commit count")
	})
	t.Run("commit count past the written tail", func(t *testing.T) {
		// A commit word claiming one more record than was ever appended
		// points replay at virgin lines, which fail record validation.
		h := newCrashed(t)
		reg := pmem.Addr(h.Load(0, h.RootAddr(slotAnchor)))
		h.Store(0, reg+pmem.CacheLineBytes, h.Load(0, reg+pmem.CacheLineBytes)+1)
		expectErr(t, h, "commit past tail")
	})
	t.Run("committed record corrupted", func(t *testing.T) {
		// Flipping any word of a committed record — here topic 0's shard
		// count — must fail the record checksum.
		h := newCrashed(t)
		reg := pmem.Addr(h.Load(0, h.RootAddr(slotAnchor)))
		h.Store(0, reg+recLine*pmem.CacheLineBytes+16, 1)
		expectErr(t, h, "committed record")
	})
	t.Run("placement out of range", func(t *testing.T) {
		// Rewrite topic 0's first placement word to heap 7 of a 1-heap
		// set WITH a recomputed checksum: the record validates, so the
		// layer that must catch it is placement validation.
		h := newCrashed(t)
		reg := pmem.Addr(h.Load(0, h.RootAddr(slotAnchor)))
		hdrA := reg + recLine*pmem.CacheLineBytes
		placeA := hdrA + 2*pmem.CacheLineBytes // header, name line, placements
		h.Store(0, placeA, packLoc(shardLoc{heap: 7, base: 1}))
		var sum []uint64
		for w := 0; w < 7; w++ {
			sum = append(sum, h.Load(0, hdrA+pmem.Addr(w*8)))
		}
		for l := 1; l <= 2; l++ {
			for w := 0; w < 8; w++ {
				sum = append(sum, h.Load(0, hdrA+pmem.Addr(l*pmem.CacheLineBytes+w*8)))
			}
		}
		h.Store(0, hdrA+7*pmem.WordBytes, catChecksum(sum))
		expectErr(t, h, "placement heap")
	})
	t.Run("high-water mark lags committed windows", func(t *testing.T) {
		// An allocator mark below what the committed records claim means
		// the log and the allocator disagree: corruption, not debris.
		h := newCrashed(t)
		reg := pmem.Addr(h.Load(0, h.RootAddr(slotAnchor)))
		h.Store(0, reg+logHeaderLines*pmem.CacheLineBytes, 1)
		expectErr(t, h, "lagging mark")
	})
	t.Run("anchor near uint64 wraparound", func(t *testing.T) {
		// A corrupt anchor in [2^64-8, 2^64) must hit the truncation
		// error, not wrap past the bounds check into an index panic.
		h := newCrashed(t)
		h.Store(0, h.RootAddr(slotAnchor), ^uint64(0)-3)
		expectErr(t, h, "wraparound anchor")
	})
	t.Run("short legacy catalog near heap end", func(t *testing.T) {
		h := newCrashed(t)
		// Re-anchor to a v2 header on the last line of the heap: the
		// header reads but every row is out of bounds; the reader must
		// return a truncation error instead of indexing past the arena.
		tail := pmem.Addr(h.Bytes()) - pmem.CacheLineBytes
		h.Store(0, tail, catMagicV2)
		h.Store(0, tail+8, 2)  // topicCount
		h.Store(0, tail+16, 2) // threads
		h.Store(0, tail+24, 1) // heapCount
		h.Store(0, tail+32, 1) // stamp
		h.Store(0, tail+40, 8) // shardTotal
		h.Store(0, h.RootAddr(slotAnchor), uint64(tail))
		expectErr(t, h, "short catalog")
		_, err := readCatalog(pmem.NewSetOf(h))
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("want truncation error, got %v", err)
		}
	})
	t.Run("short v4 log near heap end", func(t *testing.T) {
		h := newCrashed(t)
		// A validly checksummed v4 header whose body runs off the heap:
		// the commit-line read must hit the truncation error.
		tail := pmem.Addr(h.Bytes()) - pmem.CacheLineBytes
		hdr := []uint64{catMagicV4, 2, 1, 1, 1024, 1, 0}
		for i, w := range hdr {
			h.Store(0, tail+pmem.Addr(i*8), w)
		}
		h.Store(0, tail+7*pmem.WordBytes, catChecksum(hdr))
		h.Store(0, h.RootAddr(slotAnchor), uint64(tail))
		expectErr(t, h, "short v4 log")
	})
}
