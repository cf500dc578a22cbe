package broker

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dheap"
	"repro/internal/pmem"
)

// heapTestBroker opens a fresh one-heap broker with one topic of each
// kind: "fifo" (2 shards), "delay" and "prio" (1 shard each,
// 24-byte payloads so a dheap entry is a single cache line).
func heapTestBroker(t *testing.T, threads int) (*pmem.HeapSet, *Broker) {
	t.Helper()
	hs := pmem.NewSet(1, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: threads})
	b, err := Open(hs, Options{Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []TopicConfig{
		{Name: "fifo", Shards: 2, MaxPayload: 24},
		{Name: "delay", Shards: 1, MaxPayload: 24, Kind: KindDelay},
		{Name: "prio", Shards: 1, MaxPayload: 24, Kind: KindPriority},
	} {
		if _, err := b.CreateTopic(0, tc); err != nil {
			t.Fatalf("create %q: %v", tc.Name, err)
		}
	}
	return hs, b
}

// heapPayload is the 24-byte audit payload of the heap-topic tests:
// id, key, and an integrity word binding the two.
func heapPayload(id, key uint64) []byte {
	p := make([]byte, 24)
	copy(p, U64(id))
	copy(p[8:], U64(key))
	copy(p[16:], U64(id^key^0xd11a))
	return p
}

func decodeHeapPayload(t *testing.T, p []byte) (id, key uint64) {
	t.Helper()
	if len(p) != 24 {
		t.Fatalf("heap payload length %d, want 24", len(p))
	}
	id, key = AsU64(p[:8]), AsU64(p[8:16])
	if AsU64(p[16:]) != id^key^0xd11a {
		t.Fatalf("heap payload for %#x corrupted", id)
	}
	return id, key
}

// TestHeapTopicKindMismatch pins the typed-refusal contract in both
// directions: every FIFO verb refuses a heap topic and every heap verb
// refuses a FIFO topic with an error satisfying
// errors.Is(err, ErrWrongTopicKind), in the uniform diagnostic shape.
func TestHeapTopicKindMismatch(t *testing.T) {
	_, b := heapTestBroker(t, 2)
	fifo, delay, prio := b.Topic("fifo"), b.Topic("delay"), b.Topic("prio")
	p := heapPayload(1, 1)

	wantKindErr := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrWrongTopicKind) {
			t.Fatalf("%s: got %v, want ErrWrongTopicKind", what, err)
		}
		msg := err.Error()
		if !strings.Contains(msg, "on topic") || !strings.Contains(msg, "want a") {
			t.Fatalf("%s: diagnostic %q misses the uniform shape", what, msg)
		}
	}

	// FIFO verbs on heap topics.
	wantKindErr("Publish/delay", delay.Publish(0, p))
	wantKindErr("PublishKey/delay", delay.PublishKey(0, U64(1), p))
	wantKindErr("PublishBatch/prio", prio.PublishBatch(0, [][]byte{p}))
	_, err := b.NewGroup([]string{"fifo", "delay"}, 1)
	wantKindErr("NewGroup/delay", err)
	if _, ok := delay.DequeueShard(0, 0); ok {
		t.Fatal("DequeueShard delivered from a delay topic")
	}

	// Heap verbs on FIFO (and cross-heap-kind) topics.
	wantKindErr("PublishAt/fifo", fifo.PublishAt(0, p, 1))
	wantKindErr("PublishAt/prio", prio.PublishAt(0, p, 1))
	wantKindErr("PublishPriority/fifo", fifo.PublishPriority(0, p, 1))
	wantKindErr("PublishPriority/delay", delay.PublishPriority(0, p, 1))
	_, _, err = fifo.DequeueReady(0, 1)
	wantKindErr("DequeueReady/fifo", err)
	_, err = fifo.DequeueReadyBatch(0, 1, 8)
	wantKindErr("DequeueReadyBatch/fifo", err)
	// Both heap kinds accept this verb, so the refusal names both.
	if !strings.Contains(err.Error(), "want a delay or priority topic") {
		t.Fatalf("DequeueReadyBatch/fifo diagnostic %q does not name both heap kinds", err)
	}

	// Config validation: heap kinds are single-shard, never acked.
	if _, err := b.CreateTopic(0, TopicConfig{Name: "bad", Kind: KindDelay, Shards: 2}); err == nil {
		t.Fatal("multi-shard delay topic accepted")
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "bad", Kind: KindPriority, Shards: 1, Acked: true}); err == nil {
		t.Fatal("acked priority topic accepted")
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "bad", Kind: TopicKind(7), Shards: 1}); err == nil {
		t.Fatal("unknown topic kind accepted")
	}

	// Heap-topic deletion is a documented follow-on, refused typed-ly.
	if err := b.DeleteTopic(0, "delay"); !errors.Is(err, errors.ErrUnsupported) {
		t.Fatalf("DeleteTopic on a delay topic: %v", err)
	}

	// Pool exhaustion surfaces dheap.ErrFull through the wrap, once a
	// lone publisher fills the whole pool: Threads × 1024 entries.
	var fullErr error
	for i := uint64(0); i < 4096 && fullErr == nil; i++ {
		fullErr = delay.PublishAt(1, heapPayload(i, 1), 1)
	}
	if !errors.Is(fullErr, dheap.ErrFull) {
		t.Fatalf("pool exhaustion: got %v, want dheap.ErrFull", fullErr)
	}
	if n := delay.heapq.Depth(); n != 2*1024 {
		t.Fatalf("the pool refused its publisher at %d entries, want 2048", n)
	}
}

// TestHeapTopicDelayPriority pins the delivery semantics: a delay
// topic gates on deadline <= now and delivers in deadline order
// (equal deadlines in publish order); a priority topic is always
// ready and delivers lowest rank first; a re-publish at now+delay
// reschedules.
func TestHeapTopicDelayPriority(t *testing.T) {
	_, b := heapTestBroker(t, 2)
	delay, prio := b.Topic("delay"), b.Topic("prio")

	// ids 1..4 at deadlines 50, 10, 30, 10: delivery 2, 4, 3, 1.
	deadlines := []uint64{50, 10, 30, 10}
	for i, d := range deadlines {
		if err := delay.PublishAt(0, heapPayload(uint64(i+1), d), d); err != nil {
			t.Fatal(err)
		}
	}
	if d := delay.heapq.Depth(); d != 4 {
		t.Fatalf("heap depth %d, want 4", d)
	}
	if k, ok := delay.MinKey(); !ok || k != 10 {
		t.Fatalf("MinKey %d,%v, want 10,true", k, ok)
	}
	if _, ok, err := delay.DequeueReady(0, 9); err != nil || ok {
		t.Fatalf("DequeueReady(9) delivered early: %v %v", ok, err)
	}
	var order []uint64
	for _, now := range []uint64{10, 10, 30, 50} {
		p, ok, err := delay.DequeueReady(0, now)
		if err != nil || !ok {
			t.Fatalf("DequeueReady(%d): %v %v", now, ok, err)
		}
		id, key := decodeHeapPayload(t, p)
		if key > now {
			t.Fatalf("message %d with deadline %d delivered at now=%d", id, key, now)
		}
		order = append(order, id)
	}
	if fmt.Sprint(order) != "[2 4 3 1]" {
		t.Fatalf("delay delivery order %v, want [2 4 3 1]", order)
	}
	if _, ok, _ := delay.DequeueReady(0, ^uint64(0)); ok {
		t.Fatal("drained delay topic still delivers")
	}

	// Retry with backoff: a consumed message re-published at now+delay
	// waits out the delay.
	if err := delay.PublishAt(0, heapPayload(9, 100), 100); err != nil {
		t.Fatal(err)
	}
	p, _, _ := delay.DequeueReady(0, 100)
	if err := delay.PublishAt(0, p, 100+40); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := delay.DequeueReady(0, 139); ok {
		t.Fatal("retried message redelivered before its backoff deadline")
	}
	if p, ok, _ := delay.DequeueReady(0, 140); !ok {
		t.Fatal("retried message never redelivered")
	} else if id, _ := decodeHeapPayload(t, p); id != 9 {
		t.Fatalf("retry redelivered id %d, want 9", id)
	}

	// The largest deadline is ready only at the largest instant.
	if err := delay.PublishAt(0, heapPayload(11, 0), ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := delay.DequeueReady(0, ^uint64(0)-1); ok {
		t.Fatal("max-deadline message delivered early")
	}
	if p, ok, _ := delay.DequeueReady(0, ^uint64(0)); !ok {
		t.Fatal("max-deadline message never deliverable")
	} else if id, _ := decodeHeapPayload(t, p); id != 11 {
		t.Fatalf("max-deadline message delivered id %d, want 11", id)
	}

	// Priority: shuffled ranks come out sorted, equal ranks FIFO.
	ranks := []uint64{7, 3, 9, 3, 1}
	var batch [][]byte
	var keys []uint64
	for i, r := range ranks {
		batch = append(batch, heapPayload(uint64(i+1), r))
		keys = append(keys, r)
	}
	if err := prio.PublishPriorityBatch(1, batch, keys); err != nil {
		t.Fatal(err)
	}
	got, err := prio.DequeueReadyBatch(1, 0, 16) // now is ignored on priority topics
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	lastKey := uint64(0)
	for _, p := range got {
		id, key := decodeHeapPayload(t, p)
		if key < lastKey {
			t.Fatalf("priority order violated: rank %d after %d", key, lastKey)
		}
		lastKey = key
		ids = append(ids, id)
	}
	if fmt.Sprint(ids) != "[5 2 4 1 3]" {
		t.Fatalf("priority delivery order %v, want [5 2 4 1 3]", ids)
	}
}

// TestHeapTopicRecovery crashes a broker holding undelivered delay and
// priority backlogs and checks the recovered topics: kinds and gating
// intact, exactly the undelivered messages back, delivered ones gone,
// and the seq counter resumed (a new equal-key publish delivers after
// every recovered equal-key message, not before).
func TestHeapTopicRecovery(t *testing.T) {
	hs, b := heapTestBroker(t, 2)
	delay, prio := b.Topic("delay"), b.Topic("prio")

	live := map[uint64]uint64{} // id -> key
	for i := uint64(1); i <= 40; i++ {
		key := i % 7 // several messages per deadline: the seq tiebreak matters
		if err := delay.PublishAt(0, heapPayload(i, key), key); err != nil {
			t.Fatal(err)
		}
		live[i] = key
	}
	for i := uint64(100); i < 120; i++ {
		key := i % 5
		if err := prio.PublishPriority(1, heapPayload(i, key), key); err != nil {
			t.Fatal(err)
		}
		live[i] = key
	}
	// Deliver some of each before the crash; delivered must not return.
	for _, p := range func() [][]byte {
		ps, _ := delay.DequeueReadyBatch(1, 3, 10)
		return ps
	}() {
		id, _ := decodeHeapPayload(t, p)
		delete(live, id)
	}
	for _, p := range func() [][]byte {
		ps, _ := prio.DequeueReadyBatch(0, 0, 5)
		return ps
	}() {
		id, _ := decodeHeapPayload(t, p)
		delete(live, id)
	}

	hs.CrashNow()
	hs.FinalizeCrash(rand.New(rand.NewSource(41)))
	hs.Restart()
	r, err := Open(hs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rd, rp := r.Topic("delay"), r.Topic("prio")
	if rd.Kind() != KindDelay || rp.Kind() != KindPriority {
		t.Fatalf("recovered kinds %s/%s", rd.Kind(), rp.Kind())
	}

	// Gating survives: nothing with deadline > 0 is ready at now=0.
	if ps, _ := rd.DequeueReadyBatch(0, 0, 100); len(ps) != len(func() []uint64 {
		var zero []uint64
		for id, k := range live {
			if id < 100 && k == 0 {
				zero = append(zero, id)
			}
		}
		return zero
	}()) {
		t.Fatalf("DequeueReady(0) after recovery delivered %d messages", len(ps))
	} else {
		for _, p := range ps {
			id, _ := decodeHeapPayload(t, p)
			delete(live, id)
		}
	}

	// Seq continuity: a fresh key-1 publish must deliver after every
	// recovered key-1 message.
	if err := rd.PublishAt(0, heapPayload(999, 1), 1); err != nil {
		t.Fatal(err)
	}
	live[999] = 1

	drain := func(tp *Topic, tid int) {
		lastKey := uint64(0)
		sawFresh := false
		for {
			p, ok, err := tp.DequeueReady(tid, ^uint64(0))
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			id, key := decodeHeapPayload(t, p)
			if key < lastKey {
				t.Fatalf("%s recovered out of order: key %d after %d", tp.Name(), key, lastKey)
			}
			lastKey = key
			if id == 999 {
				sawFresh = true
			} else if key == 1 && id < 100 && sawFresh {
				t.Fatalf("post-recovery publish delivered before recovered key-1 message %d", id)
			}
			if _, ok := live[id]; !ok {
				t.Fatalf("%s resurrected or duplicated message %#x", tp.Name(), id)
			}
			delete(live, id)
		}
	}
	drain(rd, 0)
	drain(rp, 1)
	if len(live) != 0 {
		t.Fatalf("%d undelivered messages lost in recovery: %v", len(live), live)
	}
}

// TestHeapWindowSplitReuse covers both ways the slot allocator's best
// fit reuses freed slots: a whole retired width-8 FIFO window serving
// a new FIFO topic, and width-1 heap windows carved out of another,
// plus the replay side — recovery claims the same windows and rebuilds
// the identical slot table.
func TestHeapWindowSplitReuse(t *testing.T) {
	hs := pmem.NewSet(1, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 2})
	b, err := Open(hs, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// "top" stays live, so the windows a and b retire are a gap below it.
	held := map[string]shardLoc{}
	for _, name := range []string{"a", "b", "top"} {
		tp, err := b.CreateTopic(0, TopicConfig{Name: name, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		held[name] = tp.locs[0]
	}
	used0, _ := b.SlotFootprint()
	for _, name := range []string{"a", "b"} {
		if err := b.DeleteTopic(0, name); err != nil {
			t.Fatal(err)
		}
	}
	if used, free := b.SlotFootprint(); used != used0 || free != 2*slotsPerShard {
		t.Fatalf("after retiring two FIFO topics below a live one: (used %d, free %d), want (used %d, free %d)",
			used, free, used0, 2*slotsPerShard)
	}

	// Exact fit: a same-width FIFO topic takes a's whole window.
	c, err := b.CreateTopic(0, TopicConfig{Name: "c", Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.locs[0] != held["a"] {
		t.Fatalf("exact-fit create took window %v, want a's %v", c.locs[0], held["a"])
	}
	c.Publish(0, U64(7))

	// Split: width-1 heap windows carved, lowest first, out of b's
	// window, with no slot claimed past the live top.
	kinds := []TopicKind{KindDelay, KindPriority, KindDelay, KindPriority}
	for i, k := range kinds {
		tp, err := b.CreateTopic(0, TopicConfig{
			Name: fmt.Sprintf("h%d", i), Shards: 1, MaxPayload: 24, Kind: k,
		})
		if err != nil {
			t.Fatalf("heap topic %d: %v", i, err)
		}
		if want := (shardLoc{heap: 0, base: held["b"].base + i*heapTopicSlots}); tp.locs[0] != want {
			t.Fatalf("heap topic %d took window %v, want %v inside b's %v", i, tp.locs[0], want, held["b"])
		}
		if used, _ := b.SlotFootprint(); used != used0 {
			t.Fatalf("heap topic %d moved the used slots %d -> %d", i, used0, used)
		}
	}
	for i := range kinds {
		tp := b.Topic(fmt.Sprintf("h%d", i))
		if err := tp.PublishAt(0, heapPayload(uint64(i), 5), 5); err != nil {
			if !errors.Is(err, ErrWrongTopicKind) {
				t.Fatal(err)
			}
			if err := tp.PublishPriority(0, heapPayload(uint64(i), 5), 5); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Replay rebuilds the same table through the nested sub-range
	// claims, and every topic's content survives.
	table, wins := slotTable(b), topicWindows(b)
	hs.CrashNow()
	hs.FinalizeCrash(rand.New(rand.NewSource(57)))
	hs.Restart()
	r, err := Open(hs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := slotTable(r); got != table {
		t.Fatalf("recovered slot table %s, want %s", got, table)
	}
	if got := topicWindows(r); got != wins {
		t.Fatalf("recovered topic windows %s, want %s", got, wins)
	}
	if p, ok := r.Topic("c").DequeueShard(0, 0); !ok || AsU64(p) != 7 {
		t.Fatalf("FIFO message lost: %v,%v", p, ok)
	}
	for i := range kinds {
		tp := r.Topic(fmt.Sprintf("h%d", i))
		p, ok, err := tp.DequeueReady(0, ^uint64(0))
		if err != nil || !ok {
			t.Fatalf("heap topic %d lost its message: %v %v", i, ok, err)
		}
		if id, _ := decodeHeapPayload(t, p); id != uint64(i) {
			t.Fatalf("heap topic %d delivered id %d", i, id)
		}
	}
}

// delayRound builds a delay topic holding 512 resident 8-byte messages
// (the benchmark's heap-delay shape) and returns one steady-state
// round: PublishAtBatch(8) on tid 0 at the next eight deadlines, then
// DequeueReadyBatch(8) on tid 1 of the eight oldest.
func delayRound(tb testing.TB, lat pmem.LatencyModel) func() {
	tb.Helper()
	const batch, resident = 8, 512
	hs := pmem.NewSet(1, pmem.Config{Bytes: 64 << 20, MaxThreads: 2, Latency: lat})
	b, err := Open(hs, Options{Threads: 2})
	if err != nil {
		tb.Fatal(err)
	}
	delay, err := b.CreateTopic(0, TopicConfig{Name: "delay", Shards: 1, Kind: KindDelay})
	if err != nil {
		tb.Fatal(err)
	}
	payloads, deadlines := make([][]byte, batch), make([]uint64, batch)
	for i := range payloads {
		payloads[i] = U64(uint64(i))
	}
	var next uint64
	publish := func() {
		for i := range deadlines {
			deadlines[i] = next
			next++
		}
		if err := delay.PublishAtBatch(0, payloads, deadlines); err != nil {
			tb.Fatal(err)
		}
	}
	for next < resident {
		publish()
	}
	return func() {
		publish()
		if ps, err := delay.DequeueReadyBatch(1, next-resident-1, batch); err != nil || len(ps) != batch {
			tb.Fatalf("DequeueReadyBatch delivered %d of %d due messages: %v", len(ps), batch, err)
		}
	}
}

// TestHeapTopicBatchAllocs pins the Go allocations of one
// PublishAtBatch(8) + DequeueReadyBatch(8) round on a delay topic: 2,
// both of them what the dequeue hands its caller (one payload buffer
// for the batch and the payload slice). It was 24 — a payload copy and
// a word buffer per message, three staging slices per call — until
// dheap kept a slot-indexed payload mirror and per-tid scratch, and 3
// while the topic popped through PopReadyBatch, whose key slice it
// dropped.
func TestHeapTopicBatchAllocs(t *testing.T) {
	round := delayRound(t, pmem.ZeroLatency())
	for i := 0; i < 200; i++ { // past slice growth
		round()
	}
	if got := testing.AllocsPerRun(500, round); got > 2 {
		t.Fatalf("PublishAtBatch(8)+DequeueReadyBatch(8) = %v allocs, want <= 2", got)
	}
}

// BenchmarkHeapTopicPublishDequeue is the same round under the default
// latency model, for -benchmem and profiles of the heap-topic path.
func BenchmarkHeapTopicPublishDequeue(b *testing.B) {
	round := delayRound(b, pmem.DefaultLatency())
	b.ReportAllocs()
	for b.Loop() {
		round()
	}
}
