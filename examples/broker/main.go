// Broker: live administration of a durable message broker — dynamic
// topics on an append-with-fence catalog log (internal/broker), with
// exactly-once processing kept across a power failure.
//
// The broker is not configured up front: it comes up EMPTY with
// broker.Open on a 2-heap NVRAM set, and everything else is runtime
// administration. First an operator creates the "orders" topic (acked,
// variable payloads) and a durable consumer-group lease region with
// growth headroom; producers and an acked consumer group go to work.
// Mid-traffic — the data plane never pauses — the operator creates a
// second topic, "audit", on the live broker and subscribes the running
// group to it (Group.Subscribe): the catalog grows by one checksummed
// record, appended and fenced before an anchor stamp makes the topic
// visible, for a pinned two blocking persists of administrative cost
// plus the per-shard queue initialization.
//
// Then the power fails: a crash injected through one member heap downs
// the whole set mid-traffic. Recovery is broker.Open again — the same
// call that created the broker — which replays the catalog log record
// by record: the topic created at birth and the topic created
// mid-flight recover identically. A fresh acked group binds the lease
// region, surfaces the previous incarnation's in-flight windows as
// stale lease records, and drains the backlog.
//
// The audit demands exactly-once processing across both topics:
// every acknowledged publish is processed exactly once — acknowledged
// messages are never redelivered, unacknowledged ones always are. The
// only slack is the observer gap: an Ack whose fence completed right
// before the crash, cut off between the fence and the audit's record.
//
// Finally the lifecycle closes: the operator retires the drained
// "audit" topic with DeleteTopic (a checksummed tombstone, two
// blocking persists, windows reclaimed only after the anchor stamp),
// a stale handle is refused with ErrTopicDeleted, CompactCatalog
// folds the tombstone debris into a next-generation log, a clean
// restart recovers the same slot footprint (the run exits non-zero
// if it does not), and a replacement topic reuses the retired shard
// windows — the steady-footprint churn story.
package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/obs"
	"repro/internal/pmem"
)

const (
	heaps       = 2
	producers   = 2
	consumers   = 2
	adminTid    = producers + consumers // the operator's thread id
	threads     = producers + consumers + 1
	perProducer = 3000
	auditMsgs   = 400
	pollBatch   = 8
	leaseTTL    = 50
)

func orderPayload(id uint64) []byte {
	p := make([]byte, 16+int(id%48))
	copy(p, broker.U64(id))
	for i := 8; i < len(p); i++ {
		p[i] = byte(id) ^ byte(i)
	}
	return p
}

func main() {
	if runtime.GOMAXPROCS(0) < threads+2 {
		runtime.GOMAXPROCS(threads + 2)
	}
	hs := pmem.NewSet(heaps, pmem.Config{
		Bytes:      128 << 20,
		Mode:       pmem.ModeCrash,
		MaxThreads: threads,
	})
	// One observer spans the broker's whole life — both incarnations:
	// RegisterTopic dedupes by name, so the counters and latency
	// histograms below cover traffic before AND after the power failure.
	o := obs.New(obs.Config{Threads: threads})
	// An EMPTY broker: no Config, no topic list. Everything below is
	// live administration.
	b, err := broker.Open(hs, broker.Options{Threads: threads, Observer: o})
	if err != nil {
		panic(err)
	}
	if _, err := b.CreateTopic(0, broker.TopicConfig{
		Name: "orders", Shards: 4, MaxPayload: 64, Acked: true,
	}); err != nil {
		panic(err)
	}
	// One durable lease region, with default headroom so topics created
	// later can join the same acked group.
	region, err := b.CreateAckGroup(0, broker.AckGroupConfig{})
	if err != nil {
		panic(err)
	}
	var clock atomic.Uint64 // logical lease clock
	g, err := b.NewGroupAcked([]string{"orders"}, consumers, broker.LeaseConfig{
		Region: region, TTL: leaseTTL, Now: clock.Load,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("opened empty; created %q at runtime: %d heaps, %d shards, lease region %d\n",
		"orders", b.Heaps(), b.ShardTotal(), region)

	acked := make([][]uint64, producers) // acknowledged publishes per producer
	var auditAcked []uint64              // acknowledged publishes to the mid-flight topic
	processed := make([]map[uint64]bool, consumers)
	var ackedTotal atomic.Uint64
	var producersDone sync.WaitGroup
	var wg sync.WaitGroup

	// The operator: once a quarter of the orders are acknowledged,
	// create the "audit" topic on the LIVE broker, subscribe the
	// running group to it and start publishing audit entries; once half
	// are through, pull the plug via heap 1 — the shared power supply
	// downs the whole set.
	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		target := uint64(producers * perProducer)
		for ackedTotal.Load() < target/4 && !hs.Crashed() {
			time.Sleep(50 * time.Microsecond)
		}
		before := hs.StatsOf(adminTid).Fences
		crashed := pmem.Protect(func() {
			if _, err := b.CreateTopic(adminTid, broker.TopicConfig{
				Name: "audit", Shards: 2, Acked: true,
			}); err != nil {
				panic(err)
			}
		})
		if crashed {
			return
		}
		fmt.Printf("-- created %q mid-traffic: %d blocking persists, data plane never paused --\n",
			"audit", hs.StatsOf(adminTid).Fences-before)
		if err := g.Subscribe(adminTid, "audit"); err != nil {
			fmt.Println("subscribe failed:", err)
			return
		}
		topic := b.Topic("audit")
		for m := uint64(1); m <= auditMsgs; m++ {
			id := uint64(9)<<32 | m
			if pmem.Protect(func() { topic.Publish(adminTid, broker.U64(id)) }) {
				return
			}
			auditAcked = append(auditAcked, id)
			ackedTotal.Add(1)
		}
		for ackedTotal.Load() < target/2 && !hs.Crashed() {
			time.Sleep(50 * time.Microsecond)
		}
		hs.Heap(1).CrashNow() // one domain fails; the set follows
	}()

	for p := 0; p < producers; p++ {
		wg.Add(1)
		producersDone.Add(1)
		go func(p int) {
			defer wg.Done()
			defer producersDone.Done()
			rng := rand.New(rand.NewSource(int64(p) + 100))
			orders := b.Topic("orders")
			// Publish until the power fails (the monitor pulls the plug
			// once half the nominal volume is acknowledged), so the crash
			// always lands mid-traffic and leaves a recovery backlog; the
			// bound is only a safety stop.
			for m := uint64(1); m <= 50*perProducer; {
				id := uint64(p+1)<<32 | m
				switch rng.Intn(3) {
				case 0: // one order, one fence
					if pmem.Protect(func() { orders.Publish(p, orderPayload(id)) }) {
						return
					}
					acked[p] = append(acked[p], id)
					ackedTotal.Add(1)
					m++
				default: // batch of 8 riding a single fence
					var batch [][]byte
					var ids []uint64
					for len(batch) < 8 && m <= 50*perProducer {
						ids = append(ids, uint64(p+1)<<32|m)
						batch = append(batch, orderPayload(ids[len(ids)-1]))
						m++
					}
					if pmem.Protect(func() { orders.PublishBatch(p, batch) }) {
						return // crash: the whole batch is unacknowledged
					}
					acked[p] = append(acked[p], ids...)
					ackedTotal.Add(uint64(len(ids)))
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { producersDone.Wait(); close(done) }()
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		processed[c] = map[uint64]bool{}
		go func(c int) {
			defer wg.Done()
			tid := producers + c
			cons := g.Consumer(c)
			idle := false
			for {
				var msgs []broker.Message
				if pmem.Protect(func() { msgs = cons.PollBatch(tid, pollBatch) }) {
					return // power failure mid-poll: window unacknowledged
				}
				if len(msgs) > 0 {
					idle = false
					if pmem.Protect(func() { cons.Ack(tid) }) {
						return // crash mid-ack: the observer gap
					}
					for _, m := range msgs { // processed = delivered AND acked
						processed[c][broker.AsU64(m.Payload[:8])] = true
					}
					continue
				}
				select {
				case <-done:
					if idle {
						return
					}
					idle = true
				default:
				}
			}
		}(c)
	}
	wg.Wait()
	if !hs.Crashed() {
		hs.CrashNow()
	}
	<-monitorDone
	fmt.Println("-- heap 1 failed mid-traffic; the whole set lost power --")
	hs.FinalizeCrash(rand.New(rand.NewSource(42)))
	hs.Restart()

	// Recovery is the same call that created the broker: Open replays
	// the catalog log record by record — the birth topic and the
	// mid-flight topic recover identically.
	r, err := broker.Open(hs, broker.Options{Observer: o})
	if err != nil {
		panic(err)
	}
	fmt.Printf("recovered %d topics (%v) across %d heaps by replaying the catalog log\n",
		len(r.Topics()), r.TopicNames(), r.Heaps())
	var clock2 atomic.Uint64
	g2, err := r.NewGroupAcked(r.TopicNames(), 1, broker.LeaseConfig{
		TTL: leaseTTL, Now: clock2.Load,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d stale lease record(s) from the crash:\n", len(g2.RecoveredLeases()))
	for i, rl := range g2.RecoveredLeases() {
		if i == 3 {
			fmt.Printf("  ...\n")
			break
		}
		fmt.Printf("  %s/%d: owner %d held [%d,%d], deadline %d\n",
			rl.Shard.Topic, rl.Shard.Shard, rl.Lease.Owner, rl.Lease.Lo, rl.Lease.Hi, rl.Lease.Deadline)
	}

	// Drain and process the backlog: everything unacknowledged at the
	// crash — in flight or never delivered — exactly once.
	dup := 0
	seen := map[uint64]bool{}
	for c := range processed {
		for id := range processed[c] {
			if seen[id] {
				dup++
			}
			seen[id] = true
		}
	}
	preCrash := len(seen)
	drained := 0
	c2 := g2.Consumer(0)
	for {
		msgs := c2.PollBatch(0, 16)
		if len(msgs) == 0 {
			break
		}
		c2.Ack(0)
		for _, m := range msgs {
			id := broker.AsU64(m.Payload[:8])
			if seen[id] {
				dup++ // an acked message was redelivered: forbidden
			}
			seen[id] = true
			drained++
		}
	}
	lost, totalAcked := 0, 0
	audit := func(ids []uint64) {
		totalAcked += len(ids)
		for _, id := range ids {
			if !seen[id] {
				lost++
			}
		}
	}
	for p := range acked {
		audit(acked[p])
	}
	audit(auditAcked)
	allowance := consumers * pollBatch // acks cut off between fence and record
	fmt.Printf("acknowledged publishes    : %d (%d to the mid-flight topic)\n", totalAcked, len(auditAcked))
	fmt.Printf("processed before the crash: %d\n", preCrash)
	fmt.Printf("processed from the backlog: %d\n", drained)
	fmt.Printf("processed twice           : %d\n", dup)
	fmt.Printf("observer gap              : %d (acks durable but unrecorded; at most %d)\n", lost, allowance)

	// The observability layer watched both incarnations: per-op latency
	// percentiles across the whole run, and per-topic depth plus group
	// lag, which a full drain must have taken to zero.
	snap := o.Snapshot()
	fmt.Println("-- observability: latency across both incarnations --")
	for _, op := range snap.Ops {
		if op.Count == 0 {
			continue
		}
		fmt.Printf("  %-7s n=%-7d p50=%.1fµs p99=%.1fµs p999=%.1fµs\n",
			op.Op, op.Count, op.P50Ns/1e3, op.P99Ns/1e3, op.P999Ns/1e3)
	}
	for _, t := range snap.Topics {
		fmt.Printf("  topic %-6s published=%-6d delivered=%-6d acked=%-6d redelivered=%-4d depth=%d\n",
			t.Topic, t.Published, t.Delivered, t.Acked, t.Redelivered, t.Depth)
	}
	for _, gs := range snap.Groups {
		fmt.Printf("  group %s max shard lag=%d\n", gs.Group, gs.MaxLag)
	}
	if dup > 0 || lost > allowance {
		fmt.Println("EXACTLY-ONCE AUDIT FAILED")
		os.Exit(1)
	}
	fmt.Println("audit passed: every acknowledged publish processed exactly once")

	// Epilogue: the lifecycle closes. The audit trail is drained, so the
	// operator retires the topic — a checksummed tombstone appended under
	// the same ordered-persist discipline as creation (two blocking
	// persists; the shard windows are free only after the anchor
	// stamp, so a torn delete recovers as "still exists"). A stale
	// handle held across the delete refuses further traffic with a typed
	// error rather than writing into recycled windows.
	stale := r.Topic("audit")
	live, liveFree := r.SlotFootprint()
	before := hs.StatsOf(0).Fences
	if err := r.DeleteTopic(0, "audit"); err != nil {
		panic(err)
	}
	used, free := r.SlotFootprint()
	fmt.Printf("-- retired %q: %d blocking persists; slot footprint %d used / %d free --\n",
		"audit", hs.StatsOf(0).Fences-before, used, free)
	if err := stale.Publish(0, broker.U64(1)); !errors.Is(err, broker.ErrTopicDeleted) {
		fmt.Println("stale handle not refused:", err)
		os.Exit(1)
	}
	fmt.Println("stale handle refused: " + broker.ErrTopicDeleted.Error())

	// Compact the tombstone debris into a next-generation log region
	// (one anchor flip, two fences regardless of how much debris there
	// is) and restart cleanly: the new generation drops the tombstone,
	// and free slots are whatever the live windows leave, so the
	// recovered broker has the same free windows as the one that
	// compacted.
	if err := r.CompactCatalog(0, 0); err != nil {
		panic(err)
	}
	hs.CrashNow() // at quiescence: a clean restart
	hs.FinalizeCrash(rand.New(rand.NewSource(43)))
	hs.Restart()
	r, err = broker.Open(hs, broker.Options{})
	if err != nil {
		panic(err)
	}
	if u, f := r.SlotFootprint(); u != used || f != free {
		fmt.Printf("RECOVERED FOOTPRINT %d used / %d free DIFFERS from the live %d used / %d free\n", u, f, used, free)
		os.Exit(1)
	}
	fmt.Printf("compacted to catalog generation %d, restarted: %d used / %d free, as before\n",
		r.CatalogGeneration(), used, free)

	// Recreate: the new topic takes the retired topic's windows, so the
	// footprint is the one before the retirement and steady under churn.
	if _, err := r.CreateTopic(0, broker.TopicConfig{
		Name: "audit-v2", Shards: 2, Acked: true,
	}); err != nil {
		panic(err)
	}
	if u, f := r.SlotFootprint(); u != live || f != liveFree {
		fmt.Printf("RECREATED FOOTPRINT %d used / %d free DIFFERS from the %d used / %d free before the retirement\n", u, f, live, liveFree)
		os.Exit(1)
	}
	fmt.Printf("%q takes the retired windows: %d used / %d free, as before the retirement\n", "audit-v2", live, liveFree)
}
