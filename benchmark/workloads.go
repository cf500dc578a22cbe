package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/blobq"
	"repro/internal/broker"
	"repro/internal/dheap"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/queues"
)

// Every workload is a closed loop with one client: callers of
// Publish*/Poll* block until the persist completes, so the next
// request cannot be sent before the previous one returns. One
// goroutine alternates tid 0 (producer) and tid 1 (consumer), which
// is legal because each tid is used by one goroutine at a time.
const (
	tidProd = 0
	tidCons = 1
	threads = 2
	shards  = 4
	batchN  = 8
)

// Heap sizes, chosen so that nothing runs out at seed: with producer
// tid != consumer tid the heap break grows by 64 B (fifo-*) or 1.2 KiB
// (blob1k-acked) per message for ever, because ssmem free lists are
// per thread. BENCHMARK.json's workload notes repeat these sizes.
const (
	fifoHeapBytes  = 768 << 20
	blobHeapBytes  = 768 << 20
	delayHeapBytes = 64 << 20
	pairsHeapBytes = 64 << 20
)

// newHeaps builds the heap set a workload runs on and points the event
// counters at it.
func (b *bench) newHeaps(n int, bytes int64, mode pmem.Mode, lat pmem.LatencyModel) {
	b.call(spNewSet, func() {
		b.hs = pmem.NewSet(n, pmem.Config{Bytes: bytes, Mode: mode, MaxThreads: threads, Latency: lat})
	})
	if b.tr != nil {
		b.tr.watch(b.hs)
	}
}

// openBroker opens an empty broker, with an observer on the traced
// pass so that the observer's own view can be compared with ours.
func (b *bench) openBroker() (*broker.Broker, *obs.Observer) {
	opts := broker.Options{Threads: threads}
	var o *obs.Observer
	if b.cfg.traced {
		o = obs.New(obs.Config{Threads: threads})
		opts.Observer = o
	}
	var brk *broker.Broker
	b.call(spOpen, func() { brk = must(broker.Open(b.hs, opts)) })
	return brk, o
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(fmt.Sprintf("benchmark: set-up failed: %v", err))
	}
	return v
}

// observerAgreement compares the observer's publish p50 with the
// benchmark's own measurement of the same calls, both as the wall
// clock saw them.
func (b *bench) observerAgreement(o *obs.Observer) {
	if o == nil || len(b.rounds) == 0 {
		return
	}
	ours := median(column(b.rounds, func(r roundStat) float64 { return r.pub[0] }))
	b.res.Values["obs.publish_p50_agreement"] = o.OpHist(obs.OpPublish).Quantile(0.5) / ours
}

// brokerSpans turns the traced verb spans into the broker.* per-layer
// metrics, subtracting the queue-layer replay of the same calls.
func (b *bench) brokerSpans(replayPub, replayDel float64) {
	if b.tr == nil {
		return
	}
	v := b.res.Values
	pub := b.tr.perMsg(spPublish, spPublishBatch, spPublishAtBatch)
	poll := b.tr.perMsg(spPoll, spPollBatch, spDequeueReadyBatch)
	ack := b.tr.perMsg(spAck)
	v["broker.publish_ns_per_msg"] = pub
	v["broker.poll_ns_per_msg"] = poll
	v["broker.ack_ns_per_msg"] = ack
	if replayPub > 0 {
		v["broker.publish_self_ns_per_msg"] = pub - replayPub
		v["broker.poll_self_ns_per_msg"] = poll + ack - replayDel
	}
}

// replayRounds is how many rounds replay runs.
const replayRounds = 4

// replay times the queue-layer call sequence a workload's verbs boil
// down to: pub and del each carry batch messages and are called
// alternately, steps times, for a few rounds on heap h. It returns the
// mean reference-speed ns per message on each side.
func replay(c *refClock, h *pmem.Heap, steps, batch int, pub, del func()) (pubNs, delNs float64) {
	for r := 0; r < replayRounds; r++ {
		var p, d int64
		iv := c.start(h.TotalStats)
		t := now()
		for i := 0; i < steps; i++ {
			pub()
			t1 := now()
			del()
			t2 := now()
			p, d, t = p+t1-t, d+t2-t1, t2
		}
		rd := iv.stop()
		pubNs += float64(p) * c.ref(rd) / rd.raw
		delNs += float64(d) * c.ref(rd) / rd.raw
	}
	n := float64(replayRounds * steps * batch)
	return pubNs / n, delNs / n
}

// --- fifo-batch8 and fifo-single -----------------------------------

func runFifo(b *bench, batch int) {
	msgsPerRound, rounds := 65536, b.scaled(64, 4)
	if batch == 1 {
		msgsPerRound = 32768
	}
	b.newHeaps(1, fifoHeapBytes, pmem.ModePerf, pmem.DefaultLatency())
	brk, o := b.openBroker()
	var t *broker.Topic
	b.call(spCreateTopic, func() { t = must(brk.CreateTopic(0, broker.TopicConfig{Name: "fifo", Shards: shards})) })
	var c *broker.Consumer
	b.call(spNewGroup, func() { c = must(brk.NewGroup([]string{"fifo"}, 1)).Consumer(0) })

	key := uint64(b.cfg.seed)
	var published uint64     // messages published so far
	var taken [shards]uint64 // messages delivered so far, per shard
	var delivered uint64
	bufs := make([][]byte, batch)
	for i := range bufs {
		bufs[i] = make([]byte, 8)
	}
	// check verifies per-shard FIFO order and the seeded payload in one
	// comparison: PublishBatch deals whole batches round-robin, so the
	// j-th message of shard s is message (s + shards*(j/batch))*batch +
	// j%batch of the run.
	check := func(m broker.Message) {
		j := taken[m.Shard]
		taken[m.Shard]++
		delivered++
		seq := (uint64(m.Shard)+shards*(j/uint64(batch)))*uint64(batch) + j%uint64(batch)
		if broker.AsU64(m.Payload) != mix64(key+seq) {
			b.violate("fifo shard %d: delivery %d is not message %d", m.Shard, j, seq)
		}
	}
	round := func() int {
		start := published
		ts := now()
		for published-start < uint64(msgsPerRound) {
			if batch == 1 {
				binary.LittleEndian.PutUint64(bufs[0], mix64(key+published))
				err := t.Publish(tidProd, bufs[0])
				ts = b.lap(spPublish, clsPub, ts, 1)
				b.attempted++
				if err != nil {
					b.failed++
					continue
				}
				published++
				m, ok := c.Poll(tidCons)
				ts = b.lap(spPoll, clsDel, ts, 1)
				if !ok {
					b.violate("fifo: message %d published but not delivered", published-1)
					continue
				}
				check(m)
				continue
			}
			for k := 0; k < 8; k++ {
				for i := range bufs {
					binary.LittleEndian.PutUint64(bufs[i], mix64(key+published+uint64(i)))
				}
				err := t.PublishBatch(tidProd, bufs)
				ts = b.lap(spPublishBatch, clsPub, ts, batch)
				b.attempted += int64(batch)
				if err != nil {
					b.failed += int64(batch)
					continue
				}
				published += uint64(batch)
			}
			for delivered < published {
				ms := c.PollBatch(tidCons, batch)
				ts = b.lap(spPollBatch, clsDel, ts, len(ms))
				if len(ms) == 0 {
					b.violate("fifo: %d messages published but not delivered", published-delivered)
					delivered = published
					break
				}
				for _, m := range ms {
					check(m)
				}
			}
		}
		return int(published - start)
	}
	b.measure(rounds, msgsPerRound, round)
	if ms := c.PollBatch(tidCons, batch); len(ms) != 0 {
		b.violate("fifo: %d messages delivered that were never published", len(ms))
	}
	b.observerAgreement(o)

	if b.tr != nil {
		h := pmem.New(pmem.Config{Bytes: 128 << 20, MaxThreads: threads, Latency: pmem.DefaultLatency()})
		var qs [shards]*queues.OptUnlinkedQ
		for i := range qs {
			qs[i] = queues.NewOptUnlinkedQ(h.View(8*i, 8), threads)
		}
		vs := make([]uint64, batch)
		var pi, di int
		pub := func() { qs[pi%shards].EnqueueBatch(tidProd, vs); pi++ }
		del := func() {
			q := qs[di%shards]
			di++
			if _, dirty := q.DequeueBatchUnfenced(tidCons, batch); dirty {
				h.Fence(tidCons)
				q.CompleteBatch(tidCons)
			}
		}
		if batch == 1 {
			pub = func() { qs[pi%shards].Enqueue(tidProd, 1); pi++ }
			del = func() { qs[di%shards].Dequeue(tidCons); di++ }
		}
		b.brokerSpans(replay(b.clock, h, msgsPerRound/batch, batch, pub, del))
	}
}

// --- blob1k-acked ---------------------------------------------------

func runBlob(b *bench) {
	const payload, pool = 1024, 64
	msgsPerRound, rounds := 8192, b.scaled(40, 4)
	b.newHeaps(1, blobHeapBytes, pmem.ModePerf, pmem.DefaultLatency())
	brk, o := b.openBroker()
	var t *broker.Topic
	b.call(spCreateTopic, func() {
		t = must(brk.CreateTopic(0, broker.TopicConfig{Name: "blob", Shards: shards, MaxPayload: payload, Acked: true}))
	})
	var region int
	b.call(spCreateAckGroup, func() { region = must(brk.CreateAckGroup(0, broker.AckGroupConfig{})) })
	var clock uint64 // a logical lease clock keeps fence counts independent of wall time
	var c *broker.Consumer
	b.call(spNewGroup, func() {
		g := must(brk.NewGroupAcked([]string{"blob"}, 1, broker.LeaseConfig{
			Region: region, TTL: 1 << 40, Now: func() uint64 { return clock },
		}))
		c = g.Consumer(0)
	})

	// Payload bodies come from a seeded pool; the first word of each
	// message is stamped with its seeded sequence word at publish time.
	bodies := make([][]byte, pool)
	for i := range bodies {
		bodies[i] = make([]byte, payload)
		b.rng.Read(bodies[i])
	}
	reference := make([][]byte, pool)
	for i := range reference {
		reference[i] = bytes.Clone(bodies[i])
	}
	key := uint64(b.cfg.seed)
	var published, delivered uint64
	var taken [shards]uint64
	batch := make([][]byte, batchN)
	check := func(m broker.Message) {
		j := taken[m.Shard]
		taken[m.Shard]++
		delivered++
		seq := (uint64(m.Shard)+shards*(j/batchN))*batchN + j%batchN
		if len(m.Payload) != payload || binary.LittleEndian.Uint64(m.Payload) != mix64(key+seq) ||
			!bytes.Equal(m.Payload[8:], reference[seq%pool][8:]) {
			b.violate("blob shard %d: delivery %d is not message %d", m.Shard, j, seq)
		}
	}
	round := func() int {
		start := published
		ts := now()
		for published-start < uint64(msgsPerRound) {
			for k := 0; k < 4; k++ {
				for i := range batch {
					seq := published + uint64(i)
					batch[i] = bodies[seq%pool]
					binary.LittleEndian.PutUint64(batch[i], mix64(key+seq))
				}
				err := t.PublishBatch(tidProd, batch)
				ts = b.lap(spPublishBatch, clsPub, ts, batchN)
				b.attempted += batchN
				if err != nil {
					b.failed += batchN
					continue
				}
				published += batchN
			}
			for delivered < published {
				clock++
				t0 := ts
				ms := c.PollBatch(tidCons, batchN)
				if b.tr != nil {
					ts = b.lap(spPollBatch, clsNone, ts, len(ms))
				}
				if len(ms) == 0 {
					b.violate("blob: %d messages published but not delivered", published-delivered)
					delivered = published
					break
				}
				n, err := c.Ack(tidCons)
				ts = b.lap(spAck, clsNone, ts, n)
				b.sample(ts - t0)
				if err != nil || n != len(ms) {
					b.violate("blob: Ack covered %d of %d deliveries: %v", n, len(ms), err)
				}
				for _, m := range ms {
					check(m)
				}
			}
		}
		return int(published - start)
	}
	b.measure(rounds, msgsPerRound, round)
	if ms := c.PollBatch(tidCons, batchN); len(ms) != 0 {
		b.violate("blob: %d messages delivered that were never published", len(ms))
	}
	b.observerAgreement(o)

	if b.tr != nil {
		h := pmem.New(pmem.Config{Bytes: 256 << 20, MaxThreads: threads, Latency: pmem.DefaultLatency()})
		var qs [shards]*blobq.Queue
		for i := range qs {
			qs[i] = blobq.New(h.View(8*i, 8), blobq.Config{Threads: threads, MaxPayload: payload, Acked: true})
		}
		var pi, di int
		pub := func() { qs[pi%shards].EnqueueBatch(tidProd, bodies[:batchN]); pi++ }
		del := func() {
			q := qs[di%shards]
			di++
			if _, idxs := q.DequeueLeased(tidCons, batchN); len(idxs) > 0 {
				q.AckTo(tidCons, idxs[len(idxs)-1])
			}
		}
		b.brokerSpans(replay(b.clock, h, msgsPerRound/batchN, batchN, pub, del))
	}
}

// --- heap-delay -----------------------------------------------------

// delaySchedule hands out deadlines such that, after n messages have
// been published, exactly the deadlines 512..n-1 have passed: message
// i of block k = i/512 gets deadline 512*(k+1) + perm[i%512] for a
// seeded permutation. The topic therefore always holds 512 entries
// after a pop, every step has exactly one batch ready, deadlines are
// unique, and pop-min order is known in advance.
type delaySchedule struct {
	perm []int
}

const delayResident = 512

func newDelaySchedule(b *bench) delaySchedule {
	return delaySchedule{perm: b.rng.Perm(delayResident)}
}

func (d delaySchedule) deadline(i uint64) uint64 {
	return delayResident*(i/delayResident+1) + uint64(d.perm[i%delayResident])
}

func runDelay(b *bench) {
	msgsPerRound, rounds := 32768, b.scaled(64, 4)
	b.newHeaps(1, delayHeapBytes, pmem.ModePerf, pmem.DefaultLatency())
	brk, o := b.openBroker()
	var t *broker.Topic
	b.call(spCreateTopic, func() {
		t = must(brk.CreateTopic(0, broker.TopicConfig{Name: "delay", Shards: 1, Kind: broker.KindDelay}))
	})
	sched := newDelaySchedule(b)
	key := uint64(b.cfg.seed)
	var published, delivered uint64
	bufs := make([][]byte, batchN)
	for i := range bufs {
		bufs[i] = make([]byte, 8)
	}
	deadlines := make([]uint64, batchN)
	publish := func() error {
		for i := range bufs {
			deadlines[i] = sched.deadline(published + uint64(i))
			binary.LittleEndian.PutUint64(bufs[i], mix64(key+deadlines[i]))
		}
		return t.PublishAtBatch(tidProd, bufs, deadlines)
	}
	// pop checks pop-min order: deliveries come in deadline order,
	// starting at 512, none early and none skipped.
	pop := func(nowTick uint64) int {
		ps, err := t.DequeueReadyBatch(tidCons, nowTick, batchN)
		if err != nil {
			b.violate("delay: DequeueReadyBatch: %v", err)
		}
		for _, p := range ps {
			want := delayResident + delivered
			delivered++
			if broker.AsU64(p) != mix64(key+want) {
				b.violate("delay: delivery %d does not carry deadline %d", delivered-1, want)
			}
		}
		return len(ps)
	}
	b.call(spPrefill, func() {
		for published < delayResident {
			if err := publish(); err != nil {
				panic(err)
			}
			published += batchN
		}
	})
	round := func() int {
		start := published
		ts := now()
		for published-start < uint64(msgsPerRound) {
			err := publish()
			ts = b.lap(spPublishAtBatch, clsPub, ts, batchN)
			b.attempted += batchN
			if err != nil {
				b.failed += batchN
				continue
			}
			published += batchN
			n := pop(published - 1)
			ts = b.lap(spDequeueReadyBatch, clsDel, ts, n)
			if n != batchN {
				b.violate("delay: %d of %d due messages delivered", n, batchN)
				delivered = published - delayResident
			}
		}
		return int(published - start)
	}
	b.measure(rounds, msgsPerRound, round)
	for pop(^uint64(0)) > 0 {
	}
	if delivered != published {
		b.violate("delay: published %d, delivered %d", published, delivered)
	}
	b.observerAgreement(o)

	if b.tr != nil {
		h := pmem.New(pmem.Config{Bytes: delayHeapBytes, MaxThreads: threads, Latency: pmem.DefaultLatency()})
		q := dheap.New(h, dheap.Config{Threads: threads})
		var n uint64
		for ; n < delayResident; n += batchN {
			for i := range deadlines {
				deadlines[i] = sched.deadline(n + uint64(i))
			}
			if err := q.PushBatch(tidProd, deadlines, bufs); err != nil {
				panic(err)
			}
		}
		pub := func() {
			for i := range deadlines {
				deadlines[i] = sched.deadline(n + uint64(i))
			}
			n += batchN
			if err := q.PushBatch(tidProd, deadlines, bufs); err != nil {
				panic(err)
			}
		}
		del := func() { q.PopReadyBatch(tidCons, n-1, batchN) }
		b.brokerSpans(replay(b.clock, h, msgsPerRound/batchN, batchN, pub, del))
	}
}
