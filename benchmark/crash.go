package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/broker"
	"repro/internal/pmem"
)

// crash-recover is the only workload that reads back, after a power
// loss, what the others write. It follows the crash-fuzz rule: nothing
// whose publish was acknowledged is lost beyond the poll window a
// crash interrupted, and nothing is delivered again after its
// acknowledgment. The crash is never armed inside CreateTopic or Open:
// their fan-out goroutines cannot yet hand a crash back to the caller
// (ROADMAP item 0).
const (
	crashHeaps     = 2
	crashHeapBytes = 128 << 20
	crashFixed     = 5 // plain 8-byte topics: the majority, so publish_us_p50 sits inside one mode
	crashBlob      = 2 // acked 64-byte topics
	crashTopics    = crashFixed + crashBlob + 1
	crashBlobBytes = 64
	crashBacklog   = 400_000
	crashCycleMsgs = 40_000
	crashCycles    = 12
)

// Audit states of one message.
const (
	stNone      uint8 = iota // never published
	stInflight               // the publish call was cut by a crash: may or may not exist
	stPublished              // publish returned: must be delivered
	stDelivered              // acked topics: delivered, Ack not yet called
	stAckCut                 // acked topics: the Ack call was cut by a crash: may or may not come back
	stDone                   // delivered (plain) or acknowledged (acked): must never come back
)

type crashTopic struct {
	name   string
	acked  bool
	delay  bool
	t      *broker.Topic
	state  []uint8  // by sequence number
	due    []uint64 // delay topic: deadline by sequence number
	last   []uint64 // per shard: 1 + the last sequence number delivered in this epoch
	lost   int      // tolerated losses: one poll window per crash that cut a plain poll
	shards int
}

type crashRun struct {
	b      *bench
	key    uint64
	brk    *broker.Broker
	topics [crashTopics]*crashTopic
	plain  *broker.Consumer
	leased *broker.Consumer
	clock  uint64 // lease clock
	tick   uint64 // delay-topic clock: one tick per message published there
	unack  []uint64
	bufs   [][]byte
	dls    []uint64
	blobs  [][]byte
	opens  []reading
}

func (r *crashRun) id(ti int, seq uint64) uint64 { return uint64(ti)<<48 | seq }

// stamp writes message (ti, seq) into p: the seeded id word, followed
// on blob topics by a seeded body.
func (r *crashRun) stamp(p []byte, ti int, seq uint64) {
	id := r.id(ti, seq)
	binary.LittleEndian.PutUint64(p, id^r.key)
	for off := 8; off < len(p); off += 8 {
		binary.LittleEndian.PutUint64(p[off:], mix64(id+uint64(off)))
	}
}

// decode checks a delivered payload and returns its topic and sequence
// number.
func (r *crashRun) decode(p []byte) (ti int, seq uint64, ok bool) {
	if len(p) < 8 {
		return 0, 0, false
	}
	id := binary.LittleEndian.Uint64(p) ^ r.key
	ti, seq = int(id>>48), id&(1<<48-1)
	if ti >= crashTopics || seq >= uint64(len(r.topics[ti].state)) {
		return 0, 0, false
	}
	for off := 8; off < len(p); off += 8 {
		if binary.LittleEndian.Uint64(p[off:]) != mix64(id+uint64(off)) {
			return 0, 0, false
		}
	}
	return ti, seq, true
}

// bind looks the topics up on a freshly opened broker and forms the
// two consumer groups.
func (r *crashRun) bind() {
	var fixed, blob []string
	for _, ct := range r.topics {
		ct.t = r.brk.Topic(ct.name)
		if ct.t == nil {
			panic("benchmark: topic " + ct.name + " did not survive recovery")
		}
		switch {
		case ct.acked:
			blob = append(blob, ct.name)
		case !ct.delay:
			fixed = append(fixed, ct.name)
		}
	}
	r.b.call(spNewGroup, func() {
		r.plain = must(r.brk.NewGroup(fixed, 1)).Consumer(0)
		r.leased = must(r.brk.NewGroupAcked(blob, 1, broker.LeaseConfig{
			Region: 0, TTL: 1 << 40, Now: func() uint64 { return r.clock },
		})).Consumer(0)
	})
}

// publish sends one batch to topic ti. cut reports a crash inside the
// call.
func (r *crashRun) publish(ti int, ts int64) (int64, bool) {
	ct, b := r.topics[ti], r.b
	first := uint64(len(ct.state))
	bufs := r.bufs
	if ct.acked {
		bufs = r.blobs
	}
	for i := range bufs {
		r.stamp(bufs[i], ti, first+uint64(i))
		ct.state = append(ct.state, stInflight)
		if ct.delay {
			// Due 512 ticks after publication, give or take a seeded
			// few: the topic holds about 512 entries at all times.
			r.dls[i] = r.tick + delayResident + uint64(b.rng.Intn(batchN))
			ct.due = append(ct.due, r.dls[i])
			r.tick++
		}
	}
	var err error
	name := spPublishBatch
	if ct.delay {
		name = spPublishAtBatch
	}
	cut := pmem.Protect(func() {
		if ct.delay {
			err = ct.t.PublishAtBatch(tidProd, bufs, r.dls)
		} else {
			err = ct.t.PublishBatch(tidProd, bufs)
		}
	})
	ts = b.lap(name, clsPub, ts, batchN)
	b.attempted += batchN
	if cut {
		return ts, true
	}
	if err != nil {
		b.failed += batchN
		for i := range bufs {
			ct.state[first+uint64(i)] = stNone
		}
		return ts, false
	}
	for i := range bufs {
		ct.state[first+uint64(i)] = stPublished
	}
	return ts, false
}

// deliver files one delivered payload under the audit and returns its
// sequence number.
func (r *crashRun) deliver(p []byte, shard int, nowTick uint64) (seq uint64, ok bool) {
	b := r.b
	ti, seq, ok := r.decode(p)
	if !ok {
		b.violate("crash-recover: delivered payload %x matches no published message", p[:min(len(p), 8)])
		return 0, false
	}
	ct := r.topics[ti]
	switch ct.state[seq] {
	case stPublished, stInflight, stAckCut:
	default:
		b.violate("crash-recover: %s message %d delivered in state %d (twice, or after its ack)", ct.name, seq, ct.state[seq])
		return 0, false
	}
	if ct.delay {
		if ct.due[seq] > nowTick {
			b.violate("crash-recover: %s message %d delivered at %d, due %d", ct.name, seq, nowTick, ct.due[seq])
		}
	} else {
		if seq+1 <= ct.last[shard] {
			b.violate("crash-recover: %s shard %d out of order: %d after %d", ct.name, shard, seq, ct.last[shard]-1)
		}
		ct.last[shard] = seq + 1
	}
	if ct.acked {
		ct.state[seq] = stDelivered
		r.unack = append(r.unack, r.id(ti, seq))
	} else {
		ct.state[seq] = stDone
	}
	return seq, true
}

func (r *crashRun) setUnacked(st uint8) {
	for _, id := range r.unack {
		r.topics[id>>48].state[id&(1<<48-1)] = st
	}
	r.unack = r.unack[:0]
}

// consume takes one batch from the consumer that serves topic ti's
// class and returns how many messages came. cut reports a crash inside
// a call.
func (r *crashRun) consume(ti int, nowTick uint64, ts int64) (int64, int, bool) {
	ct, b := r.topics[ti], r.b
	switch {
	case ct.delay:
		var ps [][]byte
		var err error
		cut := pmem.Protect(func() { ps, err = ct.t.DequeueReadyBatch(tidCons, nowTick, batchN) })
		ts = b.lap(spDequeueReadyBatch, clsDel, ts, len(ps))
		if cut {
			ct.lost += batchN
			return ts, 0, true
		}
		if err != nil {
			b.violate("crash-recover: DequeueReadyBatch: %v", err)
		}
		prev := uint64(0)
		for _, p := range ps {
			if seq, ok := r.deliver(p, 0, nowTick); ok {
				if ct.due[seq] < prev {
					b.violate("crash-recover: %s popped deadline %d after %d", ct.name, ct.due[seq], prev)
				}
				prev = ct.due[seq]
			}
		}
		if k, ok := ct.t.MinKey(); ok && k < prev {
			b.violate("crash-recover: %s popped deadline %d while %d was still queued", ct.name, prev, k)
		}
		return ts, len(ps), false
	case ct.acked:
		r.clock++
		t0 := ts
		var ms []broker.Message
		if pmem.Protect(func() { ms = r.leased.PollBatch(tidCons, batchN) }) {
			return b.lap(spPollBatch, clsNone, ts, 0), 0, true
		}
		if b.tr != nil {
			ts = b.lap(spPollBatch, clsNone, ts, len(ms))
		}
		if len(ms) == 0 {
			return ts, 0, false
		}
		for _, m := range ms {
			r.deliver(m.Payload, m.Shard, 0)
		}
		var n int
		var err error
		cut := pmem.Protect(func() { n, err = r.leased.Ack(tidCons) })
		ts = b.lap(spAck, clsNone, ts, n)
		if cut {
			r.setUnacked(stAckCut)
			return ts, 0, true
		}
		b.sample(ts - t0)
		if err != nil || n != len(ms) {
			b.violate("crash-recover: Ack covered %d of %d deliveries: %v", n, len(ms), err)
		}
		r.setUnacked(stDone)
		return ts, len(ms), false
	default:
		var ms []broker.Message
		cut := pmem.Protect(func() { ms = r.plain.PollBatch(tidCons, batchN) })
		ts = b.lap(spPollBatch, clsDel, ts, len(ms))
		if cut {
			// The interrupted window may have been consumed durably
			// without ever reaching the client: it could belong to any
			// plain topic, so the allowance is pooled on the first.
			r.topics[0].lost += batchN
			return ts, 0, true
		}
		for _, m := range ms {
			r.deliver(m.Payload, m.Shard, 0)
		}
		return ts, len(ms), false
	}
}

// fill builds the standing backlog at full speed and switches the
// latency model back on: the delay topic gets its 512 residents, the
// FIFO topics share the rest.
func (r *crashRun) fill(backlog int) {
	b := r.b
	for _, h := range b.hs.Heaps() {
		h.SetLatency(pmem.ZeroLatency())
	}
	b.call(spPrefill, func() {
		perTopic := backlog / (crashTopics - 1)
		for ti, ct := range r.topics {
			want := perTopic
			if ct.delay {
				want = delayResident
			}
			for n := 0; n < want; n += batchN {
				if _, cut := r.publish(ti, now()); cut {
					panic("benchmark: crash while none was armed")
				}
			}
		}
	})
	for _, h := range b.hs.Heaps() {
		h.SetLatency(pmem.DefaultLatency())
	}
}

// traffic runs publish+consume steps over the topics in turn until n
// messages have been published, or for ever when n is 0, and stops at
// the first call a crash cuts. It returns the messages published.
func (r *crashRun) traffic(step *int, n int) (published int, cut bool) {
	ts := now()
	for n == 0 || published < n {
		ti := *step % crashTopics
		*step++
		if ts, cut = r.publish(ti, ts); cut {
			return published, true
		}
		published += batchN
		if ts, _, cut = r.consume(ti, r.tick, ts); cut {
			return published, true
		}
	}
	return published, false
}

// recoverBroker is what follows a power loss: materialise the NVRAM
// image, reboot, and time Open.
func (r *crashRun) recoverBroker(rng *rand.Rand) reading {
	b := r.b
	// Deliveries the crash left unacknowledged come back.
	r.setUnacked(stPublished)
	for _, ct := range r.topics {
		if ct.acked {
			clear(ct.last)
		}
	}
	b.call(spFinalizeCrash, func() { b.hs.FinalizeCrash(rng) })
	b.call(spRestart, func() { b.hs.Restart() })
	iv := b.clock.start(b.hs.TotalStats)
	b.call(spOpen, func() { r.brk = must(broker.Open(b.hs, broker.Options{Threads: threads})) })
	t := iv.stop()
	r.bind()
	return t
}

// drain empties every topic and returns the messages that came out.
func (r *crashRun) drain() int {
	total := 0
	for _, ti := range []int{0, crashFixed, crashTopics - 1} { // one topic per consumer class
		for {
			_, n, _ := r.consume(ti, ^uint64(0), now())
			if n == 0 {
				break
			}
			total += n
		}
	}
	return total
}

func runCrash(b *bench) {
	sizeScale := min(b.cfg.scale, 1)
	backlog := int(crashBacklog * sizeScale)
	cycleMsgs := max(int(crashCycleMsgs*sizeScale)/64*64, 640)
	cycles := b.scaled(crashCycles, 3)
	if b.cfg.traced {
		cycles = min(cycles, 4)
	}
	r := &crashRun{b: b, key: mix64(uint64(b.cfg.seed))}
	b.newHeaps(crashHeaps, crashHeapBytes, pmem.ModeCrash, pmem.ZeroLatency())
	b.call(spOpen, func() { r.brk = must(broker.Open(b.hs, broker.Options{Threads: threads})) })
	for i := range r.topics {
		ct := &crashTopic{shards: shards}
		tc := broker.TopicConfig{Shards: shards}
		switch {
		case i < crashFixed:
			ct.name = fmt.Sprintf("fixed-%d", i)
		case i < crashFixed+crashBlob:
			ct.name, ct.acked = fmt.Sprintf("blob-%d", i-crashFixed), true
			tc.MaxPayload, tc.Acked = crashBlobBytes, true
		default:
			ct.name, ct.delay, ct.shards = "delay", true, 1
			tc.Shards, tc.Kind = 1, broker.KindDelay
		}
		tc.Name = ct.name
		ct.last = make([]uint64, ct.shards)
		r.topics[i] = ct
		b.call(spCreateTopic, func() { must(r.brk.CreateTopic(0, tc)) })
	}
	b.call(spCreateAckGroup, func() { must(r.brk.CreateAckGroup(0, broker.AckGroupConfig{})) })
	r.bind()
	r.bufs, r.blobs, r.dls = make([][]byte, batchN), make([][]byte, batchN), make([]uint64, batchN)
	for i := range r.bufs {
		r.bufs[i], r.blobs[i] = make([]byte, 8), make([]byte, crashBlobBytes)
	}

	r.fill(backlog)
	atFullSpeed := b.hs.TotalStats()
	step := 0
	b.pub, b.del = b.pub[:0], b.del[:0]
	r.traffic(&step, 8000) // warm-up, part of set-up
	b.endSetup(modelledNs(b.hs.TotalStats().Sub(atFullSpeed)))

	crashRng := rand.New(rand.NewSource(b.cfg.seed ^ 0x5eed))
	c := b.startCounters()
	for cyc := 0; cyc < cycles; cyc++ {
		b.runRound(b.hs.TotalStats, func() int {
			n, cut := r.traffic(&step, cycleMsgs)
			if cut {
				panic("benchmark: crash fired while none was armed")
			}
			// Power fails at a seeded access of a seeded heap, inside
			// whichever data-plane verb is running then.
			b.hs.Heap(crashRng.Intn(crashHeaps)).ScheduleCrashAtAccess(2000 + crashRng.Int63n(60_000))
			m, _ := r.traffic(&step, 0)
			return n + m
		}, true, 0)
		r.opens = append(r.opens, r.recoverBroker(crashRng))
	}
	b.finishCounters(c, b.rounds)
	b.reduceRate(b.rounds)
	b.reduceLatency(b.rounds)
	// The user-visible rate of coming back: the backlog over Open plus
	// the time to drain it. The last cycle's crash gives the first
	// sample; for each further one the backlog is rebuilt and the power
	// cut at rest.
	var rates []float64
	for i := 0; ; i++ {
		iv := b.clock.start(b.hs.TotalStats)
		var drained int
		b.call(spDrain, func() { drained = r.drain() })
		open := r.opens[len(r.opens)-1]
		rates = append(rates, float64(drained)/((b.clock.ref(iv.stop())+b.clock.ref(open))/1e9))
		if i == b.scaled(3, 1)-1 {
			break
		}
		r.fill(backlog)
		runtime.GC() // as after every cycle: each sample starts from the same Go heap
		b.hs.CrashNow()
		r.opens = append(r.opens, r.recoverBroker(crashRng))
	}
	b.res.Values["msgs_per_s"] = quantile(rates, fastRate)
	b.res.Samples["msgs_per_s"] = int64(len(rates))
	opens := make([]float64, len(r.opens))
	for i, t := range r.opens {
		opens[i] = b.clock.ref(t) / 1e6
	}
	b.res.Values["recovery_ms"] = quantile(opens, fastLatency)
	b.res.Samples["recovery_ms"] = int64(len(opens))
	b.brokerSpans(0, 0)

	// Audit: every acknowledged publish came out exactly once, bar the
	// poll windows crashes cut on plain topics.
	lostPlain, allowPlain := 0, 0
	for _, ct := range r.topics {
		lost := 0
		for seq, st := range ct.state {
			switch st {
			case stPublished:
				lost++
			case stDelivered:
				b.violate("crash-recover: %s message %d delivered but never acknowledged", ct.name, seq)
			}
		}
		switch {
		case ct.acked && lost > 0:
			b.violate("crash-recover: %s lost %d acknowledged messages", ct.name, lost)
		case ct.delay && lost > ct.lost:
			b.violate("crash-recover: %s lost %d acknowledged messages, %d tolerated", ct.name, lost, ct.lost)
		case !ct.acked && !ct.delay:
			lostPlain, allowPlain = lostPlain+lost, allowPlain+ct.lost
		}
	}
	if lostPlain > allowPlain {
		b.violate("crash-recover: plain topics lost %d acknowledged messages, %d tolerated", lostPlain, allowPlain)
	}
}
