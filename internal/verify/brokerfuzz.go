package verify

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/broker"
	"repro/internal/dheap"
	"repro/internal/obs"
	"repro/internal/pmem"
)

// The broker's crash audits, each written once. A scenario builds a
// broker through the exported API only, runs concurrent traffic until
// a power loss armed at a seed-chosen access of one member heap (the
// set shares one power supply, so one domain's failure downs them
// all), recovers the broker with Open and audits what came back. The
// broker package's TestBrokerCrashFuzz* tiers and `crashfuzz -smoke`
// are both loops over BrokerScenarios, so a protocol change updates
// one audit.

// BrokerScenario is one seed-parameterised broker crash audit.
type BrokerScenario struct {
	Name string
	// Summary says what runs and what the audit demands, in one line.
	Summary string
	// Threads is the scenario broker's thread-id bound: an observer
	// handed to Run must admit at least that many.
	Threads int
	run     func(seed int64, o *obs.Observer) (BrokerFuzzResult, error)
}

// BrokerFuzzResult is what a scenario reports beside its verdict.
type BrokerFuzzResult struct {
	// MidTraffic is true when the armed power loss fired while traffic
	// was running, false when traffic finished first and the set was
	// crashed at quiescence. Both are legal runs; a tier whose seeds
	// all end at quiescence has stopped testing what it is named for.
	MidTraffic bool
	// Tally is the audit's one-line count of what went where.
	Tally string
}

// Run executes the scenario once. o may be nil; when it is not, the
// scenario's brokers — the one that crashes and the one recovered from
// it — report to it, so its trace spans the power loss. An audit
// failure names the scenario and the seed that reproduce it.
func (s BrokerScenario) Run(seed int64, o *obs.Observer) (BrokerFuzzResult, error) {
	res, err := s.run(seed, o)
	if err != nil {
		err = fmt.Errorf("%s seed %d: %w (rerun: go run ./cmd/crashfuzz -smoke -seed %d)", s.Name, seed, err, seed)
	}
	return res, err
}

// BrokerScenarios is the table. The first four are one round — mixed
// producers against a plain consumer group — at different poll batch
// sizes and heap counts.
var BrokerScenarios = []BrokerScenario{
	{
		Name:    "broker-single",
		Summary: "1 heap, Poll one at a time: every acknowledged publish delivered or recovered exactly once, per-shard per-producer FIFO, at most one in-flight message lost per consumer",
		Threads: plainThreads,
		run:     func(seed int64, o *obs.Observer) (BrokerFuzzResult, error) { return plainGroupRound(seed, o, 1, 1) },
	},
	{
		Name:    "broker-batched",
		Summary: "1 heap, PollBatch(8): a batch is acknowledged as a whole when the poll returns, so the loss allowance grows to one batch per consumer; acknowledged deliveries never reappear",
		Threads: plainThreads,
		run:     func(seed int64, o *obs.Observer) (BrokerFuzzResult, error) { return plainGroupRound(seed, o, 8, 1) },
	},
	{
		Name:    "broker-multiheap",
		Summary: "2 heaps, crash armed on one member, whole-set recovery from heap 0's catalog and heap 1's stamp, exactly-once across the set",
		Threads: plainThreads,
		run:     func(seed int64, o *obs.Observer) (BrokerFuzzResult, error) { return plainGroupRound(seed, o, 8, 2) },
	},
	{
		Name:    "broker-multiheap-3",
		Summary: "3 heaps, Poll one at a time, same audit",
		Threads: plainThreads,
		run:     func(seed int64, o *obs.Observer) (BrokerFuzzResult, error) { return plainGroupRound(seed, o, 1, 3) },
	},
	{
		Name:    "broker-consumer-crash",
		Summary: "acked group, two consumers killed mid-batch, lease takeover redelivers at least the victim's window, then power loss: no message acknowledged twice, every publish processed exactly once",
		Threads: consumerCrashThreads,
		run:     consumerCrashRound,
	},
	{
		Name:    "broker-dynamic-topics",
		Summary: "topics created mid-traffic on the live broker, power loss (sometimes inside CreateTopic), catalog-log recovery: every creation that returned exists, exactly-once over initial and dynamic topics",
		Threads: dynamicTopicsThreads,
		run:     dynamicTopicsRound,
	},
	{
		Name:    "broker-membership-churn",
		Summary: "members stall and are fenced by scans or robbed by work-stealing, one is killed and scanned away, then power loss: stale-epoch acks refused with ErrFenced, exactly-once processing",
		Threads: membershipChurnThreads,
		run:     membershipChurnRound,
	},
	{
		Name:    "broker-topic-churn",
		Summary: "create, publish, drain, delete cycles through a small catalog log (tombstones, free-list reuse, compactions) with a publisher racing every delete: a returned delete never resurrects, a torn one lands either way, exactly-once over survivors",
		Threads: topicChurnThreads,
		run:     topicChurnRound,
	},
	{
		Name:    "broker-delay-topics",
		Summary: "delay and priority heaps under singles and batches, power loss anywhere in push or pop-min: kinds recover, nothing before its deadline, nothing twice, recovered backlog pops in key order, at most one pop window lost per consumer",
		Threads: heapTopicsThreads,
		run:     heapTopicsRound,
	},
}

// blobPayload embeds id in a deterministic variable-length payload so
// an audit can both identify and integrity-check delivered bytes.
func blobPayload(id uint64) []byte {
	n := 9 + int(id%80)
	p := make([]byte, n)
	copy(p, broker.U64(id))
	for i := 8; i < n; i++ {
		p[i] = byte(id>>(8*uint(i%8)) ^ uint64(i))
	}
	return p
}

// checkPayload verifies a delivered payload against its embedded id:
// fixed topics carry the bare 8 bytes, blob topics a blobPayload.
func checkPayload(p []byte) (uint64, error) {
	id := broker.AsU64(p[:8])
	if len(p) > 8 && !bytes.Equal(p, blobPayload(id)) {
		return id, fmt.Errorf("payload of %#x corrupted", id)
	}
	return id, nil
}

func fifoTopics(acked bool) []broker.TopicConfig {
	return []broker.TopicConfig{
		{Name: "events", Shards: 4, Acked: acked},                // fixed 8-byte payloads
		{Name: "jobs", Shards: 4, MaxPayload: 100, Acked: acked}, // variable payloads
	}
}

// newBroker opens a broker on the blank set and populates it: one
// CreateTopic per topic, then ackGroups lease regions each sized
// exactly to the shard total.
func newBroker(hs *pmem.HeapSet, opts broker.Options, topics []broker.TopicConfig, ackGroups int) (*broker.Broker, error) {
	b, err := broker.Open(hs, opts)
	if err != nil {
		return nil, err
	}
	for _, tc := range topics {
		if _, err := b.CreateTopic(0, tc); err != nil {
			return nil, err
		}
	}
	for g := 0; g < ackGroups; g++ {
		if _, err := b.CreateAckGroup(0, broker.AckGroupConfig{Capacity: b.ShardTotal()}); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// firstError keeps the first failure any worker goroutine reports; the
// round returns it after the join.
type firstError struct {
	mu  sync.Mutex
	err error
}

func (f *firstError) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstError) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// powerLoss ends a round's traffic phase: when the armed crash has not
// fired (traffic finished first) the set is crashed at quiescence; the
// crash is then finalized from finalizeSeed and the set restarted. It
// reports whether the armed crash fired.
func powerLoss(hs *pmem.HeapSet, finalizeSeed int64) (midTraffic bool) {
	midTraffic = hs.Crashed()
	if !midTraffic {
		hs.CrashNow()
	}
	hs.FinalizeCrash(rand.New(rand.NewSource(finalizeSeed)))
	hs.Restart()
	return midTraffic
}

// mixedProducer publishes ids (p+1)<<32|m for m in [first, first+n)
// as thread p: one in three a single publish to events, the rest a
// batch of up to six consecutive ids to jobs, acknowledged as a whole.
// Ids ascend, so every shard sees one producer's messages in id order
// — the FIFO the audits check. It returns the ids whose publish
// returned, stopping at the power loss.
func mixedProducer(b *broker.Broker, p int, rng *rand.Rand, first, n uint64) (acked []uint64) {
	events, jobs := b.Topic("events"), b.Topic("jobs")
	for m := first; m < first+n; {
		// Yield between publishes so consumers interleave even on a
		// single-P runtime; the crash window is far shorter than a
		// preemption quantum.
		runtime.Gosched()
		if rng.Intn(3) == 0 {
			id := uint64(p+1)<<32 | m
			if pmem.Protect(func() { events.Publish(p, broker.U64(id)) }) {
				return acked
			}
			acked = append(acked, id)
			m++
			continue
		}
		var batch [][]byte
		var ids []uint64
		for len(batch) < 6 && m < first+n {
			ids = append(ids, uint64(p+1)<<32|m)
			batch = append(batch, blobPayload(ids[len(ids)-1]))
			m++
		}
		if pmem.Protect(func() { jobs.PublishBatch(p, batch) }) {
			return acked
		}
		acked = append(acked, ids...)
	}
	return acked
}

// plainConsumer polls a plain-group member on tid, window messages at
// a time (Poll when window is 1), until done is closed and two sweeps
// in a row came back empty, or the power loss. A poll cut off by the
// crash returns nothing: its whole window is unacknowledged. It
// returns the ids it was handed and how many of them it was handed
// twice.
func plainConsumer(cons *broker.Consumer, tid, window int, done <-chan struct{}) (delivered map[uint64]bool, redelivered int) {
	delivered = map[uint64]bool{}
	idle := false
	for {
		runtime.Gosched()
		var ms []broker.Message
		if pmem.Protect(func() {
			if window == 1 {
				if m, ok := cons.Poll(tid); ok {
					ms = []broker.Message{m}
				}
			} else {
				ms = cons.PollBatch(tid, window)
			}
		}) {
			return delivered, redelivered
		}
		if len(ms) > 0 {
			for _, m := range ms {
				id := broker.AsU64(m.Payload[:8])
				if delivered[id] {
					redelivered++
				}
				delivered[id] = true
			}
			idle = false
			continue
		}
		select {
		case <-done:
			if idle {
				return delivered, redelivered
			}
			idle = true
		default:
		}
	}
}

// markSeen folds one population of pre-crash deliveries into seen,
// refusing an id another population already holds.
func markSeen(seen map[uint64]string, ids map[uint64]bool, how string) error {
	for id := range ids {
		if prev, dup := seen[id]; dup {
			return fmt.Errorf("message %#x delivered twice (%s and %s)", id, prev, how)
		}
		seen[id] = how
	}
	return nil
}

// markDelivered folds what each plain-group member was handed before
// the crash into seen: no member was handed an id twice, and no two
// members the same id.
func markDelivered(seen map[uint64]string, delivered []map[uint64]bool, redelivered []int) error {
	for c := range delivered {
		if redelivered[c] > 0 {
			return fmt.Errorf("consumer %d saw %d re-deliveries", c, redelivered[c])
		}
		if err := markSeen(seen, delivered[c], "delivered"); err != nil {
			return err
		}
	}
	return nil
}

// drainRecovered empties every FIFO shard of the recovered broker into
// seen: payloads intact, nothing already seen comes back, and within a
// shard each publisher's ids ascend. It returns the backlog's size.
func drainRecovered(r *broker.Broker, seen map[uint64]string) (int, error) {
	n := 0
	for _, topic := range r.Topics() {
		for s := 0; s < topic.Shards(); s++ {
			lastPerPublisher := map[uint64]uint64{}
			for {
				p, ok := topic.DequeueShard(0, s)
				if !ok {
					break
				}
				id, err := checkPayload(p)
				if err != nil {
					return n, fmt.Errorf("recovered %w", err)
				}
				if prev, dup := seen[id]; dup {
					return n, fmt.Errorf("message %#x both %s and recovered", id, prev)
				}
				seen[id] = "recovered"
				pub, m := id>>32, id&0xffffffff
				if last := lastPerPublisher[pub]; m <= last {
					return n, fmt.Errorf("shard %s/%d: publisher %d out of order (%d after %d)",
						topic.Name(), s, pub, m, last)
				}
				lastPerPublisher[pub] = m
				n++
			}
		}
	}
	return n, nil
}

// drainAcked binds a fresh one-member group to the recovered broker's
// lease region and processes the backlog into seen — poll, audit, ack —
// refusing anything a pre-crash consumer had already acknowledged. It
// returns the number of messages drained.
func drainAcked(r *broker.Broker, seen map[uint64]string) (int, error) {
	g, err := r.NewGroupAcked([]string{"events", "jobs"}, 1, broker.LeaseConfig{TTL: 5, Now: func() uint64 { return 0 }})
	if err != nil {
		return 0, err
	}
	c, n := g.Consumer(0), 0
	for {
		ms := c.PollBatch(0, 16)
		if len(ms) == 0 {
			return n, nil
		}
		for _, m := range ms {
			id, err := checkPayload(m.Payload)
			if err != nil {
				return n, fmt.Errorf("recovered %w", err)
			}
			if prev, dup := seen[id]; dup {
				return n, fmt.Errorf("message %#x both acknowledged by %s and redelivered after recovery", id, prev)
			}
			seen[id] = "post-crash drain"
			n++
		}
		c.Ack(0)
	}
}

// markProcessed folds the per-consumer acknowledged-and-recorded sets
// into seen: "processed" means acknowledged, and nothing may be
// acknowledged twice.
func markProcessed(seen map[uint64]string, processed []map[uint64]bool) error {
	for c := range processed {
		for id := range processed[c] {
			if prev, dup := seen[id]; dup {
				return fmt.Errorf("message %#x acknowledged twice (%s and consumer %d)", id, prev, c)
			}
			seen[id] = fmt.Sprintf("consumer %d", c)
		}
	}
	return nil
}

// countLost reports how many acknowledged publishes there were and how
// many of them the audit never saw.
func countLost(seen map[uint64]string, acked ...[]uint64) (total, lost int) {
	for _, ids := range acked {
		total += len(ids)
		for _, id := range ids {
			if _, ok := seen[id]; !ok {
				lost++
			}
		}
	}
	return total, lost
}

const plainThreads = 3 + 2 // producers + consumers

// plainGroupRound is the whole-broker durability audit: concurrent
// producers (mixing per-message, keyed, batch and pipelined publishes)
// and a plain consumer group run until the power loss; the broker is
// recovered from its catalog alone and audited — every acknowledged
// publish across all topics and shards is delivered or recovered
// exactly once, and per-shard per-producer FIFO holds.
func plainGroupRound(seed int64, o *obs.Observer, dequeueBatch, heaps int) (res BrokerFuzzResult, err error) {
	const (
		producers   = 3
		consumers   = 2
		perProducer = 3000
		threads     = plainThreads
	)
	hs := pmem.NewSet(heaps, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: threads})
	b, err := newBroker(hs, broker.Options{Threads: threads, Observer: o}, fifoTopics(false), 0)
	if err != nil {
		return res, err
	}
	g, err := b.NewGroup([]string{"events", "jobs"}, consumers)
	if err != nil {
		return res, err
	}
	crashRng := rand.New(rand.NewSource(seed))
	// The window is sized to the workload's actual per-heap access count
	// (~100k/heaps for 9000 messages) so the crash usually lands
	// mid-traffic rather than at quiescence.
	hs.Heap(crashRng.Intn(heaps)).ScheduleCrashAtAccess((20_000 + int64(crashRng.Intn(140_000))) / int64(heaps))

	acked := make([][]uint64, producers)
	delivered := make([]map[uint64]bool, consumers)
	redelivered := make([]int, consumers)
	var fail firstError
	var producersDone, wg sync.WaitGroup
	// Gate all workers on one signal so consumers race producers from
	// the first access — without it the crash (which fires within tens
	// of thousands of accesses) usually lands before the consumer
	// goroutines are even scheduled and the delivered-side audit is
	// vacuous.
	var start sync.WaitGroup
	start.Add(1)

	for p := 0; p < producers; p++ {
		wg.Add(1)
		producersDone.Add(1)
		go func(p int) {
			defer wg.Done()
			defer producersDone.Done()
			start.Wait()
			rng := rand.New(rand.NewSource(seed*997 + int64(p)))
			events, jobs := b.Topic("events"), b.Topic("jobs")
			// The pipelined arm: windows issue unfenced and acknowledge
			// one flush late, so `issued` tracks ids whose covering fence
			// is still owed. A crash discards them (they were never
			// acknowledged; whatever landed durably is recovered, which
			// the audit allows).
			pub := events.NewPublisher(p, broker.PublisherConfig{
				Policy: batch.NewAIMD(1, 8), Pipeline: true,
			})
			var issued []uint64
			ackN := func(n int) {
				acked[p] = append(acked[p], issued[:n]...)
				issued = issued[n:]
			}
			// Each iteration publishes ids in increasing order before
			// minting the next, so every shard sees any one producer's
			// messages with ascending ids.
			for m := uint64(1); m <= perProducer; {
				runtime.Gosched()
				id := uint64(p+1)<<32 | m
				switch rng.Intn(5) {
				case 0: // fixed-topic publish (after draining the pipeline:
					// a buffered window holds earlier ids, and publishing id
					// directly before they land would break per-shard FIFO)
					n := 0
					if pmem.Protect(func() { n = pub.Flush(); events.Publish(p, broker.U64(id)) }) {
						return
					}
					ackN(n)
					acked[p] = append(acked[p], id)
					m++
				case 1: // keyed publish
					if pmem.Protect(func() { jobs.PublishKey(p, broker.U64(id%5), blobPayload(id)) }) {
						return
					}
					acked[p] = append(acked[p], id)
					m++
				case 2: // pipelined adaptive burst, acked one window late
					for burst := 0; burst < 8 && m <= perProducer; burst++ {
						id := uint64(p+1)<<32 | m
						n := 0
						if pmem.Protect(func() { n = pub.Publish(broker.U64(id)) }) {
							return
						}
						issued = append(issued, id)
						ackN(n)
						m++
					}
				default: // batch of consecutive ids, acked as a whole
					var batch [][]byte
					var ids []uint64
					for len(batch) < 8 && m <= perProducer {
						ids = append(ids, uint64(p+1)<<32|m)
						batch = append(batch, blobPayload(ids[len(ids)-1]))
						m++
					}
					if pmem.Protect(func() { jobs.PublishBatch(p, batch) }) {
						return
					}
					acked[p] = append(acked[p], ids...)
				}
			}
			// Drain the pipeline: after Flush every issued id is durably
			// acknowledged.
			n := 0
			if pmem.Protect(func() { n = pub.Flush() }) {
				return
			}
			ackN(n)
			if len(issued) != 0 {
				fail.set(fmt.Errorf("producer %d: publisher Flush left %d ids unacknowledged", p, len(issued)))
			}
		}(p)
	}

	done := make(chan struct{})
	go func() { producersDone.Wait(); close(done) }()
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			start.Wait()
			delivered[c], redelivered[c] = plainConsumer(g.Consumer(c), producers+c, dequeueBatch, done)
		}(c)
	}
	start.Done()
	wg.Wait()
	res.MidTraffic = powerLoss(hs, seed*31)
	if err := fail.get(); err != nil {
		return res, err
	}

	r, err := broker.Open(hs, broker.Options{Threads: threads, Observer: o})
	if err != nil {
		return res, err
	}
	seen := map[uint64]string{}
	if err := markDelivered(seen, delivered, redelivered); err != nil {
		return res, err
	}
	recovered, err := drainRecovered(r, seen)
	if err != nil {
		return res, err
	}
	total, lost := countLost(seen, acked...)
	res.Tally = fmt.Sprintf("acked %d, delivered %d, recovered backlog %d, in-flight losses %d",
		total, len(seen)-recovered, recovered, lost)
	// Each consumer may have one unacknowledged poll window whose
	// persists completed just before the crash cut off the delivery
	// record: 1 message on the Poll path, up to the poll batch size on
	// the PollBatch path (the window's final NTStores can land without
	// the batch's fence).
	if allowance := consumers * dequeueBatch; lost > allowance {
		return res, fmt.Errorf("%d acknowledged messages lost (allowance %d)", lost, allowance)
	}
	return res, nil
}

const consumerCrashThreads = 2 + 3 // producers + consumers

// consumerCrashRound is the consumer-crash audit: concurrent producers
// and an acked consumer group run while a killer repeatedly crashes a
// consumer mid-batch (after delivery, before acknowledgment), waits
// out its lease, and adopts its shards into a survivor; partway
// through, the power loss downs the whole heap set. The broker is
// recovered, a fresh group binds the lease region, and the audit
// demands exactly-once processing: no message is ever acknowledged
// twice (no acked message is redelivered, by takeover or by recovery),
// and every acknowledged publish is processed exactly once, up to the
// window-sized observer gap of acks whose fence completed just before
// the crash cut off the record.
func consumerCrashRound(seed int64, o *obs.Observer) (res BrokerFuzzResult, err error) {
	const (
		producers   = 2
		consumers   = 3
		perProducer = 2000
		window      = 8
		heaps       = 2
		threads     = consumerCrashThreads
	)
	hs := pmem.NewSet(heaps, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: threads})
	b, err := newBroker(hs, broker.Options{Threads: threads, Observer: o}, fifoTopics(true), 1)
	if err != nil {
		return res, err
	}
	var clk atomic.Uint64
	g, err := b.NewGroupAcked([]string{"events", "jobs"}, consumers, broker.LeaseConfig{TTL: 5, Now: clk.Load})
	if err != nil {
		return res, err
	}
	// The window matches this workload's real access volume (~4000
	// messages ≈ 90k accesses across the set, counting lease and ack
	// traffic), so the crash usually lands mid-traffic — with kills and
	// takeovers already behind it — rather than at quiescence.
	crashRng := rand.New(rand.NewSource(seed))
	hs.Heap(crashRng.Intn(heaps)).ScheduleCrashAtAccess((10_000 + int64(crashRng.Intn(60_000))) / int64(heaps))

	acked := make([][]uint64, producers)
	processed := make([]map[uint64]bool, consumers) // acked-and-recorded, per consumer
	var killFlag [consumers]atomic.Bool
	var consumerDone [consumers]chan struct{}
	var victimWindow [consumers]int // the unacknowledged window a killed consumer died holding
	var fail firstError
	var producersDone, wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)

	for p := 0; p < producers; p++ {
		wg.Add(1)
		producersDone.Add(1)
		go func(p int) {
			defer wg.Done()
			defer producersDone.Done()
			start.Wait()
			acked[p] = mixedProducer(b, p, rand.New(rand.NewSource(seed*887+int64(p))), 1, perProducer)
		}(p)
	}

	done := make(chan struct{})
	go func() { producersDone.Wait(); close(done) }()
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		processed[c] = map[uint64]bool{}
		consumerDone[c] = make(chan struct{})
		go func(c int) {
			defer wg.Done()
			defer close(consumerDone[c])
			start.Wait()
			tid := producers + c
			cons := g.Consumer(c)
			idle := false
			for {
				runtime.Gosched()
				var ms []broker.Message
				if pmem.Protect(func() { ms = cons.PollBatch(tid, window) }) {
					return // power loss mid-poll
				}
				if len(ms) > 0 {
					idle = false
					for _, m := range ms {
						if _, err := checkPayload(m.Payload); err != nil {
							fail.set(fmt.Errorf("consumer %d: %w", c, err))
						}
					}
					// "Crash" mid-batch: delivered, never acknowledged —
					// the window must be redelivered via takeover.
					if killFlag[c].Load() {
						victimWindow[c] = len(ms)
						return
					}
					if pmem.Protect(func() { cons.Ack(tid) }) || hs.Crashed() {
						// Crash mid-ack: the ack may or may not be durable. And
						// once the set is down nothing is recorded: the crash
						// signal is raised only at a pmem access, so an Ack
						// that makes none — over redeliveries a crashed
						// takeover queued without moving their shard — returns
						// as if it had acknowledged.
						return
					}
					// Only now is the batch processed for the audit.
					for _, m := range ms {
						processed[c][broker.AsU64(m.Payload[:8])] = true
					}
					continue
				}
				select {
				case <-done:
					if killFlag[c].Load() || idle {
						return
					}
					idle = true
				default:
				}
			}
		}(c)
	}

	// The killer: crash consumers 1 and 2 mid-run, wait out their
	// leases, adopt their shards into consumer 0.
	wg.Add(1)
	go func() {
		defer wg.Done()
		start.Wait()
		for victim := 1; victim < consumers; victim++ {
			time.Sleep(time.Duration(1+crashRng.Intn(3)) * time.Millisecond)
			killFlag[victim].Store(true)
			<-consumerDone[victim]
			clk.Add(1000) // let the victim's leases expire
			vTid := producers + victim
			var moved int
			var aerr error
			if pmem.Protect(func() { moved, aerr = g.Adopt(vTid, victim, 0) }) || hs.Crashed() {
				return // power loss during takeover: a dead machine asserts nothing
			}
			if aerr != nil {
				fail.set(fmt.Errorf("Adopt(%d -> 0): %w", victim, aerr))
				return
			}
			if moved < victimWindow[victim] {
				fail.set(fmt.Errorf("takeover of consumer %d moved %d redeliveries, want at least the victim's window %d",
					victim, moved, victimWindow[victim]))
				return
			}
		}
	}()

	start.Done()
	wg.Wait()
	res.MidTraffic = powerLoss(hs, seed*17)
	if err := fail.get(); err != nil {
		return res, err
	}

	r, err := broker.Open(hs, broker.Options{Threads: threads, Observer: o})
	if err != nil {
		return res, err
	}
	// Exactly-once audit. "Processed" = acknowledged: once pre-crash
	// (recorded after Ack returned) or once in the post-crash drain.
	seen := map[uint64]string{}
	if err := markProcessed(seen, processed); err != nil {
		return res, err
	}
	drained, err := drainAcked(r, seen)
	if err != nil {
		return res, err
	}
	total, lost := countLost(seen, acked...)
	res.Tally = fmt.Sprintf("published %d, processed pre-crash %d, drained post-crash %d, observer-gap %d",
		total, len(seen)-drained, drained, lost)
	// The only permissible gap: a consumer whose Ack's fence completed
	// right before the power loss killed it between the fence and the
	// audit record — at most one poll window per consumer.
	if allowance := consumers * window; lost > allowance {
		return res, fmt.Errorf("%d acknowledged publishes never processed (allowance %d)", lost, allowance)
	}
	return res, nil
}

const dynamicTopicsThreads = 2 + 2 + 1 // producers + consumers + the administrator

// dynamicTopicsRound is the live-administration audit: producers and
// a consumer group hammer the initial topics while an administrator
// concurrently creates topics, publishes to them and drains some of
// their messages — until the power loss (sometimes landing inside
// CreateTopic itself). The broker is recovered from the catalog log
// alone and audited: every topic whose creation returned exists; every
// acknowledged publish — to initial and dynamic topics alike — is
// delivered or recovered exactly once, in per-shard order.
func dynamicTopicsRound(seed int64, o *obs.Observer) (res BrokerFuzzResult, err error) {
	const (
		producers   = 2
		consumers   = 2
		perProducer = 2500
		heaps       = 2
		adminTid    = producers + consumers
		threads     = dynamicTopicsThreads
		maxDyn      = 6
	)
	hs := pmem.NewSet(heaps, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: threads})
	b, err := newBroker(hs, broker.Options{Threads: threads, Observer: o}, fifoTopics(false), 0)
	if err != nil {
		return res, err
	}
	g, err := b.NewGroup([]string{"events", "jobs"}, consumers)
	if err != nil {
		return res, err
	}
	crashRng := rand.New(rand.NewSource(seed))
	hs.Heap(crashRng.Intn(heaps)).ScheduleCrashAtAccess((20_000 + int64(crashRng.Intn(120_000))) / int64(heaps))

	acked := make([][]uint64, producers)
	dynAcked := make(map[string][]uint64) // admin-published ids per dynamic topic
	var dynCreated []string               // creations that returned success
	delivered := make([]map[uint64]bool, consumers)
	redelivered := make([]int, consumers)
	adminDelivered := map[uint64]bool{}
	var fail firstError
	var producersDone, wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)

	for p := 0; p < producers; p++ {
		wg.Add(1)
		producersDone.Add(1)
		go func(p int) {
			defer wg.Done()
			defer producersDone.Done()
			start.Wait()
			acked[p] = mixedProducer(b, p, rand.New(rand.NewSource(seed*733+int64(p))), 1, perProducer)
		}(p)
	}

	// The administrator: create a topic, publish into it, consume a
	// little of it through a fresh single-member group — all while the
	// producers and the main group run full tilt on other tids.
	wg.Add(1)
	go func() {
		defer wg.Done()
		start.Wait()
		rng := rand.New(rand.NewSource(seed * 919))
		for d := 0; d < maxDyn; d++ {
			runtime.Gosched()
			name := fmt.Sprintf("dyn-%d", d)
			tc := broker.TopicConfig{Name: name, Shards: 1 + rng.Intn(3)}
			if rng.Intn(2) == 0 {
				tc.MaxPayload = 100 // fits every blobPayload
			}
			var cerr error
			if pmem.Protect(func() { _, cerr = b.CreateTopic(adminTid, tc) }) {
				return // crash inside the creation protocol
			}
			if cerr != nil {
				fail.set(fmt.Errorf("CreateTopic(%s): %w", name, cerr))
				return
			}
			dynCreated = append(dynCreated, name)
			topic := b.Topic(name)
			n := 20 + rng.Intn(40)
			for m := 1; m <= n; m++ {
				id := uint64(200+d)<<32 | uint64(m)
				payload := broker.U64(id)
				if tc.MaxPayload != 0 {
					payload = blobPayload(id)
				}
				if pmem.Protect(func() { topic.Publish(adminTid, payload) }) {
					return
				}
				dynAcked[name] = append(dynAcked[name], id)
			}
			// Drain a prefix through a fresh group on the admin tid, so
			// the audit sees both delivered and recovered populations.
			dg, gerr := b.NewGroup([]string{name}, 1)
			if gerr != nil {
				fail.set(fmt.Errorf("NewGroup(%s): %w", name, gerr))
				return
			}
			var ms []broker.Message
			if pmem.Protect(func() { ms = dg.Consumer(0).PollBatch(adminTid, n/2) }) {
				return
			}
			for _, m := range ms {
				adminDelivered[broker.AsU64(m.Payload[:8])] = true
			}
		}
	}()

	done := make(chan struct{})
	go func() { producersDone.Wait(); close(done) }()
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			start.Wait()
			delivered[c], redelivered[c] = plainConsumer(g.Consumer(c), producers+c, 8, done)
		}(c)
	}
	start.Done()
	wg.Wait()
	res.MidTraffic = powerLoss(hs, seed*37)
	if err := fail.get(); err != nil {
		return res, err
	}

	// Recovery adopts the recorded thread bound.
	r, err := broker.Open(hs, broker.Options{Observer: o})
	if err != nil {
		return res, err
	}
	// Every creation that returned must have committed; creations cut
	// off mid-call may or may not exist, but if they do they are empty.
	for _, name := range dynCreated {
		if r.Topic(name) == nil {
			return res, fmt.Errorf("topic %q was created (call returned) but did not recover", name)
		}
	}
	seen := map[uint64]string{}
	if err := markDelivered(seen, delivered, redelivered); err != nil {
		return res, err
	}
	if err := markSeen(seen, adminDelivered, "admin-delivered"); err != nil {
		return res, err
	}
	if _, err := drainRecovered(r, seen); err != nil {
		return res, err
	}
	lists := acked
	for _, ids := range dynAcked {
		lists = append(lists, ids)
	}
	total, lost := countLost(seen, lists...)
	res.Tally = fmt.Sprintf("acked %d (over 2 initial + %d dynamic topics), audited %d, in-flight losses %d",
		total, len(dynCreated), len(seen), lost)
	// Allowance: one unacknowledged poll window per main consumer (8)
	// plus the admin's one in-flight drain window (up to 30).
	if allowance := consumers*8 + 30; lost > allowance {
		return res, fmt.Errorf("%d acknowledged messages lost (allowance %d)", lost, allowance)
	}
	return res, nil
}

const topicChurnThreads = 2 + 2 + 2 // producers + consumers + administrator + racer

// topicChurnRound is the topic-churn audit: while producers and a
// consumer group hammer the static topics, an administrator churns
// topics — create, publish, drain a little, delete — through a
// deliberately small catalog log (so the storm runs through
// compactions too), while another thread publishes into whatever
// churn topic is currently alive, racing every delete. The power loss
// lands anywhere, including mid-delete and mid-compaction. The audit:
// recovery succeeds (replay's allocator simulation rejects any window
// overlap), no topic whose delete returned resurfaces, and every
// acknowledged publish to a surviving topic is delivered or recovered
// exactly once, in per-publisher order.
func topicChurnRound(seed int64, o *obs.Observer) (res BrokerFuzzResult, err error) {
	const (
		producers   = 2
		consumers   = 2
		perProducer = 2000
		heaps       = 2
		churnTid    = producers + consumers     // the administrator
		raceTid     = producers + consumers + 1 // publishes into live churn topics
		threads     = topicChurnThreads
		maxCycles   = 10
	)
	hs := pmem.NewSet(heaps, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: threads})
	// Small log: ~4 churn cycles fill it, so the storm exercises the
	// auto-compaction path under fire.
	b, err := newBroker(hs, broker.Options{Threads: threads, CatalogLines: 96, Observer: o}, fifoTopics(false), 0)
	if err != nil {
		return res, err
	}
	g, err := b.NewGroup([]string{"events", "jobs"}, consumers)
	if err != nil {
		return res, err
	}
	crashRng := rand.New(rand.NewSource(seed))
	hs.Heap(crashRng.Intn(heaps)).ScheduleCrashAtAccess((20_000 + int64(crashRng.Intn(120_000))) / int64(heaps))

	// Per churn cycle: lifecycle flags and the acknowledged ids, the
	// raced publisher's under raceMu (it appends concurrently).
	type churnCycle struct {
		created        bool
		deleteAttempt  bool
		deleteReturned bool
		acked          []uint64
		raceAcked      []uint64
	}
	cycles := make([]*churnCycle, maxCycles)
	for i := range cycles {
		cycles[i] = &churnCycle{}
	}
	var raceMu sync.Mutex
	var liveCycle atomic.Int64 // index of the currently alive churn topic, -1 when none
	liveCycle.Store(-1)

	acked := make([][]uint64, producers)
	delivered := make([]map[uint64]bool, consumers)
	redelivered := make([]int, consumers)
	churnDelivered := map[uint64]bool{}
	var fail firstError
	var producersDone, wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)

	for p := 0; p < producers; p++ {
		wg.Add(1)
		producersDone.Add(1)
		go func(p int) {
			defer wg.Done()
			defer producersDone.Done()
			start.Wait()
			acked[p] = mixedProducer(b, p, rand.New(rand.NewSource(seed*733+int64(p))), 1, perProducer)
		}(p)
	}

	// The administrator: one full lifecycle per cycle — create, publish,
	// drain a prefix, occasionally compact, then (usually) delete.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer liveCycle.Store(-1)
		start.Wait()
		rng := rand.New(rand.NewSource(seed * 919))
		for d := 0; d < maxCycles; d++ {
			runtime.Gosched()
			st := cycles[d]
			name := fmt.Sprintf("churn-%d", d)
			tc := broker.TopicConfig{Name: name, Shards: 1 + rng.Intn(2)}
			if rng.Intn(2) == 0 {
				tc.MaxPayload = 100
			}
			var cerr error
			if pmem.Protect(func() { _, cerr = b.CreateTopic(churnTid, tc) }) {
				return
			}
			if cerr != nil {
				fail.set(fmt.Errorf("CreateTopic(%s): %w", name, cerr))
				return
			}
			st.created = true
			liveCycle.Store(int64(d))
			topic := b.Topic(name)
			n := 15 + rng.Intn(30)
			for m := 1; m <= n; m++ {
				id := uint64(300+d)<<32 | uint64(m)
				payload := broker.U64(id)
				if tc.MaxPayload != 0 {
					payload = blobPayload(id)
				}
				if pmem.Protect(func() { topic.Publish(churnTid, payload) }) {
					return
				}
				st.acked = append(st.acked, id)
			}
			// Drain a prefix so the audit sees delivered, dropped and
			// recovered populations.
			for s := 0; s < topic.Shards(); s++ {
				for k := 0; k < 4; k++ {
					var p []byte
					var ok bool
					if pmem.Protect(func() { p, ok = topic.DequeueShard(churnTid, s) }) {
						return
					}
					if !ok {
						break
					}
					churnDelivered[broker.AsU64(p[:8])] = true
				}
			}
			if rng.Intn(3) == 0 {
				var kerr error
				if pmem.Protect(func() { kerr = b.CompactCatalog(churnTid, 0) }) {
					return
				}
				if kerr != nil {
					fail.set(fmt.Errorf("CompactCatalog: %w", kerr))
					return
				}
			}
			if rng.Intn(4) == 0 {
				continue // let this one live
			}
			liveCycle.Store(-1)
			st.deleteAttempt = true
			var derr error
			if pmem.Protect(func() { derr = b.DeleteTopic(churnTid, name) }) {
				return // crash inside the delete protocol: existence is ambiguous
			}
			if derr != nil {
				fail.set(fmt.Errorf("DeleteTopic(%s): %w", name, derr))
				return
			}
			st.deleteReturned = true
		}
	}()

	// The racer: publish into whatever churn topic is alive right now,
	// racing the administrator's deletes — a publish that loses the race
	// observes ErrTopicDeleted and is simply not acknowledged.
	wg.Add(1)
	raceDone := make(chan struct{})
	go func() {
		defer wg.Done()
		start.Wait()
		seq := uint64(0)
		for {
			select {
			case <-raceDone:
				return
			default:
			}
			runtime.Gosched()
			d := liveCycle.Load()
			if d < 0 {
				continue
			}
			topic := b.Topic(fmt.Sprintf("churn-%d", d))
			if topic == nil {
				continue
			}
			seq++
			id := uint64(500+d)<<32 | seq
			var perr error
			payload := broker.U64(id)
			if topic.MaxPayload() != 8 {
				payload = blobPayload(id)
			}
			if pmem.Protect(func() { perr = topic.Publish(raceTid, payload) }) {
				return
			}
			if perr == nil {
				raceMu.Lock()
				cycles[d].raceAcked = append(cycles[d].raceAcked, id)
				raceMu.Unlock()
			} else if !errors.Is(perr, broker.ErrTopicDeleted) {
				fail.set(fmt.Errorf("racer Publish: %w", perr))
				return
			}
		}
	}()

	done := make(chan struct{})
	go func() { producersDone.Wait(); close(done) }()
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			start.Wait()
			delivered[c], redelivered[c] = plainConsumer(g.Consumer(c), producers+c, 8, done)
		}(c)
	}
	start.Done()
	producersDone.Wait()
	close(raceDone)
	wg.Wait()
	res.MidTraffic = powerLoss(hs, seed*37)
	if err := fail.get(); err != nil {
		return res, err
	}

	// Recovery replays the catalog across whatever generations and
	// tombstones the churn left; its allocator simulation is itself the
	// no-window-overlap audit.
	r, err := broker.Open(hs, broker.Options{Observer: o})
	if err != nil {
		return res, err
	}
	ambiguous := 0
	for d, st := range cycles {
		name := fmt.Sprintf("churn-%d", d)
		exists := r.Topic(name) != nil
		switch {
		case st.deleteReturned && exists:
			return res, fmt.Errorf("topic %s resurrected: DeleteTopic returned, yet it recovered", name)
		case st.created && !st.deleteAttempt && !exists:
			return res, fmt.Errorf("topic %s lost: created and never deleted, yet it did not recover", name)
		case st.deleteAttempt && !st.deleteReturned:
			ambiguous++ // crash mid-delete: either outcome is legal
		}
	}

	seen := map[uint64]string{}
	if err := markDelivered(seen, delivered, redelivered); err != nil {
		return res, err
	}
	if err := markSeen(seen, churnDelivered, "churn-delivered"); err != nil {
		return res, err
	}
	if _, err := drainRecovered(r, seen); err != nil {
		return res, err
	}
	// Exactly-once is audited over the surviving topics: a deleted
	// topic's messages were deliberately dropped with it, so its acked
	// ids are exempt from the loss audit (their *deliveries* still went
	// through the duplicate check above).
	lists := acked
	churnAudited := 0
	for d, st := range cycles {
		if r.Topic(fmt.Sprintf("churn-%d", d)) != nil {
			churnAudited++
			lists = append(lists, st.acked, st.raceAcked)
		}
	}
	total, lost := countLost(seen, lists...)
	res.Tally = fmt.Sprintf("acked %d (auditing %d surviving churn topics, %d ambiguous deletes), audited %d, in-flight losses %d",
		total, churnAudited, ambiguous, len(seen), lost)
	// Allowance: one unacknowledged poll window per main consumer (8)
	// plus the churn drain's in-flight window.
	if allowance := consumers*8 + 8; lost > allowance {
		return res, fmt.Errorf("%d acknowledged messages lost (allowance %d)", lost, allowance)
	}
	return res, nil
}

// heapPayload is the 24-byte payload of the heap-topic audit: id, key,
// and an integrity word binding the two, so a torn or misdirected
// entry cannot masquerade as a delivery.
func heapPayload(id, key uint64) []byte {
	p := make([]byte, 24)
	copy(p, broker.U64(id))
	copy(p[8:], broker.U64(key))
	copy(p[16:], broker.U64(id^key^0xd11a))
	return p
}

func decodeHeapPayload(p []byte) (id, key uint64, err error) {
	if len(p) != 24 {
		return 0, 0, fmt.Errorf("heap payload length %d, want 24", len(p))
	}
	id, key = broker.AsU64(p[:8]), broker.AsU64(p[8:16])
	if broker.AsU64(p[16:]) != id^key^0xd11a {
		return id, key, fmt.Errorf("heap payload for %#x corrupted", id)
	}
	return id, key, nil
}

const heapTopicsThreads = 2 + 2 // producers + consumers

// heapTopicsRound is the heap-topic audit: producers publish to a
// delay and a priority topic (singles and batches) while consumers
// drain with an advancing logical clock, and after the power loss and
// recovery both topics come back with their kinds, the delay heap
// gates its whole backlog at time zero, every acknowledged message is
// delivered or recovered exactly once and never before its deadline,
// the recovered heaps pop in key order, and losses are bounded by the
// consumers' in-flight dequeue windows.
func heapTopicsRound(seed int64, o *obs.Observer) (res BrokerFuzzResult, err error) {
	const (
		producers   = 2
		consumers   = 2
		perProducer = 1200
		popBatch    = 8
		heaps       = 2
		threads     = heapTopicsThreads
	)
	hs := pmem.NewSet(heaps, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: threads})
	b, err := newBroker(hs, broker.Options{Threads: threads, Observer: o}, []broker.TopicConfig{
		{Name: "delay", Shards: 1, MaxPayload: 24, Kind: broker.KindDelay},
		{Name: "prio", Shards: 1, MaxPayload: 24, Kind: broker.KindPriority},
	}, 0)
	if err != nil {
		return res, err
	}
	// The window matches this workload's real access volume (~2400
	// messages ≈ 20k accesses across the set, ~10k on the armed heap:
	// heap pushes and pop-mins touch far fewer lines than a FIFO lease
	// and ack do), so the crash lands inside a push or a pop-min rather
	// than at quiescence.
	crashRng := rand.New(rand.NewSource(seed))
	hs.Heap(crashRng.Intn(heaps)).ScheduleCrashAtAccess((2_000 + int64(crashRng.Intn(14_000))) / int64(heaps))

	var clock atomic.Uint64
	clock.Store(1)

	acked := make([][]uint64, producers) // ids whose publish returned
	var fail firstError
	var wg, producersDone sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)

	for p := 0; p < producers; p++ {
		wg.Add(1)
		producersDone.Add(1)
		go func(p int) {
			defer wg.Done()
			defer producersDone.Done()
			start.Wait()
			rng := rand.New(rand.NewSource(seed*613 + int64(p)))
			delay, prio := b.Topic("delay"), b.Topic("prio")
			// batchOf mints up to six consecutive ids from m, keyed by key().
			batchOf := func(m uint64, key func() uint64) (ps [][]byte, keys, ids []uint64) {
				for len(ps) < 6 && m+uint64(len(ps)) <= perProducer {
					bid := uint64(p+1)<<32 | (m + uint64(len(ps)))
					k := key()
					ps = append(ps, heapPayload(bid, k))
					keys = append(keys, k)
					ids = append(ids, bid)
				}
				return ps, keys, ids
			}
			deadline := func() uint64 { return clock.Load() + uint64(rng.Intn(64)) }
			rank := func() uint64 { return uint64(rng.Intn(1000)) }
			for m := uint64(1); m <= perProducer; {
				runtime.Gosched()
				id := uint64(p+1)<<32 | m
				var err error
				var ids []uint64
				switch rng.Intn(4) {
				case 0: // single delayed publish
					key := deadline()
					if pmem.Protect(func() { err = delay.PublishAt(p, heapPayload(id, key), key) }) {
						return
					}
					ids = []uint64{id}
				case 1: // delayed batch, one fence
					ps, keys, bids := batchOf(m, deadline)
					if pmem.Protect(func() { err = delay.PublishAtBatch(p, ps, keys) }) {
						return
					}
					ids = bids
				case 2: // single priority publish
					key := rank()
					if pmem.Protect(func() { err = prio.PublishPriority(p, heapPayload(id, key), key) }) {
						return
					}
					ids = []uint64{id}
				default: // priority batch
					ps, keys, bids := batchOf(m, rank)
					if pmem.Protect(func() { err = prio.PublishPriorityBatch(p, ps, keys) }) {
						return
					}
					ids = bids
				}
				if errors.Is(err, dheap.ErrFull) {
					continue // backpressure: consumers are recycling slots
				}
				if err != nil {
					fail.set(fmt.Errorf("producer %d publish %#x: %w", p, id, err))
					return
				}
				acked[p] = append(acked[p], ids...)
				m += uint64(len(ids))
			}
		}(p)
	}

	done := make(chan struct{})
	go func() { producersDone.Wait(); close(done) }()
	delivered := make([]map[uint64]bool, consumers)
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		delivered[c] = map[uint64]bool{}
		go func(c int) {
			defer wg.Done()
			start.Wait()
			tid := producers + c
			delay, prio := b.Topic("delay"), b.Topic("prio")
			idle := false
			for turn := 0; ; turn++ {
				runtime.Gosched()
				now := clock.Add(1)
				tp := delay
				if turn%2 == 1 {
					tp = prio
				}
				var ps [][]byte
				var err error
				if pmem.Protect(func() { ps, err = tp.DequeueReadyBatch(tid, now, popBatch) }) {
					return // crash mid-dequeue: the window counts against the allowance
				}
				if err != nil {
					fail.set(fmt.Errorf("consumer %d dequeue: %w", c, err))
					return
				}
				if len(ps) > 0 {
					for _, p := range ps {
						id, key, err := decodeHeapPayload(p)
						switch {
						case err != nil:
							fail.set(fmt.Errorf("consumer %d: %w", c, err))
						case tp == delay && key > now:
							fail.set(fmt.Errorf("consumer %d: message %#x delivered %d ticks before its deadline", c, id, key-now))
						case delivered[c][id]:
							fail.set(fmt.Errorf("consumer %d: message %#x delivered twice before the crash", c, id))
						}
						delivered[c][id] = true
					}
					idle = false
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
	start.Done()
	wg.Wait()
	res.MidTraffic = powerLoss(hs, seed*37)
	if err := fail.get(); err != nil {
		return res, err
	}

	r, err := broker.Open(hs, broker.Options{Observer: o})
	if err != nil {
		return res, err
	}
	rd, rp := r.Topic("delay"), r.Topic("prio")
	if rd == nil || rp == nil {
		return res, fmt.Errorf("heap topics did not recover")
	}
	if rd.Kind() != broker.KindDelay || rp.Kind() != broker.KindPriority {
		return res, fmt.Errorf("heap topics recovered with wrong kinds (%v, %v)", rd.Kind(), rp.Kind())
	}
	seen := map[uint64]string{}
	for c := range delivered {
		if err := markSeen(seen, delivered[c], fmt.Sprintf("consumer %d", c)); err != nil {
			return res, err
		}
	}
	// The recovered delay backlog still gates: nothing was published
	// with a deadline below the clock's initial value.
	if ps, err := rd.DequeueReadyBatch(0, 0, 1000); err != nil || len(ps) != 0 {
		return res, fmt.Errorf("recovered delay topic delivered %d messages at now=0 (err %v)", len(ps), err)
	}
	recovered := 0
	for _, tp := range []*broker.Topic{rd, rp} {
		lastKey := uint64(0)
		for {
			p, ok, err := tp.DequeueReady(0, ^uint64(0))
			if err != nil {
				return res, err
			}
			if !ok {
				break
			}
			id, key, err := decodeHeapPayload(p)
			if err != nil {
				return res, fmt.Errorf("recovered %w", err)
			}
			if key < lastKey {
				return res, fmt.Errorf("%s recovered out of key order: %d after %d", tp.Name(), key, lastKey)
			}
			lastKey = key
			if prev, dup := seen[id]; dup {
				return res, fmt.Errorf("message %#x both delivered (%s) and recovered", id, prev)
			}
			seen[id] = "recovered"
			recovered++
		}
	}
	total, lost := countLost(seen, acked...)
	res.Tally = fmt.Sprintf("acked %d, delivered %d, recovered %d, losses %d",
		total, len(seen)-recovered, recovered, lost)
	// Each consumer may lose one unacknowledged in-flight dequeue batch
	// whose consume NTStores landed without their covering return.
	if allowance := consumers * popBatch; lost > allowance {
		return res, fmt.Errorf("%d acknowledged messages lost (allowance %d)", lost, allowance)
	}
	return res, nil
}

const membershipChurnThreads = 2 + 3 + 1 // producers + consumers + the churn controller

// stallCtl coordinates one stall cycle: the consumer closes stalled
// when it parks holding a delivered-but-unacked window, and unparks
// on resume.
type stallCtl struct {
	stalled chan struct{}
	resume  chan struct{}
}

// membershipChurnRound is the membership-churn audit: beside
// concurrent producers, members stall (keep running but stop acking
// and heartbeating), get fenced and split by mid-traffic scans or
// robbed shard-by-shard by work-stealing, resurface and have their
// stale acks refused; one member is killed outright and scanned away;
// then the whole heap set loses power mid-traffic. The audit demands
// exactly-once processing over every path and at least one provably
// refused stale-epoch ack per run.
func membershipChurnRound(seed int64, o *obs.Observer) (res BrokerFuzzResult, err error) {
	const (
		producers   = 2
		consumers   = 3
		perProducer = 2500
		window      = 8
		heaps       = 2
		threads     = membershipChurnThreads
		ctlTid      = producers + consumers
	)
	hs := pmem.NewSet(heaps, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: threads})
	b, err := newBroker(hs, broker.Options{Threads: threads, Observer: o}, fifoTopics(true), 1)
	if err != nil {
		return res, err
	}
	var clk atomic.Uint64
	g, err := b.NewGroupAcked([]string{"events", "jobs"}, consumers, broker.LeaseConfig{TTL: 5, Now: clk.Load})
	if err != nil {
		return res, err
	}

	acked := make([][]uint64, producers)
	processed := make([]map[uint64]bool, consumers)
	var staleRefused atomic.Uint64

	// Deterministic prologue, before any goroutine starts: member 1
	// stalls on a window, the scanner fences it, and its resurfacing
	// ack is provably refused — the churn invariant holds whatever the
	// concurrent phase's timing does. The seed window is redelivered
	// to the survivors and audited like everything else.
	var prologue []uint64
	for m := uint64(1); m <= 16; m++ {
		id := uint64(1)<<32 | m
		b.Topic("events").Publish(0, broker.U64(id))
		prologue = append(prologue, id)
	}
	if ms := g.Consumer(1).PollBatch(producers+1, window); len(ms) == 0 {
		return res, fmt.Errorf("prologue: member 1 polled nothing")
	}
	clk.Add(1000)
	rep, err := g.Scan(ctlTid, clk.Load())
	if err != nil {
		return res, err
	}
	if len(rep.Expired) != 1 || rep.Expired[0] != 1 {
		return res, fmt.Errorf("prologue scan expired %v, want [1]", rep.Expired)
	}
	if _, err := g.Consumer(1).Ack(producers + 1); !errors.Is(err, broker.ErrFenced) {
		return res, fmt.Errorf("prologue stale ack returned %v, want ErrFenced", err)
	}
	staleRefused.Add(1)

	// Now arm the mid-traffic power loss and let the storm loose.
	crashRng := rand.New(rand.NewSource(seed))
	hs.Heap(crashRng.Intn(heaps)).ScheduleCrashAtAccess((20_000 + int64(crashRng.Intn(80_000))) / int64(heaps))

	var killFlag [consumers]atomic.Bool
	var consumerDone [consumers]chan struct{}
	var ctlOf [consumers]atomic.Pointer[stallCtl]
	var fail firstError
	var producersDone, wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)

	for p := 0; p < producers; p++ {
		wg.Add(1)
		producersDone.Add(1)
		go func(p int) {
			defer wg.Done()
			defer producersDone.Done()
			start.Wait()
			// Ids start at 100: the prologue minted producer 0's 1..16.
			acked[p] = mixedProducer(b, p, rand.New(rand.NewSource(seed*887+int64(p))), 100, perProducer)
		}(p)
	}

	done := make(chan struct{})
	go func() { producersDone.Wait(); close(done) }()
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		processed[c] = map[uint64]bool{}
		consumerDone[c] = make(chan struct{})
		go func(c int) {
			defer wg.Done()
			defer close(consumerDone[c])
			start.Wait()
			tid := producers + c
			cons := g.Consumer(c)
			idle := false
			for {
				runtime.Gosched()
				var ms []broker.Message
				if pmem.Protect(func() { ms = cons.PollBatch(tid, window) }) {
					return
				}
				if len(ms) > 0 {
					idle = false
					for _, m := range ms {
						if _, err := checkPayload(m.Payload); err != nil {
							fail.set(fmt.Errorf("consumer %d: %w", c, err))
						}
					}
					if ctl := ctlOf[c].Swap(nil); ctl != nil {
						// Stall: stop acking and heartbeating without
						// dying, window in flight, until resumed.
						close(ctl.stalled)
						<-ctl.resume
					}
					if killFlag[c].Load() {
						return
					}
					var aerr error
					if pmem.Protect(func() { _, aerr = cons.Ack(tid) }) || hs.Crashed() {
						return // a dead machine records nothing (see consumerCrashRound)
					}
					if errors.Is(aerr, broker.ErrFenced) {
						// The window was taken while we were silent; it is
						// someone else's now. Record nothing.
						staleRefused.Add(1)
						continue
					}
					for _, m := range ms {
						processed[c][broker.AsU64(m.Payload[:8])] = true
					}
					continue
				}
				// Idle members work-steal expired shards one at a time.
				var stole bool
				var serr error
				if pmem.Protect(func() { stole, _, serr = cons.Steal(tid) }) {
					return
				}
				if serr != nil {
					fail.set(fmt.Errorf("consumer %d steal: %w", c, serr))
					return
				}
				if stole {
					continue
				}
				select {
				case <-done:
					if killFlag[c].Load() || idle {
						return
					}
					idle = true
				default:
				}
			}
		}(c)
	}

	// The churn controller: stall-and-scan member 1, stall-and-steal
	// member 2, then kill member 1 outright and scan its corpse away.
	wg.Add(1)
	go func() {
		defer wg.Done()
		start.Wait()
		scan := func() {
			var serr error
			if !pmem.Protect(func() { _, serr = g.Scan(ctlTid, clk.Load()) }) && serr != nil {
				fail.set(fmt.Errorf("scan: %w", serr))
			}
		}
		stallCycle := func(victim int, steal bool) {
			ctl := &stallCtl{stalled: make(chan struct{}), resume: make(chan struct{})}
			ctlOf[victim].Store(ctl)
			select {
			case <-ctl.stalled:
			case <-consumerDone[victim]:
				ctlOf[victim].Swap(nil)
				return
			case <-time.After(2 * time.Second):
				if ctlOf[victim].Swap(nil) != nil {
					return // traffic ended before the victim saw a window
				}
				<-ctl.stalled // picked up at the last moment
			}
			defer close(ctl.resume)
			clk.Add(1000)
			if steal {
				for {
					var stole bool
					var serr error
					if pmem.Protect(func() { stole, _, serr = g.Consumer(0).Steal(ctlTid) }) {
						return
					}
					if serr != nil {
						fail.set(fmt.Errorf("controller steal: %w", serr))
					}
					if !stole {
						return
					}
				}
			}
			scan()
		}
		stallCycle(1, false)
		stallCycle(2, true)
		killFlag[1].Store(true)
		select {
		case <-consumerDone[1]:
		case <-time.After(5 * time.Second):
			return
		}
		clk.Add(1000)
		scan()
	}()

	start.Done()
	wg.Wait()
	res.MidTraffic = powerLoss(hs, seed*17)
	if err := fail.get(); err != nil {
		return res, err
	}

	r, err := broker.Open(hs, broker.Options{Threads: threads, Observer: o})
	if err != nil {
		return res, err
	}
	seen := map[uint64]string{}
	if err := markProcessed(seen, processed); err != nil {
		return res, err
	}
	drained, err := drainAcked(r, seen)
	if err != nil {
		return res, err
	}
	total, lost := countLost(seen, append(acked, prologue)...)
	res.Tally = fmt.Sprintf("published %d, processed pre-crash %d, drained post-crash %d, stale acks refused %d, observer-gap %d",
		total, len(seen)-drained, drained, staleRefused.Load(), lost)
	if staleRefused.Load() == 0 {
		return res, fmt.Errorf("no stale-epoch ack was exercised and refused")
	}
	// Same allowance as the consumer-crash audit: acks whose fence
	// completed right before the power loss cut off the audit record.
	if allowance := consumers * window; lost > allowance {
		return res, fmt.Errorf("%d acknowledged publishes never processed (allowance %d)", lost, allowance)
	}
	return res, nil
}
