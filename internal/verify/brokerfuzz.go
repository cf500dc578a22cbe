package verify

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

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
// one audit. The frame — set-up, arming, start gate, join, power loss,
// reopen, ledger — is round.go's; a scenario here is its constants, its
// actors and its own post-recovery checks.

// BrokerScenario is one seed-parameterised broker crash audit.
type BrokerScenario struct {
	Name string
	// Summary says what runs and what the audit demands, in one line.
	Summary string
	// Threads is the scenario broker's thread-id bound: an observer
	// handed to Run must admit at least that many.
	Threads int
	run     func(r *round) error
}

// BrokerFuzzResult is what a scenario reports beside its verdict.
type BrokerFuzzResult struct {
	// MidTraffic is true when the armed power loss fired while traffic
	// was running, false when traffic finished first and the set was
	// crashed at quiescence. Both are legal runs; a tier whose seeds
	// all end at quiescence has stopped testing what it is named for.
	MidTraffic bool
	// ArmedHeap and ArmedAccess say where the seed put the power loss:
	// the member heap, and how many further accesses of it from the
	// moment of arming. Zero access: the run failed before arming.
	ArmedHeap   int
	ArmedAccess int64
	// Tally is the audit's one-line count of what went where.
	Tally string
}

// Run executes the scenario once. o may be nil; when it is not, the
// scenario's brokers — the one that crashes and the one recovered from
// it — report to it, so its trace spans the power loss. An audit
// failure names the scenario, the seed and the armed crash point, and
// the command that reruns that one scenario at that seed.
func (s BrokerScenario) Run(seed int64, o *obs.Observer) (BrokerFuzzResult, error) {
	r := &round{seed: seed, o: o, threads: s.Threads, start: make(chan struct{}), done: make(chan struct{})}
	err := s.run(r)
	if err != nil {
		armed := "before the power loss was armed"
		if r.res.ArmedAccess > 0 {
			armed = fmt.Sprintf("armed heap %d at access %d", r.res.ArmedHeap, r.res.ArmedAccess)
		}
		err = fmt.Errorf("%s seed %d: %w (%s; rerun: go run ./cmd/crashfuzz -queue %s -seed %d)", s.Name, seed, err, armed, s.Name, seed)
	}
	return r.res, err
}

// BrokerScenarios is the table. The first four are one round — mixed
// producers against a plain consumer group — at different poll batch
// sizes and heap counts.
var BrokerScenarios = []BrokerScenario{
	{
		Name:    "broker-single",
		Summary: "1 heap, Poll one at a time: every acknowledged publish delivered or recovered exactly once, per-shard per-producer FIFO, at most one in-flight message lost per consumer",
		Threads: 3 + 2, // producers + consumers
		run:     func(r *round) error { return plainGroupRound(r, 1, 1) },
	},
	{
		Name:    "broker-batched",
		Summary: "1 heap, PollBatch(8): a batch is acknowledged as a whole when the poll returns, so the loss allowance grows to one batch per consumer; acknowledged deliveries never reappear",
		Threads: 3 + 2, // producers + consumers
		run:     func(r *round) error { return plainGroupRound(r, 8, 1) },
	},
	{
		Name:    "broker-multiheap",
		Summary: "2 heaps, crash armed on one member, whole-set recovery from heap 0's catalog and heap 1's stamp, exactly-once across the set",
		Threads: 3 + 2, // producers + consumers
		run:     func(r *round) error { return plainGroupRound(r, 8, 2) },
	},
	{
		Name:    "broker-multiheap-3",
		Summary: "3 heaps, Poll one at a time, same audit",
		Threads: 3 + 2, // producers + consumers
		run:     func(r *round) error { return plainGroupRound(r, 1, 3) },
	},
	{
		Name:    "broker-consumer-crash",
		Summary: "acked group, two consumers killed mid-batch, lease takeover redelivers at least the victim's window, then power loss: no message acknowledged twice, every publish processed exactly once",
		Threads: 2 + 3, // producers + consumers
		run:     consumerCrashRound,
	},
	{
		Name:    "broker-dynamic-topics",
		Summary: "topics created mid-traffic on the live broker, power loss (sometimes inside CreateTopic), catalog-log recovery: every creation that returned exists, exactly-once over initial and dynamic topics",
		Threads: 2 + 2 + 1, // producers + consumers + the administrator
		run:     dynamicTopicsRound,
	},
	{
		Name:    "broker-membership-churn",
		Summary: "members stall and are fenced by scans or robbed by work-stealing, one is killed and scanned away, then power loss: stale-epoch acks refused with ErrFenced, exactly-once processing",
		Threads: 2 + 3 + 1, // producers + consumers + the churn controller
		run:     membershipChurnRound,
	},
	{
		Name:    "broker-topic-churn",
		Summary: "create, publish, drain, delete cycles through a small catalog log (tombstones, window reuse, compactions) with a publisher racing every delete: a returned delete never resurrects, a torn one lands either way, exactly-once over survivors",
		Threads: 2 + 2 + 2, // producers + consumers + administrator + racer
		run:     topicChurnRound,
	},
	{
		Name:    "broker-delay-topics",
		Summary: "delay and priority heaps under singles and batches, power loss anywhere in push or pop-min: kinds recover, nothing before its deadline, nothing twice, recovered backlog pops in key order, at most one pop window lost per consumer",
		Threads: 2 + 2, // producers + consumers
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

// payloadFor is id's payload on topic: the bare 8 bytes on a fixed
// topic, a blobPayload on one that takes variable payloads.
func payloadFor(topic *broker.Topic, id uint64) []byte {
	if topic.MaxPayload() == 8 {
		return broker.U64(id)
	}
	return blobPayload(id)
}

func fifoTopics(acked bool) []broker.TopicConfig {
	return []broker.TopicConfig{
		{Name: "events", Shards: 4, Acked: acked},                // fixed 8-byte payloads
		{Name: "jobs", Shards: 4, MaxPayload: 100, Acked: acked}, // variable payloads
	}
}

// mixedProducer is the body of producer p publishing ids (p+1)<<32|m
// for m in [first, first+n), its choices seeded by seed*salt+p: one in
// three a single publish to events, the rest a batch of up to six
// consecutive ids to jobs, acknowledged as a whole. Ids ascend, so every
// shard sees one producer's messages in id order — the FIFO the audits
// check. It returns the ids whose publish returned, stopping at the
// power loss.
func mixedProducer(r *round, salt int64, first, n uint64) func(p int) []uint64 {
	return func(p int) (acked []uint64) {
		rng := rand.New(rand.NewSource(r.seed*salt + int64(p)))
		events, jobs := r.b.Topic("events"), r.b.Topic("jobs")
		for m := first; m < first+n; {
			r.yield()
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
}

// plainConsumer polls a plain-group member on tid, window messages at
// a time (Poll when window is 1), until traffic has ended and two sweeps
// in a row came back empty, or the power loss. A poll cut off by the
// crash returns nothing: its whole window is unacknowledged. It
// returns the ids it was handed and how many of them it was handed
// twice.
func plainConsumer(r *round, cons *broker.Consumer, tid, window int) (delivered map[uint64]bool, redelivered int) {
	delivered = map[uint64]bool{}
	idle := false
	for {
		r.yield()
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
		if r.trafficEnded() {
			if idle {
				return delivered, redelivered
			}
			idle = true
		}
	}
}

// plainConsumers subscribes a plain group of n members to the two FIFO
// topics and starts one plainConsumer actor per member, member c on tid
// firstTid+c. The slices it returns are filled by the time the round
// has joined.
func plainConsumers(r *round, n, firstTid, window int) (delivered []map[uint64]bool, redelivered []int, err error) {
	g, err := r.b.NewGroup([]string{"events", "jobs"}, n)
	if err != nil {
		return nil, nil, err
	}
	delivered, redelivered = make([]map[uint64]bool, n), make([]int, n)
	for c := 0; c < n; c++ {
		r.actor(func() {
			delivered[c], redelivered[c] = plainConsumer(r, g.Consumer(c), firstTid+c, window)
		})
	}
	return delivered, redelivered, nil
}

// plainGroupRound is the whole-broker durability audit: concurrent
// producers (mixing per-message, keyed and batch publishes) and a
// plain consumer group run until the power loss; the broker is
// recovered from its catalog alone and audited — every acknowledged
// publish across all topics and shards is delivered or recovered
// exactly once, and per-shard per-producer FIFO holds.
func plainGroupRound(r *round, dequeueBatch, heaps int) error {
	const (
		producers   = 3
		consumers   = 2
		perProducer = 3000
	)
	if err := r.open(heaps, fifoTopics(false), 0); err != nil {
		return err
	}
	delivered, redelivered, err := plainConsumers(r, consumers, producers, dequeueBatch)
	if err != nil {
		return err
	}
	// The window is sized to the workload's actual per-heap access count
	// (~100k/heaps for 9000 messages) so the crash usually lands
	// mid-traffic rather than at quiescence.
	r.arm(20_000, 140_000)

	r.producers(producers, func(p int) (acked []uint64) {
		rng := rand.New(rand.NewSource(r.seed*997 + int64(p)))
		events, jobs := r.b.Topic("events"), r.b.Topic("jobs")
		// Each iteration publishes ids in increasing order before
		// minting the next, so every shard sees any one producer's
		// messages with ascending ids.
		m := uint64(1)
		// burst publishes the next (up to) 8 ids to t as one batch,
		// acknowledged as a whole; true means the power loss hit it.
		burst := func(t *broker.Topic, payload func(uint64) []byte) bool {
			var batch [][]byte
			var ids []uint64
			for len(batch) < 8 && m <= perProducer {
				ids = append(ids, uint64(p+1)<<32|m)
				batch = append(batch, payload(ids[len(ids)-1]))
				m++
			}
			if pmem.Protect(func() { t.PublishBatch(p, batch) }) {
				return true
			}
			acked = append(acked, ids...)
			return false
		}
		for m <= perProducer {
			r.yield()
			id := uint64(p+1)<<32 | m
			switch rng.Intn(5) {
			case 0: // fixed-topic publish
				if pmem.Protect(func() { events.Publish(p, broker.U64(id)) }) {
					return acked
				}
				acked = append(acked, id)
				m++
			case 1: // keyed publish
				if pmem.Protect(func() { jobs.PublishKey(p, broker.U64(id%5), blobPayload(id)) }) {
					return acked
				}
				acked = append(acked, id)
				m++
			case 2: // fixed-topic batch
				if burst(events, broker.U64) {
					return acked
				}
			default: // blob-topic batch
				if burst(jobs, blobPayload) {
					return acked
				}
			}
		}
		return acked
	})

	rb, err := r.run(31, broker.Options{Threads: r.threads})
	if err != nil {
		return err
	}
	seen := newLedger()
	seen.markDelivered(delivered, redelivered)
	recovered := seen.drainRecovered(rb)
	// Each consumer may have one unacknowledged poll window whose
	// persists completed just before the crash cut off the delivery
	// record: 1 message on the Poll path, up to the poll batch size on
	// the PollBatch path (the window's final NTStores can land without
	// the batch's fence).
	total, lost, over := seen.settle(consumers*dequeueBatch, "messages lost", r.acked...)
	r.res.Tally = fmt.Sprintf("acked %d, delivered %d, recovered backlog %d, in-flight losses %d",
		total, len(seen.where)-recovered, recovered, lost)
	return over
}

// consumerCrashRound is the consumer-crash audit: concurrent producers
// and an acked consumer group run while two consumers crash mid-batch
// (after delivery, before acknowledgment) and a killer waits out each
// one's lease and adopts its shards into a survivor; partway through,
// the power loss downs the whole heap set. The broker is recovered, a
// fresh group binds the lease region, and the audit demands
// exactly-once processing: no message is ever acknowledged twice (no
// acked message is redelivered, by takeover or by recovery), and every
// acknowledged publish is processed exactly once, up to the
// window-sized observer gap of acks whose fence completed just before
// the crash cut off the record.
func consumerCrashRound(r *round) error {
	const (
		producers   = 2
		consumers   = 3
		perProducer = 2000
		window      = 8
		heaps       = 2
	)
	if err := r.open(heaps, fifoTopics(true), 1); err != nil {
		return err
	}
	var clk atomic.Uint64
	g, err := r.b.NewGroupAcked([]string{"events", "jobs"}, consumers, broker.LeaseConfig{TTL: 5, Now: clk.Load})
	if err != nil {
		return err
	}
	// The window matches this workload's real access volume (~4000
	// messages ≈ 90k accesses across the set, counting lease and ack
	// traffic), so the crash usually lands mid-traffic — with kills and
	// takeovers already behind it — rather than at quiescence.
	r.arm(10_000, 60_000)
	// Consumers 1 and 2 die holding the window that follows their
	// killAfter-th acknowledged one. The kill point is progress, not
	// wall time, so how much traffic precedes each kill is the seed's
	// choice and not the box's speed; the second victim's point lies
	// past the first's, and both inside the ~30 windows a member
	// acknowledges before the earliest power loss arm can place.
	killAfter := [consumers]int{0: math.MaxInt}
	killAfter[1] = 2 + r.crashRng.Intn(6)
	killAfter[2] = killAfter[1] + 2 + r.crashRng.Intn(6)

	processed := make([]map[uint64]bool, consumers) // acked-and-recorded, per consumer
	var consumerDone [consumers]chan struct{}
	var victimWindow [consumers]int // the unacknowledged window a killed consumer died holding
	takeovers := 0                  // takeover assertions that ran before the power loss

	r.producers(producers, mixedProducer(r, 887, 1, perProducer))
	for c := 0; c < consumers; c++ {
		consumerDone[c] = make(chan struct{})
		r.actor(func() {
			defer close(consumerDone[c])
			processed[c] = ackedMember(r, c, g.Consumer(c), producers+c, window, memberHooks{
				holding: func(windows, n int) bool {
					if windows < killAfter[c] {
						return false
					}
					victimWindow[c] = n
					return true
				},
			})
		})
	}
	// The killer: as consumers 1 and 2 crash mid-run, wait out their
	// leases and adopt their shards into consumer 0.
	r.actor(func() {
		for victim := 1; victim < consumers; victim++ {
			<-consumerDone[victim]
			clk.Add(1000) // let the victim's leases expire
			vTid := producers + victim
			var moved int
			var aerr error
			if pmem.Protect(func() { moved, aerr = g.Adopt(vTid, victim, 0) }) || r.hs.Crashed() {
				return // power loss during takeover: a dead machine asserts nothing
			}
			if aerr != nil {
				r.failf("Adopt(%d -> 0): %w", victim, aerr)
				return
			}
			if moved < victimWindow[victim] {
				r.failf("takeover of consumer %d moved %d redeliveries, want at least the victim's window %d",
					victim, moved, victimWindow[victim])
				return
			}
			if victimWindow[victim] > 0 {
				takeovers++
			}
		}
	})

	rb, err := r.run(17, broker.Options{Threads: r.threads})
	if err != nil {
		return err
	}
	// Exactly-once audit. "Processed" = acknowledged: once pre-crash
	// (recorded after Ack returned) or once in the post-crash drain.
	seen := newLedger()
	seen.markProcessed(processed)
	drained := seen.drainAcked(rb)
	// The only permissible gap: a consumer whose Ack's fence completed
	// right before the power loss killed it between the fence and the
	// audit record — at most one poll window per consumer.
	total, lost, over := seen.settle(consumers*window, "publishes never processed", r.acked...)
	r.res.Tally = fmt.Sprintf("published %d, processed pre-crash %d, drained post-crash %d, takeovers asserted before the power loss %d, observer-gap %d",
		total, len(seen.where)-drained, drained, takeovers, lost)
	return over
}

// dynamicTopicsRound is the live-administration audit: producers and
// a consumer group hammer the initial topics while an administrator
// concurrently creates topics, publishes to them and drains some of
// their messages — until the power loss (sometimes landing inside
// CreateTopic itself). The broker is recovered from the catalog log
// alone and audited: every topic whose creation returned exists; every
// acknowledged publish — to initial and dynamic topics alike — is
// delivered or recovered exactly once, in per-shard order.
func dynamicTopicsRound(r *round) error {
	const (
		producers   = 2
		consumers   = 2
		perProducer = 2500
		heaps       = 2
		adminTid    = producers + consumers
		maxDyn      = 6
	)
	if err := r.open(heaps, fifoTopics(false), 0); err != nil {
		return err
	}
	b := r.b
	delivered, redelivered, err := plainConsumers(r, consumers, producers, 8)
	if err != nil {
		return err
	}
	r.arm(20_000, 120_000)

	dynAcked := make(map[string][]uint64) // admin-published ids per dynamic topic
	var dynCreated []string               // creations that returned success
	adminDelivered := map[uint64]bool{}

	r.producers(producers, mixedProducer(r, 733, 1, perProducer))
	// The administrator: create a topic, publish into it, consume a
	// little of it through a fresh single-member group — all while the
	// producers and the main group run full tilt on other tids.
	r.actor(func() {
		rng := rand.New(rand.NewSource(r.seed * 919))
		for d := 0; d < maxDyn; d++ {
			r.yield()
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
				r.failf("CreateTopic(%s): %w", name, cerr)
				return
			}
			dynCreated = append(dynCreated, name)
			topic := b.Topic(name)
			n := 20 + rng.Intn(40)
			for m := 1; m <= n; m++ {
				id := uint64(200+d)<<32 | uint64(m)
				if pmem.Protect(func() { topic.Publish(adminTid, payloadFor(topic, id)) }) {
					return
				}
				dynAcked[name] = append(dynAcked[name], id)
			}
			// Drain a prefix through a fresh group on the admin tid, so
			// the audit sees both delivered and recovered populations.
			dg, gerr := b.NewGroup([]string{name}, 1)
			if gerr != nil {
				r.failf("NewGroup(%s): %w", name, gerr)
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
	})

	// Recovery adopts the recorded thread bound.
	rb, err := r.run(37, broker.Options{})
	if err != nil {
		return err
	}
	// Every creation that returned must have committed; creations cut
	// off mid-call may or may not exist, but if they do they are empty.
	for _, name := range dynCreated {
		if rb.Topic(name) == nil {
			return fmt.Errorf("topic %q was created (call returned) but did not recover", name)
		}
	}
	seen := newLedger()
	seen.markDelivered(delivered, redelivered)
	seen.markSeen(adminDelivered, "admin-delivered")
	seen.drainRecovered(rb)
	lists := r.acked
	for _, ids := range dynAcked {
		lists = append(lists, ids)
	}
	// Allowance: one unacknowledged poll window per main consumer (8)
	// plus the admin's one in-flight drain window (up to 30).
	total, lost, over := seen.settle(consumers*8+30, "messages lost", lists...)
	r.res.Tally = fmt.Sprintf("acked %d (over 2 initial + %d dynamic topics), audited %d, in-flight losses %d",
		total, len(dynCreated), len(seen.where), lost)
	return over
}

// topicChurnRound is the topic-churn audit: while producers and a
// consumer group hammer the static topics, an administrator churns
// topics — create, publish, drain a little, delete — through a
// deliberately small catalog log (so the storm runs through
// compactions too), while another thread publishes into whatever
// churn topic is currently alive, racing every delete. The power loss
// lands anywhere, including mid-delete and mid-compaction. The audit:
// recovery succeeds (replay's window claims reject any overlap), no
// topic whose delete returned resurfaces, and every
// acknowledged publish to a surviving topic is delivered or recovered
// exactly once, in per-publisher order.
func topicChurnRound(r *round) error {
	const (
		producers   = 2
		consumers   = 2
		perProducer = 2000
		heaps       = 2
		churnTid    = producers + consumers     // the administrator
		raceTid     = producers + consumers + 1 // publishes into live churn topics
		maxCycles   = 10
	)
	if err := r.open(heaps, fifoTopics(false), 0); err != nil {
		return err
	}
	b := r.b
	// Small log: ~4 churn cycles fill it, so the storm exercises the
	// auto-compaction path under fire.
	if err := b.CompactCatalog(0, 96); err != nil {
		return err
	}
	delivered, redelivered, err := plainConsumers(r, consumers, producers, 8)
	if err != nil {
		return err
	}
	r.arm(20_000, 120_000)

	// Per churn cycle: lifecycle flags and the acknowledged ids, the
	// raced publisher's under raceMu (it appends concurrently).
	type churnCycle struct {
		created        bool
		deleteAttempt  bool
		deleteReturned bool
		acked          []uint64
		raceAcked      []uint64
	}
	cycles := make([]churnCycle, maxCycles)
	var raceMu sync.Mutex
	var liveCycle atomic.Int64 // index of the currently alive churn topic, -1 when none
	liveCycle.Store(-1)
	churnDelivered := map[uint64]bool{}

	r.producers(producers, mixedProducer(r, 733, 1, perProducer))
	// The administrator: one full lifecycle per cycle — create, publish,
	// drain a prefix, occasionally compact, then (usually) delete.
	r.actor(func() {
		defer liveCycle.Store(-1)
		rng := rand.New(rand.NewSource(r.seed * 919))
		for d := 0; d < maxCycles; d++ {
			r.yield()
			st := &cycles[d]
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
				r.failf("CreateTopic(%s): %w", name, cerr)
				return
			}
			st.created = true
			liveCycle.Store(int64(d))
			topic := b.Topic(name)
			n := 15 + rng.Intn(30)
			for m := 1; m <= n; m++ {
				id := uint64(300+d)<<32 | uint64(m)
				if pmem.Protect(func() { topic.Publish(churnTid, payloadFor(topic, id)) }) {
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
					r.failf("CompactCatalog: %w", kerr)
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
				r.failf("DeleteTopic(%s): %w", name, derr)
				return
			}
			st.deleteReturned = true
		}
	})
	// The racer: until the producers finish, publish into whatever churn
	// topic is alive right now, racing the administrator's deletes — a
	// publish that loses the race observes ErrTopicDeleted and is simply
	// not acknowledged.
	r.actor(func() {
		seq := uint64(0)
		for !r.trafficEnded() {
			r.yield()
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
			if pmem.Protect(func() { perr = topic.Publish(raceTid, payloadFor(topic, id)) }) {
				return
			}
			if perr == nil {
				raceMu.Lock()
				cycles[d].raceAcked = append(cycles[d].raceAcked, id)
				raceMu.Unlock()
			} else if !errors.Is(perr, broker.ErrTopicDeleted) {
				r.failf("racer Publish: %w", perr)
				return
			}
		}
	})

	// Recovery replays the catalog across whatever generations and
	// tombstones the churn left; its window claims are themselves the
	// no-window-overlap audit.
	rb, err := r.run(37, broker.Options{})
	if err != nil {
		return err
	}
	ambiguous := 0
	for d, st := range cycles {
		name := fmt.Sprintf("churn-%d", d)
		exists := rb.Topic(name) != nil
		switch {
		case st.deleteReturned && exists:
			return fmt.Errorf("topic %s resurrected: DeleteTopic returned, yet it recovered", name)
		case st.created && !st.deleteAttempt && !exists:
			return fmt.Errorf("topic %s lost: created and never deleted, yet it did not recover", name)
		case st.deleteAttempt && !st.deleteReturned:
			ambiguous++ // crash mid-delete: either outcome is legal
		}
	}

	seen := newLedger()
	seen.markDelivered(delivered, redelivered)
	seen.markSeen(churnDelivered, "churn-delivered")
	seen.drainRecovered(rb)
	// Exactly-once is audited over the surviving topics: a deleted
	// topic's messages were deliberately dropped with it, so its acked
	// ids are exempt from the loss audit (their *deliveries* still went
	// through the duplicate check above).
	lists := r.acked
	churnAudited := 0
	for d, st := range cycles {
		if rb.Topic(fmt.Sprintf("churn-%d", d)) != nil {
			churnAudited++
			lists = append(lists, st.acked, st.raceAcked)
		}
	}
	// Allowance: one unacknowledged poll window per main consumer (8)
	// plus the churn drain's in-flight window.
	total, lost, over := seen.settle(consumers*8+8, "messages lost", lists...)
	r.res.Tally = fmt.Sprintf("acked %d (auditing %d surviving churn topics, %d ambiguous deletes), audited %d, in-flight losses %d",
		total, churnAudited, ambiguous, len(seen.where), lost)
	return over
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

// heapTopicsRound is the heap-topic audit: producers publish to a
// delay and a priority topic (singles and batches) while consumers
// drain with an advancing logical clock, and after the power loss and
// recovery both topics come back with their kinds, the delay heap
// gates its whole backlog at time zero, every acknowledged message is
// delivered or recovered exactly once and never before its deadline,
// the recovered heaps pop in key order, and losses are bounded by the
// consumers' in-flight dequeue windows.
func heapTopicsRound(r *round) error {
	const (
		producers   = 2
		consumers   = 2
		perProducer = 1200
		popBatch    = 8
		heaps       = 2
	)
	if err := r.open(heaps, []broker.TopicConfig{
		{Name: "delay", Shards: 1, MaxPayload: 24, Kind: broker.KindDelay},
		{Name: "prio", Shards: 1, MaxPayload: 24, Kind: broker.KindPriority},
	}, 0); err != nil {
		return err
	}
	delay, prio := r.b.Topic("delay"), r.b.Topic("prio")
	// The window matches this workload's real access volume (~2400
	// messages ≈ 20k accesses across the set, ~10k on the armed heap:
	// heap pushes and pop-mins touch far fewer lines than a FIFO lease
	// and ack do), so the crash lands inside a push or a pop-min rather
	// than at quiescence.
	r.arm(2_000, 14_000)

	var clock atomic.Uint64
	clock.Store(1)

	r.producers(producers, func(p int) (acked []uint64) { // ids whose publish returned
		rng := rand.New(rand.NewSource(r.seed*613 + int64(p)))
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
			r.yield()
			id := uint64(p+1)<<32 | m
			var err error
			var ids []uint64
			switch rng.Intn(4) {
			case 0: // single delayed publish
				key := deadline()
				if pmem.Protect(func() { err = delay.PublishAt(p, heapPayload(id, key), key) }) {
					return acked
				}
				ids = []uint64{id}
			case 1: // delayed batch, one fence
				ps, keys, bids := batchOf(m, deadline)
				if pmem.Protect(func() { err = delay.PublishAtBatch(p, ps, keys) }) {
					return acked
				}
				ids = bids
			case 2: // single priority publish
				key := rank()
				if pmem.Protect(func() { err = prio.PublishPriority(p, heapPayload(id, key), key) }) {
					return acked
				}
				ids = []uint64{id}
			default: // priority batch
				ps, keys, bids := batchOf(m, rank)
				if pmem.Protect(func() { err = prio.PublishPriorityBatch(p, ps, keys) }) {
					return acked
				}
				ids = bids
			}
			if errors.Is(err, dheap.ErrFull) {
				continue // backpressure: consumers are recycling slots
			}
			if err != nil {
				r.failf("producer %d publish %#x: %w", p, id, err)
				return acked
			}
			acked = append(acked, ids...)
			m += uint64(len(ids))
		}
		return acked
	})

	delivered := make([]map[uint64]bool, consumers)
	for c := 0; c < consumers; c++ {
		delivered[c] = map[uint64]bool{}
		r.actor(func() {
			tid := producers + c
			idle := false
			for turn := 0; ; turn++ {
				r.yield()
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
					r.failf("consumer %d dequeue: %w", c, err)
					return
				}
				if len(ps) > 0 {
					for _, p := range ps {
						id, key, err := decodeHeapPayload(p)
						switch {
						case err != nil:
							r.failf("consumer %d: %w", c, err)
						case tp == delay && key > now:
							r.failf("consumer %d: message %#x delivered %d ticks before its deadline", c, id, key-now)
						case delivered[c][id]:
							r.failf("consumer %d: message %#x delivered twice before the crash", c, id)
						}
						delivered[c][id] = true
					}
					idle = false
					continue
				}
				if r.trafficEnded() {
					if idle {
						return
					}
					idle = true
				}
			}
		})
	}

	rb, err := r.run(37, broker.Options{})
	if err != nil {
		return err
	}
	rd, rp := rb.Topic("delay"), rb.Topic("prio")
	if rd == nil || rp == nil {
		return fmt.Errorf("heap topics did not recover")
	}
	if rd.Kind() != broker.KindDelay || rp.Kind() != broker.KindPriority {
		return fmt.Errorf("heap topics recovered with wrong kinds (%v, %v)", rd.Kind(), rp.Kind())
	}
	seen := newLedger()
	for c := range delivered {
		seen.markSeen(delivered[c], fmt.Sprintf("consumer %d", c))
	}
	// The recovered delay backlog still gates: nothing was published
	// with a deadline below the clock's initial value.
	if ps, err := rd.DequeueReadyBatch(0, 0, 1000); err != nil || len(ps) != 0 {
		return fmt.Errorf("recovered delay topic delivered %d messages at now=0 (err %v)", len(ps), err)
	}
	recovered := 0
	for _, tp := range []*broker.Topic{rd, rp} {
		lastKey := uint64(0)
		for {
			p, ok, err := tp.DequeueReady(0, ^uint64(0))
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			id, key, err := decodeHeapPayload(p)
			if err != nil {
				return fmt.Errorf("recovered %w", err)
			}
			if key < lastKey {
				return fmt.Errorf("%s recovered out of key order: %d after %d", tp.Name(), key, lastKey)
			}
			lastKey = key
			if !seen.claim(id, "recovered", "message %#x both delivered (%s) and recovered") {
				return seen.err
			}
			recovered++
		}
	}
	// Each consumer may lose one unacknowledged in-flight dequeue batch
	// whose consume NTStores landed without their covering return.
	total, lost, over := seen.settle(consumers*popBatch, "messages lost", r.acked...)
	r.res.Tally = fmt.Sprintf("acked %d, delivered %d, recovered %d, losses %d",
		total, len(seen.where)-recovered, recovered, lost)
	return over
}

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
func membershipChurnRound(r *round) error {
	const (
		producers   = 2
		consumers   = 3
		perProducer = 2500
		window      = 8
		heaps       = 2
		ctlTid      = producers + consumers
	)
	if err := r.open(heaps, fifoTopics(true), 1); err != nil {
		return err
	}
	var clk atomic.Uint64
	g, err := r.b.NewGroupAcked([]string{"events", "jobs"}, consumers, broker.LeaseConfig{TTL: 5, Now: clk.Load})
	if err != nil {
		return err
	}
	var staleRefused atomic.Uint64

	// Deterministic prologue, before any goroutine starts: member 1
	// stalls on a window, the scanner fences it, and its resurfacing
	// ack is provably refused — the churn invariant holds whatever the
	// concurrent phase's timing does. The seed window is redelivered
	// to the survivors and audited like everything else.
	var prologue []uint64
	for m := uint64(1); m <= 16; m++ {
		id := uint64(1)<<32 | m
		r.b.Topic("events").Publish(0, broker.U64(id))
		prologue = append(prologue, id)
	}
	if ms := g.Consumer(1).PollBatch(producers+1, window); len(ms) == 0 {
		return fmt.Errorf("prologue: member 1 polled nothing")
	}
	clk.Add(1000)
	rep, err := g.Scan(ctlTid, clk.Load())
	if err != nil {
		return err
	}
	if len(rep.Expired) != 1 || rep.Expired[0] != 1 {
		return fmt.Errorf("prologue scan expired %v, want [1]", rep.Expired)
	}
	if _, err := g.Consumer(1).Ack(producers + 1); !errors.Is(err, broker.ErrFenced) {
		return fmt.Errorf("prologue stale ack returned %v, want ErrFenced", err)
	}
	staleRefused.Add(1)

	// Now arm the mid-traffic power loss and let the storm loose.
	r.arm(20_000, 80_000)

	processed := make([]map[uint64]bool, consumers)
	var killFlag [consumers]atomic.Bool
	var consumerDone [consumers]chan struct{}
	var ctlOf [consumers]atomic.Pointer[stallCtl]

	// Ids start at 100: the prologue minted producer 0's 1..16.
	r.producers(producers, mixedProducer(r, 887, 100, perProducer))
	for c := 0; c < consumers; c++ {
		consumerDone[c] = make(chan struct{})
		r.actor(func() {
			defer close(consumerDone[c])
			processed[c] = ackedMember(r, c, g.Consumer(c), producers+c, window, memberHooks{
				holding: func(_, n int) bool {
					if n == 0 {
						return killFlag[c].Load()
					}
					if ctl := ctlOf[c].Swap(nil); ctl != nil {
						// Stall: stop acking and heartbeating without
						// dying, window in flight, until resumed.
						close(ctl.stalled)
						<-ctl.resume
					}
					return killFlag[c].Load()
				},
				fenced: func() { staleRefused.Add(1) },
				steal:  true,
			})
		})
	}
	// The churn controller: stall-and-scan member 1, stall-and-steal
	// member 2, then kill member 1 outright and scan its corpse away.
	r.actor(func() {
		scan := func() {
			var serr error
			if !pmem.Protect(func() { _, serr = g.Scan(ctlTid, clk.Load()) }) && serr != nil {
				r.failf("scan: %w", serr)
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
						r.failf("controller steal: %w", serr)
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
	})

	rb, err := r.run(17, broker.Options{Threads: r.threads})
	if err != nil {
		return err
	}
	seen := newLedger()
	seen.markProcessed(processed)
	drained := seen.drainAcked(rb)
	// Same allowance as the consumer-crash audit: acks whose fence
	// completed right before the power loss cut off the audit record.
	total, lost, over := seen.settle(consumers*window, "publishes never processed", append(r.acked, prologue)...)
	r.res.Tally = fmt.Sprintf("published %d, processed pre-crash %d, drained post-crash %d, stale acks refused %d, observer-gap %d",
		total, len(seen.where)-drained, drained, staleRefused.Load(), lost)
	if staleRefused.Load() == 0 {
		return fmt.Errorf("no stale-epoch ack was exercised and refused")
	}
	return over
}
