package verify

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/broker"
	"repro/internal/onll"
	"repro/internal/pmem"
	"repro/internal/ptm"
	"repro/internal/qtest"
	"repro/internal/queues"
)

func coreQueues(t *testing.T) []queues.Info {
	t.Helper()
	var out []queues.Info
	for _, name := range []string{"unlinked", "linked", "opt-unlinked", "opt-linked"} {
		in, ok := queues.Lookup(name)
		if !ok {
			t.Fatalf("missing queue %s", name)
		}
		out = append(out, in)
	}
	return out
}

func otherDurable(t *testing.T) []queues.Info {
	t.Helper()
	var out []queues.Info
	for _, in := range queues.All() {
		switch in.Name {
		case "unlinked", "linked", "opt-unlinked", "opt-linked", "msq":
			continue
		}
		out = append(out, in)
	}
	out = append(out, ptm.All()...)
	out = append(out, onll.Info())
	return out
}

// TestExhaustiveCrashPointsCore enumerates every memory-access crash
// point of a mixed script for the paper's four queues, with two
// eviction randomizations each.
func TestExhaustiveCrashPointsCore(t *testing.T) {
	stride := int64(1)
	if testing.Short() {
		stride = 5
	}
	for _, in := range coreQueues(t) {
		t.Run(in.Name, func(t *testing.T) { qtest.RunCrashSweep(t, in, qtest.Script(12, 1), stride, 2) })
	}
}

// TestExhaustiveCrashPointsOthers covers the baselines, ablations,
// PTM queues and ONLL with a coarser stride.
func TestExhaustiveCrashPointsOthers(t *testing.T) {
	stride := int64(3)
	if testing.Short() {
		stride = 11
	}
	for _, in := range otherDurable(t) {
		t.Run(in.Name, func(t *testing.T) { qtest.RunCrashSweep(t, in, qtest.Script(12, 2), stride, 1) })
	}
}

// TestExhaustiveCrashPointsDeqHeavy uses a dequeue-heavy script so
// head persistence and node recycling are crossed by crashes.
func TestExhaustiveCrashPointsDeqHeavy(t *testing.T) {
	script := []qtest.ScriptOp{
		{Enq: true, V: 1}, {Enq: true, V: 2}, {Enq: true, V: 3}, {Enq: true, V: 4},
		{}, {}, {}, {}, {}, // dequeues incl. one failing
		{Enq: true, V: 5}, {}, {},
	}
	stride := int64(2)
	if testing.Short() {
		stride = 7
	}
	for _, in := range coreQueues(t) {
		t.Run(in.Name, func(t *testing.T) { qtest.RunCrashSweep(t, in, script, stride, 2) })
	}
}

// TestConcurrentCrashFuzz cuts concurrent executions with random
// crashes and checks durable linearizability of what survives.
func TestConcurrentCrashFuzz(t *testing.T) {
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	all := append(coreQueues(t), otherDurable(t)...)
	for _, in := range all {
		t.Run(in.Name, func(t *testing.T) {
			err := ConcurrentCrashFuzz(in, FuzzConfig{
				Threads: 3, OpsPerThread: 400, Rounds: rounds, Seed: 1234,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentCrashFuzzWithRecoveryCrashes additionally crashes the
// recovery procedure itself before letting it complete.
func TestConcurrentCrashFuzzWithRecoveryCrashes(t *testing.T) {
	rounds := 4
	if testing.Short() {
		rounds = 1
	}
	for _, in := range coreQueues(t) {
		t.Run(in.Name, func(t *testing.T) {
			err := ConcurrentCrashFuzz(in, FuzzConfig{
				Threads: 3, OpsPerThread: 300, Rounds: rounds, Seed: 77,
				RecoveryCrashes: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// ---- negative tests: the checker must catch fabricated violations ----

func u(v uint64) *uint64 { return &v }

func TestCheckHistoryCatchesDuplicates(t *testing.T) {
	logs := []threadLog{{enqDone: []uint64{1, 2}, deqDone: []uint64{1}}}
	if err := CheckHistory(logs, []uint64{1, 2}); err == nil {
		t.Fatal("duplicate delivery not detected")
	}
}

func TestCheckHistoryCatchesPhantom(t *testing.T) {
	logs := []threadLog{{enqDone: []uint64{1}}}
	if err := CheckHistory(logs, []uint64{1, 99}); err == nil {
		t.Fatal("phantom value not detected")
	}
}

func TestCheckHistoryCatchesLoss(t *testing.T) {
	logs := []threadLog{{enqDone: []uint64{1, 2, 3}}}
	if err := CheckHistory(logs, []uint64{1, 3}); err == nil {
		t.Fatal("lost completed enqueue not detected")
	}
}

func TestCheckHistoryAllowsPendingDequeueLoss(t *testing.T) {
	logs := []threadLog{
		{enqDone: []uint64{1, 2, 3}},
		{pendingDeq: true},
	}
	if err := CheckHistory(logs, []uint64{2, 3}); err != nil {
		t.Fatalf("prefix loss with a pending dequeue should be legal: %v", err)
	}
}

func TestCheckHistoryCatchesFIFOViolation(t *testing.T) {
	// Value 2 removed while the earlier value 1 survived.
	logs := []threadLog{
		{enqDone: []uint64{1, 2}, deqDone: []uint64{2}},
	}
	if err := CheckHistory(logs, []uint64{1}); err == nil {
		t.Fatal("FIFO violation not detected")
	}
}

func TestCheckHistoryCatchesDrainOrderViolation(t *testing.T) {
	logs := []threadLog{{enqDone: []uint64{1, 2}}}
	if err := CheckHistory(logs, []uint64{2, 1}); err == nil {
		t.Fatal("drain order violation not detected")
	}
}

func TestCheckHistoryAllowsDroppedPendingEnqueue(t *testing.T) {
	logs := []threadLog{{enqDone: []uint64{1}, pendingEnq: u(2)}}
	if err := CheckHistory(logs, []uint64{1}); err != nil {
		t.Fatalf("dropped pending enqueue should be legal: %v", err)
	}
}

func TestCheckHistoryAllowsAppliedPendingEnqueue(t *testing.T) {
	logs := []threadLog{{enqDone: []uint64{1}, pendingEnq: u(2)}}
	if err := CheckHistory(logs, []uint64{1, 2}); err != nil {
		t.Fatalf("applied pending enqueue should be legal: %v", err)
	}
}

// ---- the broker audit's twins: the ledger must refuse doctored populations ----

// ledgerBroker is a small perf-mode broker to drain into a ledger; acked
// topics come with the lease region drainAcked binds.
func ledgerBroker(t *testing.T, acked bool) *broker.Broker {
	t.Helper()
	hs := pmem.NewSet(1, pmem.Config{Bytes: 8 << 20, MaxThreads: 1})
	b, err := broker.Open(hs, broker.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []broker.TopicConfig{{Name: "events", Shards: 1, Acked: acked}, {Name: "jobs", Shards: 1, MaxPayload: 100, Acked: acked}} {
		if _, err := b.CreateTopic(0, tc); err != nil {
			t.Fatal(err)
		}
	}
	if acked {
		if _, err := b.CreateAckGroup(0, broker.AckGroupConfig{Capacity: b.ShardTotal()}); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func set(ids ...uint64) map[uint64]bool {
	m := map[uint64]bool{}
	for _, id := range ids {
		m[id] = true
	}
	return m
}

// torn is id's blob payload with one bit of its last byte flipped.
func torn(id uint64) []byte {
	p := blobPayload(id)
	p[len(p)-1] ^= 0x40
	return p
}

func TestBrokerLedgerRefusals(t *testing.T) {
	const a, b = uint64(1)<<32 | 1, uint64(1)<<32 | 2
	publish := func(t *testing.T, br *broker.Broker, topic string, ps ...[]byte) {
		t.Helper()
		for _, p := range ps {
			if err := br.Topic(topic).Publish(0, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name, want string
		doctor     func(t *testing.T, l *ledger)
	}{
		{"an id delivered to two members", "delivered twice (delivered and delivered)", func(t *testing.T, l *ledger) {
			l.markDelivered([]map[uint64]bool{set(a, b), set(b)}, []int{0, 0})
		}},
		{"a member's redelivery count", "consumer 1 saw 2 re-deliveries", func(t *testing.T, l *ledger) {
			l.markDelivered([]map[uint64]bool{set(a), set(b)}, []int{0, 2})
		}},
		{"an id both delivered and recovered", "both delivered and recovered", func(t *testing.T, l *ledger) {
			br := ledgerBroker(t, false)
			publish(t, br, "events", broker.U64(a), broker.U64(b))
			l.markDelivered([]map[uint64]bool{set(b)}, []int{0})
			l.drainRecovered(br)
		}},
		{"an id acknowledged twice", "acknowledged twice (consumer 0 and consumer 2)", func(t *testing.T, l *ledger) {
			l.markProcessed([]map[uint64]bool{set(a), set(b), set(a)})
		}},
		{"an id acknowledged and then redelivered by the post-crash drain", "both acknowledged by consumer 1 and redelivered after recovery", func(t *testing.T, l *ledger) {
			br := ledgerBroker(t, true)
			publish(t, br, "jobs", blobPayload(a), blobPayload(b))
			l.markProcessed([]map[uint64]bool{nil, set(b)})
			l.drainAcked(br)
		}},
		{"a corrupted blob payload", "recovered payload of 0x100000001 corrupted", func(t *testing.T, l *ledger) {
			br := ledgerBroker(t, false)
			publish(t, br, "jobs", torn(a))
			l.drainRecovered(br)
		}},
		{"a corrupted blob payload in the post-crash drain", "recovered payload of 0x100000001 corrupted", func(t *testing.T, l *ledger) {
			br := ledgerBroker(t, true)
			publish(t, br, "jobs", torn(a))
			l.drainAcked(br)
		}},
		{"a publisher's ids out of order within a recovered shard", "shard events/0: publisher 1 out of order (1 after 2)", func(t *testing.T, l *ledger) {
			br := ledgerBroker(t, false)
			publish(t, br, "events", broker.U64(b), broker.U64(a))
			l.drainRecovered(br)
		}},
		{"losses one above the allowance", "3 acknowledged messages lost (allowance 2)", func(t *testing.T, l *ledger) {
			l.markSeen(set(a), "delivered")
			l.settle(2, "messages lost", []uint64{a, b}, []uint64{7, 8})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newLedger()
			tc.doctor(t, l)
			if _, _, err := l.settle(1<<30, "messages lost"); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("settle returned %v, want a refusal containing %q", err, tc.want)
			}
		})
	}
}

// TestBrokerLedgerAccepts is the other half: clean populations settle,
// losses exactly at the allowance included, and a closed account folds
// nothing further.
func TestBrokerLedgerAccepts(t *testing.T) {
	const a, b, c = uint64(1)<<32 | 1, uint64(1)<<32 | 2, uint64(2)<<32 | 1
	br := ledgerBroker(t, false)
	for _, id := range []uint64{b, c} {
		if err := br.Topic("jobs").Publish(0, blobPayload(id)); err != nil {
			t.Fatal(err)
		}
	}
	l := newLedger()
	l.markDelivered([]map[uint64]bool{set(a), nil}, []int{0, 0})
	if n := l.drainRecovered(br); n != 2 {
		t.Fatalf("drained %d recovered messages, want 2 (%v)", n, l.err)
	}
	total, lost, err := l.settle(2, "messages lost", []uint64{a, b, c, 98, 99})
	if total != 5 || lost != 2 || err != nil {
		t.Fatalf("settle at the allowance: total %d lost %d err %v, want 5, 2, nil", total, lost, err)
	}

	l.markSeen(set(a), "delivered again")
	first := l.err
	if first == nil {
		t.Fatal("a second claim on a delivered id was not refused")
	}
	l.markSeen(set(12345), "after the refusal")
	if _, folded := l.where[12345]; folded || l.err != first {
		t.Fatalf("a closed account kept folding (err %v, first %v)", l.err, first)
	}
}

// TestBrokerScenariosArmTheSameCrash pins where each scenario's seed
// puts the power loss — the member heap and the access count from
// arming — at seed 1 and at one seed of its broker-package tier, to the
// values the pre-round formulas gave: rand.New(rand.NewSource(seed)),
// Intn(heaps), then (lo + Intn(span)) / heaps. A failing seed of any
// earlier run must keep naming the same crash.
func TestBrokerScenariosArmTheSameCrash(t *testing.T) {
	armed := []struct {
		scenario string
		seed     int64
		heap     int
		access   int64
	}{
		{"broker-single", 1, 0, 107887},
		{"broker-single", 2, 0, 119786},
		{"broker-batched", 1, 0, 107887},
		{"broker-batched", 4, 0, 63156},
		{"broker-multiheap", 1, 1, 53943},
		{"broker-multiheap", 7, 0, 18935},
		{"broker-multiheap-3", 1, 2, 35962},
		{"broker-multiheap-3", 10, 2, 26949},
		{"broker-consumer-crash", 1, 1, 8943},
		{"broker-consumer-crash", 41, 0, 29903},
		{"broker-dynamic-topics", 1, 1, 13943},
		{"broker-dynamic-topics", 71, 1, 60356},
		{"broker-membership-churn", 1, 1, 33943},
		{"broker-membership-churn", 71, 1, 20356},
		{"broker-topic-churn", 1, 1, 13943},
		{"broker-topic-churn", 51, 0, 32523},
		{"broker-delay-topics", 1, 1, 2943},
		{"broker-delay-topics", 11, 0, 4475},
	}
	pinned := map[string]bool{}
	for _, a := range armed {
		pinned[a.scenario] = true
		if testing.Short() && a.seed != 1 {
			continue
		}
		i := slices.IndexFunc(BrokerScenarios, func(s BrokerScenario) bool { return s.Name == a.scenario })
		if i < 0 {
			t.Fatalf("no scenario %q in BrokerScenarios", a.scenario)
		}
		res, err := BrokerScenarios[i].Run(a.seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.ArmedHeap != a.heap || res.ArmedAccess != a.access {
			t.Errorf("%s seed %d armed heap %d access %d, want heap %d access %d",
				a.scenario, a.seed, res.ArmedHeap, res.ArmedAccess, a.heap, a.access)
		}
	}
	for _, s := range BrokerScenarios {
		if !pinned[s.Name] {
			t.Errorf("scenario %s has no pinned crash point", s.Name)
		}
	}
}
