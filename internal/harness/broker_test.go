package harness

import (
	"sync"
	"testing"
	"time"
)

// TestRunBrokerFenceAmortization runs the broker workload briefly at
// batch 1 and batch 16 and checks the core claims: nothing published
// is lost, and the batch path issues measurably fewer producer fences
// per message than the per-message path.
func TestRunBrokerFenceAmortization(t *testing.T) {
	run := func(batch, dbatch int) BrokerResult {
		r, err := RunBroker(BrokerConfig{
			Topics: 2, Shards: 4, Producers: 2, Consumers: 2,
			Batch: batch, DequeueBatch: dbatch, Payload: 0,
			Duration: 150 * time.Millisecond, HeapBytes: 256 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Published == 0 {
			t.Fatal("no messages published")
		}
		if r.Delivered != r.Published {
			t.Fatalf("batch %d/%d: delivered %d != published %d", batch, dbatch, r.Delivered, r.Published)
		}
		return r
	}
	perMsg := run(1, 1)
	batched := run(16, 1)
	f1, f16 := perMsg.ProducerFencesPerMsg(), batched.ProducerFencesPerMsg()
	t.Logf("producer fences/msg: batch=1 %.3f, batch=16 %.3f", f1, f16)
	if f1 < 0.99 {
		t.Errorf("per-message path should pay ~1 fence/msg, got %.3f", f1)
	}
	if f16 > f1/4 {
		t.Errorf("batch path should amortize fences (got %.3f vs %.3f per-message)", f16, f1)
	}
}

// runBacklog is RunBroker with its two phases in sequence instead of
// racing: every producer publishes windows PublishBatch windows of
// cfg.Batch messages round-robin over the topics, and only then do the
// busy consumers start and drain them. Every poll therefore finds a
// full DequeueBatch (until the last few of a shard), so consumer-side
// persist counts measure the broker rather than how far the consumers
// happened to trail live producers — a distance that moves with the
// simulator's speed and the race detector. It fails the test unless
// everything published is delivered.
func runBacklog(t *testing.T, cfg BrokerConfig, windows int) BrokerResult {
	t.Helper()
	cfg.norm()
	r, err := newRun(cfg, cfg.Producers+cfg.Consumers)
	if err != nil {
		t.Fatal(err)
	}
	window := make([][]byte, cfg.Batch)
	for j := range window {
		window[j] = r.payload(uint64(j))
	}
	for tid := 0; tid < cfg.Producers; tid++ {
		for i := 0; i < windows; i++ {
			r.b.Topic(r.names[i%cfg.Topics]).PublishBatch(tid, window)
		}
	}
	r.res.Published = uint64(cfg.Producers * windows * cfg.Batch)
	close(r.quiet)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.consume(r.consumerTid(c))
		}()
	}
	wg.Wait()
	r.collect()
	if r.res.Delivered != r.res.Published {
		t.Fatalf("%+v: delivered %d != published %d", cfg, r.res.Delivered, r.res.Published)
	}
	return r.res
}

// TestRunBrokerConsumerAmortization is the consume-side mirror: with
// PollBatch the consumer fences per delivered message drop well below
// the per-message Poll path, and an idle consumer polling only empty
// shards issues (almost) no blocking persists thanks to the empty-poll
// fence elision. Driven on a backlog (runBacklog), so PollBatch(8)
// always finds 8 and Poll always finds 1.
func TestRunBrokerConsumerAmortization(t *testing.T) {
	run := func(dbatch int) BrokerResult {
		return runBacklog(t, BrokerConfig{
			Topics: 2, Shards: 4, Producers: 2, Consumers: 2,
			Batch: 4, DequeueBatch: dbatch, Payload: 0, HeapBytes: 32 << 20,
		}, 512)
	}
	perMsg := run(1)
	batched := run(8)
	c1, c8 := perMsg.ConsumerFencesPerMsg(), batched.ConsumerFencesPerMsg()
	t.Logf("consumer fences/msg: dbatch=1 %.3f, dbatch=8 %.3f; idle fences/poll: %.4f / %.4f",
		c1, c8, perMsg.IdleFencesPerPoll(), batched.IdleFencesPerPoll())
	if c8 > c1/3 {
		t.Errorf("batched consume should amortize fences (got %.3f vs %.3f per-message)", c8, c1)
	}
	// The idle phase polls drained shards 1000 times; elision should
	// make that essentially free (allow a couple of stray persists for
	// indices the consumer had not yet re-observed).
	for _, r := range []BrokerResult{perMsg, batched} {
		if r.IdleFencesPerPoll() > 0.01 {
			t.Errorf("dbatch %d: idle polling paid %.4f fences/poll, want ~0", r.DequeueBatch, r.IdleFencesPerPoll())
		}
	}
}

// TestRunBrokerMultiHeap runs the workload over a 2-heap set, both
// spread (round-robin placement) and affine (block placement +
// heap-affine groups): nothing is lost, per-heap stats cover both
// domains, and both layouts keep persist traffic roughly balanced.
// Driven on a backlog (runBacklog): the gauge counts one consumer
// fence per domain a poll found something in, and how much a poll
// finds behind live producers is a race (1.03-1.56 over ten -race
// runs of the timed form).
func TestRunBrokerMultiHeap(t *testing.T) {
	for _, affine := range []bool{false, true} {
		r := runBacklog(t, BrokerConfig{
			Topics: 2, Shards: 4, Heaps: 2, Affine: affine,
			Producers: 2, Consumers: 2,
			Batch: 4, DequeueBatch: 8, Payload: 0, HeapBytes: 32 << 20,
		}, 512)
		if len(r.PerHeap) != 2 {
			t.Fatalf("affine=%v: PerHeap has %d entries, want 2", affine, len(r.PerHeap))
		}
		for i, s := range r.PerHeap {
			if s.Fences == 0 {
				t.Errorf("affine=%v: heap %d recorded no fences — shards not spread across the set", affine, i)
			}
		}
		// Both layouts put equal shard counts on each domain here, so
		// persist traffic should stay near-balanced; allow generous
		// slack for the shards' uneven last polls.
		if imb := r.HeapImbalance(); imb > 1.5 {
			t.Errorf("affine=%v: heap imbalance %.3f, want <= 1.5", affine, imb)
		}
		t.Logf("affine=%v: published %d, imbalance %.3f, cons fences/msg %.4f",
			affine, r.Published, r.HeapImbalance(), r.ConsumerFencesPerMsg())
	}
}

// TestRunBrokerAckMode runs the acknowledged workload: every batch is
// acked (AckFencesPerMsg ~ 1/DequeueBatch) and nothing delivered goes
// unacknowledged.
func TestRunBrokerAckMode(t *testing.T) {
	r, err := RunBroker(BrokerConfig{
		Topics: 2, Shards: 4, Producers: 2, Consumers: 3,
		Batch: 8, DequeueBatch: 8, Ack: true,
		Duration: 150 * time.Millisecond, HeapBytes: 256 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Published == 0 || r.Delivered != r.Published {
		t.Fatalf("delivered %d / published %d", r.Delivered, r.Published)
	}
	if r.Acked != r.Delivered {
		t.Fatalf("acked %d of %d delivered", r.Acked, r.Delivered)
	}
	if r.AckFences == 0 {
		t.Fatal("acknowledgments measured zero fences")
	}
	af := r.AckFencesPerMsg()
	t.Logf("ack mode: delivered %d, acked %d, ack fences/msg %.4f", r.Delivered, r.Acked, af)
	// One ack fence per 8-message batch, with slack for the partial
	// batches a consumer finds behind live producers.
	if af > 0.5 {
		t.Errorf("ack fences per message = %.4f; expected amortized (~1/8)", af)
	}
	// A leased poll's only persists are the lease lines: consumer
	// fences stay amortized too.
	if cf := r.ConsumerFencesPerMsg(); cf > 1.0 {
		t.Errorf("consumer fences per message = %.4f in ack mode; expected ~2/dbatch", cf)
	}
	if r.IdleFencesPerPoll() != 0 {
		t.Errorf("idle acked polls paid %.4f fences/poll, want 0", r.IdleFencesPerPoll())
	}
}

// TestRunBrokerHeapLatencies: per-heap fence latencies (asymmetric
// NUMA) flow through to the member heaps without disturbing the
// workload audit.
func TestRunBrokerHeapLatencies(t *testing.T) {
	r, err := RunBroker(BrokerConfig{
		Topics: 2, Shards: 2, Heaps: 2, Producers: 2, Consumers: 2,
		Batch: 4, DequeueBatch: 4,
		HeapFenceNs: []int64{50, 800},
		Duration:    150 * time.Millisecond, HeapBytes: 256 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered != r.Published || r.Published == 0 {
		t.Fatalf("delivered %d / published %d", r.Delivered, r.Published)
	}
	if len(r.PerHeap) != 2 || r.PerHeap[0].Fences == 0 || r.PerHeap[1].Fences == 0 {
		t.Fatalf("per-heap stats missing: %+v", r.PerHeap)
	}
	t.Logf("asymmetric run: published %d, heap fences %d / %d",
		r.Published, r.PerHeap[0].Fences, r.PerHeap[1].Fences)
}

// TestRunBrokerPipeline: pipelined publishes keep the audit exact
// (the final Flush acknowledges the trailing window) and pay no more
// producer fences per message than the unpipelined batch path.
func TestRunBrokerPipeline(t *testing.T) {
	run := func(pipeline bool) BrokerResult {
		r, err := RunBroker(BrokerConfig{
			Topics: 2, Shards: 4, Producers: 2, Consumers: 2,
			Batch: 8, DequeueBatch: 4, Pipeline: pipeline,
			Duration: 150 * time.Millisecond, HeapBytes: 256 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Published == 0 || r.Delivered != r.Published {
			t.Fatalf("pipeline=%v: delivered %d / published %d", pipeline, r.Delivered, r.Published)
		}
		return r
	}
	plain := run(false)
	piped := run(true)
	fp, fpp := plain.ProducerFencesPerMsg(), piped.ProducerFencesPerMsg()
	t.Logf("producer fences/msg: plain %.4f, pipelined %.4f", fp, fpp)
	// Count parity: pipelining moves overlap, not fence count. Allow
	// slack for the differing publish counts of two timed runs.
	if fpp > fp*1.25 {
		t.Errorf("pipelined fences/msg %.4f well above plain %.4f", fpp, fp)
	}
}

// TestRunBrokerPollerMode runs consumers as event loops, acknowledged
// and pipelined: everything published is delivered exactly through the
// pollers (Stop drains to empty), everything delivered is acked, and
// the post-drain idle loops park on the backoff timer.
func TestRunBrokerPollerMode(t *testing.T) {
	r, err := RunBroker(BrokerConfig{
		Topics: 2, Shards: 4, Producers: 2, Consumers: 2,
		Batch: 8, DequeueBatch: 8, Ack: true,
		AdaptiveBatch: true, Pipeline: true, Poller: true,
		Duration: 150 * time.Millisecond, HeapBytes: 256 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Published == 0 || r.Delivered != r.Published {
		t.Fatalf("delivered %d / published %d", r.Delivered, r.Published)
	}
	if r.Acked != r.Delivered {
		t.Fatalf("poller acked %d of %d delivered", r.Acked, r.Delivered)
	}
	if !r.Poller || !r.AdaptiveBatch || !r.Pipeline {
		t.Fatalf("mode flags not echoed: %+v", r)
	}
	t.Logf("poller mode: published %d, sleeps %d, wakes %d, cons fences/msg %.4f",
		r.Published, r.PollerSleeps, r.PollerWakes, r.ConsumerFencesPerMsg())
}

// TestRunBrokerIdleSojourn is what ProduceGapNs and the sojourn
// quantiles exist to show: on an idle topic (one arrival per 200 µs) a
// fixed window of 8 makes the median message wait for three more
// arrivals — at least three gaps, since time.Sleep never returns early
// — while the adaptive policy sees slow arrivals, shrinks to
// per-message windows and acknowledges each on arrival. DESIGN.md
// claims ~50× at p99; the test asks for 2× at p50.
func TestRunBrokerIdleSojourn(t *testing.T) {
	const gap = 200_000
	run := func(adaptive bool) BrokerResult {
		r, err := RunBroker(BrokerConfig{
			Topics: 1, Shards: 2, Producers: 1, Consumers: 1,
			Batch: 8, DequeueBatch: 4, AdaptiveBatch: adaptive, ProduceGapNs: gap, Poller: true,
			Duration: 100 * time.Millisecond, HeapBytes: 32 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Published < 16 || r.Delivered != r.Published {
			t.Fatalf("adaptive=%v: delivered %d / published %d", adaptive, r.Delivered, r.Published)
		}
		return r
	}
	fixed, adaptive := run(false), run(true)
	t.Logf("sojourn p50: fixed %.0f µs over %d msgs, adaptive %.0f µs over %d msgs",
		fixed.PubSojournP50Ns/1e3, fixed.Published, adaptive.PubSojournP50Ns/1e3, adaptive.Published)
	if fixed.PubSojournP50Ns < 3*gap {
		t.Errorf("fixed window of 8: sojourn p50 %.0f ns, want >= 3 gaps (%d ns)", fixed.PubSojournP50Ns, 3*gap)
	}
	if adaptive.PubSojournP50Ns <= 0 || adaptive.PubSojournP50Ns > fixed.PubSojournP50Ns/2 {
		t.Errorf("adaptive sojourn p50 %.0f ns, want under half of fixed's %.0f ns", adaptive.PubSojournP50Ns, fixed.PubSojournP50Ns)
	}
}
