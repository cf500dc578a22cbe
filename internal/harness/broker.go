package harness

import (
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/pmem"
)

// BrokerConfig parameterizes one broker throughput cell: a multi-topic
// producers × consumers measurement that joins the five Figure-2
// panels as the harness's system-level workload. Producers publish
// round-robin across topics (and, inside each topic, round-robin
// across shards); consumers form one group covering every topic.
// Nothing perturbs the broker beside the traffic: kills, membership
// churn, live topic creation and retirement and heap-topic traffic are
// scenarios, and a scenario's one home is verify.BrokerScenarios.
type BrokerConfig struct {
	// Topics is the number of topics (>= 1).
	Topics int
	// Shards is the shard count per topic (>= 1).
	Shards int
	// Heaps is the number of member heaps the broker spans (>= 1, each
	// of HeapBytes). Shards spread across the set per the placement
	// policy; per-heap persist statistics land in PerHeap.
	Heaps int
	// Affine selects heap-affine deployment: block shard placement
	// plus heap-affine consumer assignment, so each consumer's fences
	// stay on one domain. Default is round-robin placement and
	// round-robin shard assignment.
	Affine bool
	// Producers and Consumers are the worker thread counts.
	Producers int
	Consumers int
	// Batch is the number of messages per publish call: 1 measures the
	// per-message path (one fence per message), larger values measure
	// the amortized batch path (one fence per batch).
	Batch int
	// DequeueBatch is the number of messages per consumer poll: 1
	// measures the per-message Poll path (one fence per delivery, plus
	// one per empty scan that moved the head), larger values measure
	// PollBatch (a single fence covering up to DequeueBatch deliveries
	// across all of the member's shards).
	DequeueBatch int
	// Payload is the message size in bytes; 0 selects fixed 8-byte
	// topics on OptUnlinkedQ, > 0 variable-payload topics on blobq.
	Payload int
	// Ack enables acknowledged delivery: topics are created Acked, the
	// group is a leased one (NewGroupAcked) and every consumer
	// acknowledges each poll batch after "processing" it, so the
	// measurement shows the full exactly-once pipeline — lease fence
	// per poll, ack fence per batch (AckFencesPerMsg ~ 1/DequeueBatch).
	Ack bool
	// AdaptiveBatch replaces the fixed window sizes with AIMD policies:
	// producers publish through a Publisher whose window adapts between
	// 1 and Batch (with an arrival-rate gate, see PublisherConfig), and
	// consumers size each PollBatch drain between 1 and DequeueBatch
	// from the depth the previous drain observed.
	AdaptiveBatch bool
	// Pipeline defers each publish window's fence into the next flush
	// (Publisher pipelining); with Poller+Ack it also selects AckAsync,
	// so ack fences ride into the next wakeup.
	Pipeline bool
	// Poller runs each consumer as a broker.Poller event loop (backoff
	// instead of spinning) rather than a busy poll loop.
	Poller bool
	// ProduceGapNs spaces message arrivals: each producer waits this
	// long between minting messages, modelling an idle/low-rate topic.
	// Any non-zero gap routes producers through the Publisher path so
	// buffering delay is part of the measured publish sojourn.
	ProduceGapNs int64
	// Duration bounds the produce phase. Consumers drain afterwards.
	Duration  time.Duration
	HeapBytes int64
	Latency   pmem.LatencyModel
	// HeapFenceNs, when non-empty, gives each member heap its own
	// SFENCE latency (heap i takes HeapFenceNs[i % len]): the
	// asymmetric-NUMA topology NewSetOf models, where one domain is
	// slower than another. Empty means every heap uses Latency as is.
	HeapFenceNs []int64
	// Observe attaches an obs.Observer to the broker and fills
	// BrokerResult.Latency with the per-op latency snapshot (including
	// the setup-phase CreateTopic calls under the admin op). Off by
	// default so throughput baselines measure the uninstrumented paths.
	Observe bool
}

// norm fills defaults and clamps the configuration to what a cell can
// run; RunBroker echoes the normalised form in its result.
func (c *BrokerConfig) norm() {
	for _, d := range []struct {
		p   *int
		def int
	}{
		{&c.Topics, 2}, {&c.Shards, 4}, {&c.Heaps, 1}, {&c.Producers, 2},
		{&c.Consumers, 2}, {&c.Batch, 1}, {&c.DequeueBatch, 1},
	} {
		if *d.p <= 0 {
			*d.p = d.def
		}
	}
	if c.Duration == 0 {
		c.Duration = time.Second
	}
	if c.HeapBytes == 0 {
		c.HeapBytes = 512 << 20
	}
	c.ProduceGapNs = max(c.ProduceGapNs, 0)
}

// usePublisher reports whether producers go through the Publisher
// path (buffered windows, optional pipelining) instead of direct
// Publish/PublishBatch calls. Any arrival gap forces it: buffering
// delay must be visible in the sojourn measurement for the fixed
// and adaptive policies to be comparable.
func (c *BrokerConfig) usePublisher() bool {
	return c.AdaptiveBatch || c.Pipeline || c.ProduceGapNs > 0
}

// BrokerResult is one broker measurement outcome. The embedded
// BrokerConfig is the normalised configuration the cell actually ran
// (defaults filled), so a report prints what was measured rather than
// what was asked for. Producer and Consumer aggregate the persist
// statistics of the two thread groups separately (summed across member
// heaps), so the batch-publish fence amortization is directly visible
// as Producer.Fences / Published; PerHeap splits all traffic by
// persistence domain instead, exposing placement imbalance.
type BrokerResult struct {
	BrokerConfig

	Published uint64
	Delivered uint64
	Elapsed   time.Duration
	Producer  pmem.Stats
	Consumer  pmem.Stats

	// Ack-mode statistics: messages acknowledged and blocking persists
	// spent inside Ack calls.
	Acked     uint64
	AckFences uint64

	// PerHeap is each member heap's total event counters for the
	// measured phase (all threads).
	PerHeap []pmem.Stats

	// IdlePolls/IdlePollFences measure the post-drain idle phase: one
	// consumer repeatedly polling its (empty) shards. With empty-poll
	// fence elision the fences stay ~0 after the first poll; without
	// it every poll would fence once per owned shard.
	IdlePolls      uint64
	IdlePollFences uint64

	// PubSojournP50Ns/P99Ns/P999Ns are quantiles of the publish
	// *sojourn*: the time from a message's arrival at the producer to
	// its durable acknowledgment, including any wait in a Publisher
	// window and any pipelined one-window acknowledgment lag. This —
	// not the publish-call latency — is the tail a client of an idle
	// topic experiences, and the number adaptive batching attacks.
	// On the direct (non-Publisher) path it degenerates to the
	// publish-call duration.
	PubSojournP50Ns, PubSojournP99Ns, PubSojournP999Ns float64

	// Poller-mode statistics: timer sleeps taken after empty sweeps
	// and explicit wakeups, summed over all consumers' loops. Zero
	// outside Poller mode.
	PollerSleeps uint64
	PollerWakes  uint64

	// Latency is the observer snapshot (per-op histograms, topic and
	// group gauges, per-heap persist counters), nil unless
	// BrokerConfig.Observe was set. It shadows the embedded
	// configuration's latency model, which stays reachable as
	// r.BrokerConfig.Latency.
	Latency *obs.Snapshot
}

// sojournQuantiles sorts the sample set and fills the sojourn
// quantile fields; no samples leaves them zero.
func (r *BrokerResult) sojournQuantiles(samples []int64) {
	if len(samples) == 0 {
		return
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(samples)-1))
		return float64(samples[i])
	}
	r.PubSojournP50Ns = at(0.50)
	r.PubSojournP99Ns = at(0.99)
	r.PubSojournP999Ns = at(0.999)
}

// opQuantiles returns (p50, p99, p999) of one op kind in
// nanoseconds, zeros when latency was not observed or the op recorded
// no samples.
func (r BrokerResult) opQuantiles(op string) (p50, p99, p999 float64) {
	if r.Latency == nil {
		return 0, 0, 0
	}
	o, _ := r.Latency.Op(op)
	return o.P50Ns, o.P99Ns, o.P999Ns
}

// PublishQuantiles returns publish latency (p50, p99, p999) in
// nanoseconds; zeros without Observe.
func (r BrokerResult) PublishQuantiles() (p50, p99, p999 float64) { return r.opQuantiles("publish") }

// PollQuantiles returns non-empty-poll latency (p50, p99, p999) in
// nanoseconds; zeros without Observe.
func (r BrokerResult) PollQuantiles() (p50, p99, p999 float64) { return r.opQuantiles("poll") }

// AckQuantiles returns ack latency (p50, p99, p999) in nanoseconds;
// zeros without Observe or outside ack mode.
func (r BrokerResult) AckQuantiles() (p50, p99, p999 float64) { return r.opQuantiles("ack") }

// Mops returns million completed operations (publishes + deliveries)
// per second.
func (r BrokerResult) Mops() float64 {
	return float64(r.Published+r.Delivered) / r.Elapsed.Seconds() / 1e6
}

// ratio is n per d, 0 when nothing was counted in the denominator.
func ratio(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// ProducerFencesPerMsg returns blocking persists per published
// message — 1 on the per-message path, ~1/Batch on the batch path.
// 0 when nothing was published.
func (r BrokerResult) ProducerFencesPerMsg() float64 { return ratio(r.Producer.Fences, r.Published) }

// ConsumerFencesPerMsg returns blocking persists per delivered
// message — ~1 on the per-message Poll path, dropping toward
// 1/DequeueBatch on the PollBatch path (empty-poll elision keeps
// failing polls from inflating it). 0 when nothing was delivered.
func (r BrokerResult) ConsumerFencesPerMsg() float64 { return ratio(r.Consumer.Fences, r.Delivered) }

// AckFencesPerMsg returns blocking persists spent acknowledging, per
// delivered message — ~1/DequeueBatch when every batch is acked as a
// whole, 0 outside ack mode.
func (r BrokerResult) AckFencesPerMsg() float64 { return ratio(r.AckFences, r.Delivered) }

// IdleFencesPerPoll returns blocking persists per poll of an idle
// consumer whose shards are all empty — ~0 with empty-poll fence
// elision.
func (r BrokerResult) IdleFencesPerPoll() float64 { return ratio(r.IdlePollFences, r.IdlePolls) }

// HeapImbalance reports how unevenly persist traffic spread across the
// member heaps: the busiest heap's persist-instruction count (fences +
// NTStores) over the per-heap mean. 1.0 is perfectly balanced; H means
// one domain carried everything. 1.0 by definition on a 1-heap set.
func (r BrokerResult) HeapImbalance() float64 {
	if len(r.PerHeap) <= 1 {
		return 1
	}
	var sum, busiest float64
	for _, s := range r.PerHeap {
		v := float64(s.Fences + s.NTStores)
		sum += v
		busiest = max(busiest, v)
	}
	if sum == 0 {
		return 1
	}
	return busiest / (sum / float64(len(r.PerHeap)))
}
