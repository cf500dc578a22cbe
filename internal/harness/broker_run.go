package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/obs"
	"repro/internal/pmem"
)

// run is the state the goroutines of one RunBroker measurement share:
// the system under test, the phase signals and the result under
// construction.
type run struct {
	cfg   BrokerConfig
	hs    *pmem.HeapSet
	b     *broker.Broker
	g     *broker.Group
	obs   *obs.Observer
	names []string // the topics the group covers

	// res is read by the conductor once every goroutine has returned;
	// each counts privately and merges through tally as it returns.
	res      BrokerResult
	mu       sync.Mutex
	sojourns []int64 // every producer's arrival → durable-ack samples

	stop atomic.Bool // ends the produce phase: Duration is up
	// quiet is closed when the last producer has returned. Consumers
	// take an empty sweep for "drained" only after that: a member that
	// left earlier would strand whatever is published afterwards.
	quiet chan struct{}
}

// tally merges a returning goroutine's private counts into res.
func (r *run) tally(add func(res *BrokerResult)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	add(&r.res)
}

// consumerTid is the thread id of group member c: the consumers' ids
// follow the producers'.
func (r *run) consumerTid(c int) int { return r.cfg.Producers + c }

func (r *run) payload(seq uint64) []byte {
	if r.cfg.Payload == 0 {
		return broker.U64(seq)
	}
	p := make([]byte, r.cfg.Payload)
	copy(p, broker.U64(seq))
	return p
}

// RunBroker executes one broker measurement: it builds the heap set
// and the broker, releases the producers and the consumers together,
// stops the produce phase after Duration, waits for the drain and
// collects the result.
func RunBroker(cfg BrokerConfig) (BrokerResult, error) {
	cfg.norm()
	threads := cfg.Producers + cfg.Consumers
	r, err := newRun(cfg, threads)
	if err != nil {
		return BrokerResult{}, err
	}
	if prev := runtime.GOMAXPROCS(0); threads > prev {
		runtime.GOMAXPROCS(threads)
		defer runtime.GOMAXPROCS(prev)
	}
	consume := r.consume
	if cfg.Poller {
		consume = r.consumePoller
	}
	start := make(chan struct{})
	var producing, wg sync.WaitGroup
	producing.Add(cfg.Producers)
	wg.Add(threads)
	for tid := 0; tid < cfg.Producers; tid++ {
		go func() {
			defer wg.Done()
			defer producing.Done()
			<-start
			r.produce(tid)
		}()
	}
	for c := 0; c < cfg.Consumers; c++ {
		go func() {
			defer wg.Done()
			<-start
			consume(r.consumerTid(c))
		}()
	}
	go func() { producing.Wait(); close(r.quiet) }()
	begin := time.Now()
	close(start)
	timer := time.AfterFunc(cfg.Duration, func() { r.stop.Store(true) })
	defer timer.Stop()
	wg.Wait()
	r.res.Elapsed = time.Since(begin)
	r.collect()
	return r.res, nil
}

// newRun builds the system under test for a normalised cfg: the heap
// set, a broker opened empty with every topic created through the
// live-administration path, and the consumer group. Setup persists are
// charged to no one.
func newRun(cfg BrokerConfig, threads int) (*run, error) {
	r := &run{cfg: cfg, res: BrokerResult{BrokerConfig: cfg}, quiet: make(chan struct{})}
	pcfg := pmem.Config{Bytes: cfg.HeapBytes, Mode: pmem.ModePerf, MaxThreads: threads, Latency: cfg.Latency}
	if len(cfg.HeapFenceNs) > 0 {
		// Asymmetric NUMA: every member gets its own fence latency.
		heaps := make([]*pmem.Heap, cfg.Heaps)
		for i := range heaps {
			hc := pcfg
			hc.Latency.FenceNs = cfg.HeapFenceNs[i%len(cfg.HeapFenceNs)]
			heaps[i] = pmem.New(hc)
		}
		r.hs = pmem.NewSetOf(heaps...)
	} else {
		r.hs = pmem.NewSet(cfg.Heaps, pcfg)
	}
	opts := broker.Options{Threads: threads}
	if cfg.Affine {
		opts.Placement = broker.BlockPlacement
	}
	if cfg.Observe {
		r.obs = obs.New(obs.Config{Threads: threads})
		opts.Observer = r.obs
	}
	var err error
	if r.b, err = broker.Open(r.hs, opts); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Topics; i++ {
		name := fmt.Sprintf("topic-%d", i)
		tc := broker.TopicConfig{Name: name, Shards: cfg.Shards, MaxPayload: cfg.Payload, Acked: cfg.Ack}
		if _, err := r.b.CreateTopic(0, tc); err != nil {
			return nil, err
		}
		r.names = append(r.names, name)
	}
	switch {
	case cfg.Ack:
		if _, err = r.b.CreateAckGroup(0, broker.AckGroupConfig{}); err != nil {
			return nil, err
		}
		r.g, err = r.b.NewGroupAcked(r.names, cfg.Consumers, broker.LeaseConfig{})
	case cfg.Affine:
		r.g, err = r.b.NewGroupAffine(r.names, cfg.Consumers)
	default:
		r.g, err = r.b.NewGroup(r.names, cfg.Consumers)
	}
	if err != nil {
		return nil, err
	}
	r.hs.ResetStats()
	return r, nil
}

// collect fills what only the finished run knows: sojourn quantiles,
// per-group and per-heap persist statistics, the idle-poll phase and
// the observer snapshot.
func (r *run) collect() {
	cfg, res := &r.cfg, &r.res
	res.sojournQuantiles(r.sojourns)
	for tid := 0; tid < cfg.Producers; tid++ {
		res.Producer.Add(r.hs.StatsOf(tid))
	}
	for c := 0; c < cfg.Consumers; c++ {
		res.Consumer.Add(r.hs.StatsOf(r.consumerTid(c)))
	}
	res.PerHeap = make([]pmem.Stats, cfg.Heaps)
	for i := range res.PerHeap {
		res.PerHeap[i] = r.hs.Heap(i).TotalStats()
	}

	// Idle phase: with all shards drained, measure the persist cost of
	// polling empty shards (after the consumer stats were snapshotted,
	// so ConsumerFencesPerMsg is unaffected). Empty-poll fence elision
	// makes this ~0.
	const idlePolls = 1000
	tid, cons := r.consumerTid(0), r.g.Consumer(0)
	idle := r.hs.DeltaOf(tid)
	for i := 0; i < idlePolls; i++ {
		if cfg.DequeueBatch == 1 {
			cons.Poll(tid)
		} else {
			cons.PollBatch(tid, cfg.DequeueBatch)
		}
	}
	res.IdlePolls = idlePolls
	res.IdlePollFences = idle.Delta().Fences
	if r.obs != nil {
		snap := r.obs.Snapshot()
		res.Latency = &snap
	}
}
