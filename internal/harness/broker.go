package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/pmem"
)

// BrokerConfig parameterizes one broker throughput cell: producers
// publish 8-byte messages round-robin across FIFO topics (and, inside
// each topic, round-robin across its shards) while one plain consumer
// group covering every topic drains them. Nothing perturbs the broker
// beside the traffic: kills, membership churn and live administration
// are scenarios, and a scenario's one home is verify.BrokerScenarios.
// Exact persist counts are pinned by the broker package's tests, not
// measured here.
type BrokerConfig struct {
	// Topics is the number of topics (>= 1).
	Topics int
	// Shards is the shard count per topic (>= 1).
	Shards int
	// Heaps is the number of member heaps the broker spans (>= 1, each
	// of HeapBytes); shards spread across the set round-robin.
	Heaps int
	// Producers and Consumers are the worker thread counts.
	Producers int
	Consumers int
	// Batch is the number of messages per publish call: 1 runs Publish,
	// larger values PublishBatch.
	Batch int
	// DequeueBatch is the number of messages per consumer poll: 1 runs
	// Poll, larger values PollBatch.
	DequeueBatch int
	// Duration bounds the produce phase. Consumers drain afterwards.
	Duration  time.Duration
	HeapBytes int64
	Latency   pmem.LatencyModel
}

// norm fills defaults for the fields a caller left zero.
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
}

// BrokerResult is one broker measurement outcome.
type BrokerResult struct {
	Published uint64
	Delivered uint64
	Elapsed   time.Duration
}

// Mops returns million completed operations (publishes + deliveries)
// per second.
func (r BrokerResult) Mops() float64 {
	return float64(r.Published+r.Delivered) / r.Elapsed.Seconds() / 1e6
}

// run is the state the goroutines of one RunBroker measurement share.
type run struct {
	cfg    BrokerConfig
	topics []*broker.Topic
	g      *broker.Group

	published, delivered atomic.Uint64 // each goroutine adds its count once, as it returns

	stop atomic.Bool // ends the produce phase: Duration is up
	// quiet is closed when the last producer has returned. Consumers
	// take an empty sweep for "drained" only after that: a member that
	// left earlier would strand whatever is published afterwards.
	quiet chan struct{}
}

// RunBroker executes one broker measurement: it builds the heap set
// and the broker, releases the producers and the consumers together,
// stops the produce phase after Duration, waits for the drain and
// reports what was published and delivered.
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
	for tid := cfg.Producers; tid < threads; tid++ {
		go func() {
			defer wg.Done()
			<-start
			r.consume(tid)
		}()
	}
	go func() { producing.Wait(); close(r.quiet) }()
	begin := time.Now()
	close(start)
	timer := time.AfterFunc(cfg.Duration, func() { r.stop.Store(true) })
	defer timer.Stop()
	wg.Wait()
	return BrokerResult{
		Published: r.published.Load(),
		Delivered: r.delivered.Load(),
		Elapsed:   time.Since(begin),
	}, nil
}

// newRun builds the system under test for a normalised cfg: the heap
// set, a broker opened empty with every topic created through the
// live-administration path, and the consumer group.
func newRun(cfg BrokerConfig, threads int) (*run, error) {
	hs := pmem.NewSet(cfg.Heaps, pmem.Config{Bytes: cfg.HeapBytes, Mode: pmem.ModePerf, MaxThreads: threads, Latency: cfg.Latency})
	b, err := broker.Open(hs, broker.Options{Threads: threads})
	if err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, quiet: make(chan struct{})}
	var names []string
	for i := 0; i < cfg.Topics; i++ {
		name := fmt.Sprintf("topic-%d", i)
		t, err := b.CreateTopic(0, broker.TopicConfig{Name: name, Shards: cfg.Shards})
		if err != nil {
			return nil, err
		}
		r.topics = append(r.topics, t)
		names = append(names, name)
	}
	if r.g, err = b.NewGroup(names, cfg.Consumers); err != nil {
		return nil, err
	}
	return r, nil
}

// produce publishes windows of Batch messages round-robin across the
// topics until the produce phase stops.
func (r *run) produce(tid int) {
	window := make([][]byte, r.cfg.Batch)
	seq := uint64(tid) << 40
	var published uint64
	for i := 0; !r.stop.Load(); i++ {
		t := r.topics[i%len(r.topics)]
		for j := range window {
			seq++
			window[j] = broker.U64(seq)
		}
		// A live FIFO topic has no reason to refuse an 8-byte message.
		if len(window) == 1 {
			_ = t.Publish(tid, window[0])
		} else {
			_ = t.PublishBatch(tid, window)
		}
		published += uint64(len(window))
	}
	r.published.Add(published)
}

// consume is the busy consumer loop of group member tid-Producers: it
// exits once an empty sweep has begun after the producers finished.
func (r *run) consume(tid int) {
	cons := r.g.Consumer(tid - r.cfg.Producers)
	var delivered uint64
	defer func() { r.delivered.Add(delivered) }()
	drained := false
	for {
		n := 0
		if r.cfg.DequeueBatch == 1 {
			if _, ok := cons.Poll(tid); ok {
				n = 1
			}
		} else {
			n = len(cons.PollBatch(tid, r.cfg.DequeueBatch))
		}
		if n > 0 {
			delivered += uint64(n)
			drained = false
			continue
		}
		select {
		case <-r.quiet:
			// Exit only on an empty sweep that began after the producers
			// were observed finished; the first empty sweep may predate
			// their last publishes.
			if drained {
				return
			}
			drained = true
		default:
		}
	}
}
