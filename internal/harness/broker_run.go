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

// leaseTTL is the acked group's lease length on run.leaseClock, a
// logical clock, so kills and churn expire leases instantly instead of
// sleeping out wall-clock TTLs.
const leaseTTL = 16

// run is the state the drivers of one RunBroker measurement share:
// the system under test, the phase signals, the first failure, and
// the result under construction.
type run struct {
	cfg        BrokerConfig
	hs         *pmem.HeapSet
	b          *broker.Broker
	g          *broker.Group
	obs        *obs.Observer
	names      []string        // the FIFO topics the group covers
	heapTopics []*broker.Topic // delay/priority topics, outside the group
	leaseClock atomic.Uint64

	// res is read by the conductor once every driver has returned. A
	// driver that runs as several instances counts privately and merges
	// through tally as it returns; a singleton driver is the only
	// writer of its own fields and adds to them in place.
	res      BrokerResult
	mu       sync.Mutex
	sojourns []int64 // every producer's arrival → durable-ack samples

	start    chan struct{} // closed to release every driver at once
	stop     atomic.Bool   // ends the produce phase: Duration is up, or a driver failed
	feeding  atomic.Int32  // feeding drivers (driver.feeds) still running
	quiet    chan struct{} // closed when the last of them has returned
	failed   chan struct{} // closed by the first fail
	failOnce sync.Once
	err      error

	// The cooperative hooks of the busy consumer loop, per consumer.
	killFlag []atomic.Bool
	stallOf  []atomic.Pointer[stallCtl]
	consDone []chan struct{}
}

// fail records the first error any driver raises and ends the produce
// phase, so the run winds down at once instead of sleeping out
// Duration on a measurement that is already invalid.
func (r *run) fail(err error) {
	r.failOnce.Do(func() {
		r.err = err
		r.stop.Store(true)
		close(r.failed)
	})
}

// tally merges a returning driver instance's private counts into res.
func (r *run) tally(add func(res *BrokerResult)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	add(&r.res)
}

// pause sleeps a side driver through d of the produce phase; false
// means the run failed meanwhile and the driver should return.
func (r *run) pause(d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-r.failed:
		return false
	}
}

// consumerTid is the thread id of group member c (see drivers: the
// consumers' ids follow the producers').
func (r *run) consumerTid(c int) int { return r.cfg.Producers + c }

func (r *run) payload(seq uint64) []byte {
	if r.cfg.Payload == 0 {
		return broker.U64(seq)
	}
	p := make([]byte, r.cfg.Payload)
	copy(p, broker.U64(seq))
	return p
}

// RunBroker executes one broker measurement: it lays the enabled
// drivers out over thread ids, builds the heap set and the broker,
// releases the drivers together, stops the produce phase after
// Duration (or at the first driver failure), waits for the drain and
// collects the result.
func RunBroker(cfg BrokerConfig) (BrokerResult, error) {
	cfg.norm()
	type task struct {
		d   *driver
		tid int
	}
	var tasks []task
	threads := 0
	for i := range drivers {
		d := &drivers[i]
		for n := d.n(&cfg); n > 0; n-- {
			tid := -1
			if d.ownTid {
				tid = threads
				threads++
			}
			tasks = append(tasks, task{d, tid})
		}
	}
	r, err := newRun(cfg, threads)
	if err != nil {
		return BrokerResult{}, err
	}
	if prev := runtime.GOMAXPROCS(0); threads > prev {
		runtime.GOMAXPROCS(threads)
		defer runtime.GOMAXPROCS(prev)
	}
	var wg sync.WaitGroup
	for _, t := range tasks {
		wg.Add(1)
		if t.d.feeds {
			r.feeding.Add(1)
		}
		go func() {
			defer wg.Done()
			<-r.start
			if err := t.d.run(r, t.tid); err != nil {
				r.fail(fmt.Errorf("harness: %s: %w", t.d.name, err))
			}
			if t.d.feeds && r.feeding.Add(-1) == 0 {
				close(r.quiet)
			}
		}()
	}
	begin := time.Now()
	close(r.start)
	timer := time.AfterFunc(cfg.Duration, func() { r.stop.Store(true) })
	defer timer.Stop()
	wg.Wait()
	r.res.Elapsed = time.Since(begin)
	if r.err != nil {
		return BrokerResult{}, r.err
	}
	r.collect()
	return r.res, nil
}

// newRun builds the system under test for a normalised cfg: the heap
// set, a broker opened empty with every topic created through the
// live-administration path (exactly as the mid-run DynTopics creations
// are), and the consumer group. Setup persists are charged to no one.
func newRun(cfg BrokerConfig, threads int) (*run, error) {
	r := &run{
		cfg:      cfg,
		res:      BrokerResult{BrokerConfig: cfg},
		start:    make(chan struct{}),
		quiet:    make(chan struct{}),
		failed:   make(chan struct{}),
		killFlag: make([]atomic.Bool, cfg.Consumers),
		stallOf:  make([]atomic.Pointer[stallCtl], cfg.Consumers),
		consDone: make([]chan struct{}, cfg.Consumers),
	}
	for c := range r.consDone {
		r.consDone[c] = make(chan struct{})
	}
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
	// Heap-backed topics live beside the FIFO ones but outside the
	// consumer group (heap delivery is its own durable protocol).
	for _, k := range []struct {
		n    int
		name string
		kind broker.TopicKind
	}{{cfg.DelayTopics, "delay-%d", broker.KindDelay}, {cfg.PrioTopics, "prio-%d", broker.KindPriority}} {
		for i := 0; i < k.n; i++ {
			t, err := r.b.CreateTopic(0, broker.TopicConfig{
				Name: fmt.Sprintf(k.name, i), Shards: 1, MaxPayload: cfg.Payload, Kind: k.kind,
			})
			if err != nil {
				return nil, err
			}
			r.heapTopics = append(r.heapTopics, t)
		}
	}
	switch {
	case cfg.Ack:
		if _, err = r.b.CreateAckGroup(0, broker.AckGroupConfig{}); err != nil {
			return nil, err
		}
		r.g, err = r.b.NewGroupAcked(r.names, cfg.Consumers, broker.LeaseConfig{TTL: leaseTTL, Now: r.leaseClock.Load})
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

// collect fills what only the finished run knows: footprint, sojourn
// quantiles, per-group and per-heap persist statistics, the idle-poll
// phase and the observer snapshot.
func (r *run) collect() {
	cfg, res := &r.cfg, &r.res
	res.SlotsUsed, res.SlotsFree = r.b.SlotFootprint()
	res.sojournQuantiles(r.sojourns)
	// Side drivers' thread ids lie beyond the consumer range, so their
	// persist traffic never skews either group's statistics.
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
