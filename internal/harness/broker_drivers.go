package harness

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/batch"
	"repro/internal/broker"
	"repro/internal/obs"
)

// driver is one kind of goroutine a measurement runs beside the
// others. RunBroker starts n(cfg) instances of every driver, in table
// order, and an error an instance returns fails the whole run. Adding
// a side activity to the harness is one entry here plus the
// BrokerConfig field that enables it.
type driver struct {
	name string
	n    func(c *BrokerConfig) int
	// ownTid: every instance claims the next free thread id (the
	// others are passed -1 and borrow the ids they document).
	ownTid bool
	// feeds: the driver hands consumers work — it publishes, or moves
	// shards between members — so consumers outlive it: they take an
	// empty sweep for "drained" only once every feeding driver has
	// returned (run.quiet). A member that left earlier would strand
	// whatever is moved to it afterwards.
	feeds bool
	run   func(r *run, tid int) error
}

// when is n if on, else 0 — the usual shape of driver.n.
func when(on bool, n int) int {
	if on {
		return n
	}
	return 0
}

// drivers is the table. Producers and consumers come first, so their
// thread ids are 0..Producers-1 and Producers..Producers+Consumers-1
// (run.consumerTid), whichever consumer flavour the cell runs.
var drivers = []driver{
	{name: "producer", ownTid: true, feeds: true, run: (*run).produce,
		n: func(c *BrokerConfig) int { return c.Producers }},
	{name: "consumer", ownTid: true, run: (*run).consume,
		n: func(c *BrokerConfig) int { return when(!c.Poller, c.Consumers) }},
	{name: "poller consumer", ownTid: true, run: (*run).consumePoller,
		n: func(c *BrokerConfig) int { return when(c.Poller, c.Consumers) }},
	{name: "killer", feeds: true, run: (*run).kill,
		n: func(c *BrokerConfig) int { return when(c.Kills > 0, 1) }},
	{name: "live-create admin", ownTid: true, run: (*run).createTopics,
		n: func(c *BrokerConfig) int { return when(c.DynTopics > 0, 1) }},
	{name: "churn controller", ownTid: true, feeds: true, run: (*run).churn,
		n: func(c *BrokerConfig) int { return when(c.Churn > 0, 1) }},
	{name: "retirement thread", ownTid: true, run: (*run).retireTopics,
		n: func(c *BrokerConfig) int { return when(c.DelTopics > 0, 1) }},
	{name: "heap-topic traffic", ownTid: true, run: (*run).heapTraffic,
		n: func(c *BrokerConfig) int { return when(c.DelayTopics+c.PrioTopics > 0, 1) }},
}

// adaptiveMaxDelayNs is the Publisher deadline/arrival-rate gate in
// adaptive mode: arrivals spaced wider than this count as idle (the
// window shrinks toward per-message flushes) and no buffered message
// waits longer than this for its window to fill.
const adaptiveMaxDelayNs = 100_000

// sojournCap bounds a producer's sojourn sample ring (recent samples
// win once full).
const sojournCap = 1 << 19

// policy is the window-size policy of a cell with windows up to max:
// AIMD between 1 and max in adaptive cells, fixed at max otherwise.
func (r *run) policy(max int) batch.Policy {
	if r.cfg.AdaptiveBatch {
		return batch.NewAIMD(1, max)
	}
	return batch.Fixed{N: max}
}

// produce publishes round-robin across the topics until the produce
// phase stops, recording every message's arrival → durable-ack
// sojourn.
func (r *run) produce(tid int) error {
	cfg := &r.cfg
	var published uint64
	var samples []int64
	recorded := 0
	rec := func(sojourn int64) {
		if len(samples) < sojournCap {
			samples = append(samples, sojourn)
		} else {
			samples[recorded%sojournCap] = sojourn
		}
		recorded++
	}
	defer r.tally(func(res *BrokerResult) {
		res.Published += published
		r.sojourns = append(r.sojourns, samples...)
	})
	seq := uint64(tid) << 40
	next := func() []byte { seq++; return r.payload(seq) }

	if !cfg.usePublisher() {
		window := make([][]byte, cfg.Batch)
		for i := 0; !r.stop.Load(); i++ {
			t := r.b.Topic(r.names[i%cfg.Topics])
			for j := range window {
				window[j] = next()
			}
			at := obs.Now()
			if cfg.Batch == 1 {
				t.Publish(tid, window[0])
			} else {
				t.PublishBatch(tid, window)
			}
			d := obs.Now() - at
			for range window {
				rec(d)
			}
			published += uint64(cfg.Batch)
		}
		return nil
	}

	// One publisher (and one arrival FIFO — acks are FIFO in publish
	// order) per topic the producer round-robins over.
	pubs := make([]*broker.Publisher, cfg.Topics)
	arrivals := make([][]int64, cfg.Topics)
	for ti := range pubs {
		pc := broker.PublisherConfig{Pipeline: cfg.Pipeline, Policy: r.policy(cfg.Batch)}
		if cfg.AdaptiveBatch {
			pc.MaxDelayNs = adaptiveMaxDelayNs
		}
		pubs[ti] = r.b.Topic(r.names[ti]).NewPublisher(tid, pc)
	}
	acked := func(ti, n int) {
		if n == 0 {
			return
		}
		end := obs.Now()
		for _, at := range arrivals[ti][:n] {
			rec(end - at)
		}
		arrivals[ti] = arrivals[ti][n:]
		published += uint64(n)
	}
	for i := 0; !r.stop.Load(); i++ {
		if cfg.ProduceGapNs > 0 {
			time.Sleep(time.Duration(cfg.ProduceGapNs))
		}
		ti := i % cfg.Topics
		arrivals[ti] = append(arrivals[ti], obs.Now())
		acked(ti, pubs[ti].Publish(next()))
	}
	for ti := range pubs {
		acked(ti, pubs[ti].Flush())
	}
	return nil
}

// stallCtl coordinates one churn cycle: the stalled consumer closes
// stalled when it parks holding a delivered-but-unacked window, and
// unparks when the controller closes resume.
type stallCtl struct {
	stalled chan struct{}
	resume  chan struct{}
}

// consume is the busy consumer loop: poll, acknowledge in ack cells,
// and exit once an empty sweep has begun after the run went quiet.
// In ack cells it honours the churn controller's stall requests and
// the killer's flag between a delivery and its acknowledgment.
func (r *run) consume(tid int) error {
	cfg := &r.cfg
	c := tid - cfg.Producers
	defer close(r.consDone[c])
	cons := r.g.Consumer(c)
	var delivered, acked, ackFences, fencedAcks uint64
	defer r.tally(func(res *BrokerResult) {
		res.Delivered += delivered
		res.Acked += acked
		res.AckFences += ackFences
		res.FencedAcks += fencedAcks
	})
	pol := r.policy(cfg.DequeueBatch)
	poll := func() int {
		if cfg.DequeueBatch == 1 {
			if _, ok := cons.Poll(tid); ok {
				return 1
			}
			return 0
		}
		n := len(cons.PollBatch(tid, pol.Size()))
		pol.Observe(n)
		return n
	}
	drained := false
	for {
		if n := poll(); n > 0 {
			delivered += uint64(n)
			drained = false
			if !cfg.Ack {
				continue
			}
			if ctl := r.stallOf[c].Swap(nil); ctl != nil {
				// Stalled by the churn controller: keep the window in
				// flight, unacked, until resumed.
				close(ctl.stalled)
				<-ctl.resume
			}
			if r.killFlag[c].Load() {
				// Killed mid-batch: the window stays unacked and is
				// redelivered via takeover.
				return nil
			}
			d := r.hs.DeltaOf(tid)
			n, err := cons.Ack(tid)
			if errors.Is(err, broker.ErrFenced) {
				// The window was reassigned or stolen while we stalled;
				// it is someone else's now.
				fencedAcks++
				continue
			}
			acked += uint64(n)
			ackFences += d.Delta().Fences
			continue
		}
		if r.killFlag[c].Load() {
			return nil
		}
		select {
		case <-r.quiet:
			// Exit only on an empty sweep that began after the feeding
			// drivers were observed finished; the first empty sweep may
			// predate their last publishes.
			if drained {
				return nil
			}
			drained = true
		default:
		}
	}
}

// consumePoller runs the consumer as a broker.Poller event loop past
// the produce phase, then stops it — with its final drain-to-empty
// sweep — once the run has gone quiet.
func (r *run) consumePoller(tid int) error {
	cfg := &r.cfg
	pl := broker.NewPoller(broker.PollerConfig{
		Consumer: r.g.Consumer(tid - cfg.Producers),
		Tid:      tid,
		Policy:   r.policy(cfg.DequeueBatch),
		Ack:      cfg.Ack,
		Pipeline: cfg.Pipeline,
		Handler:  func([]broker.Message) {}, // the loop counts deliveries itself
	})
	go pl.Run()
	<-r.quiet
	pl.Stop()
	st := pl.Stats()
	r.tally(func(res *BrokerResult) {
		res.Delivered += st.Delivered
		res.PollerSleeps += st.IdleSleeps
		res.PollerWakes += st.Wakes
		if cfg.Ack {
			// The poller acknowledges everything it delivers; its
			// per-call fence split is not tracked separately.
			res.Acked += st.Delivered
		}
	})
	return nil
}

// kill crashes consumers 1..Kills one by one mid-run (cooperatively:
// the member abandons its unacked window), expires their leases on the
// logical clock, and adopts their shards into consumer 0 (never a
// victim, and still polling: the killer feeds) on the dead member's
// own thread id.
func (r *run) kill(int) error {
	cfg := &r.cfg
	for victim := 1; victim <= cfg.Kills; victim++ {
		if !r.pause(cfg.Duration / time.Duration(cfg.Kills+2)) {
			return nil
		}
		r.killFlag[victim].Store(true)
		<-r.consDone[victim]
		r.leaseClock.Add(leaseTTL + 1)
		moved, err := r.g.Adopt(r.consumerTid(victim), victim, 0)
		if err != nil {
			// A failed takeover strands the victim's backlog; the
			// measurement is invalid, so surface it.
			return fmt.Errorf("takeover of consumer %d failed: %w", victim, err)
		}
		r.res.Redelivered += uint64(moved)
	}
	return nil
}

// createTopics is the administrator: it creates DynTopics fresh topics
// on the live broker, spread across the produce phase, measuring the
// blocking persists each creation costs while the data plane runs.
func (r *run) createTopics(tid int) error {
	cfg := &r.cfg
	for d := 0; d < cfg.DynTopics; d++ {
		if !r.pause(cfg.Duration / time.Duration(cfg.DynTopics+1)) {
			return nil
		}
		delta := r.hs.DeltaOf(tid)
		_, err := r.b.CreateTopic(tid, broker.TopicConfig{
			Name: fmt.Sprintf("dyn-%d", d), Shards: cfg.Shards, MaxPayload: cfg.Payload,
		})
		if err != nil {
			return fmt.Errorf("mid-run CreateTopic %d failed: %w", d, err)
		}
		r.res.DynTopicFences += delta.Delta().Fences
	}
	return nil
}

// retireTopics cycles a scratch topic through create → publish a
// little → delete, spread across the produce phase. The fence delta
// brackets only the DeleteTopic call, so the measured cost is the
// retirement protocol itself; the recycled-window proof comes from the
// post-run slot footprint.
func (r *run) retireTopics(tid int) error {
	cfg := &r.cfg
	scratch := make([][]byte, 4)
	for j := range scratch {
		scratch[j] = r.payload(uint64(j))
	}
	for d := 0; d < cfg.DelTopics; d++ {
		if !r.pause(cfg.Duration / time.Duration(cfg.DelTopics+1)) {
			return nil
		}
		name := fmt.Sprintf("del-%d", d)
		t, err := r.b.CreateTopic(tid, broker.TopicConfig{Name: name, Shards: cfg.Shards, MaxPayload: cfg.Payload})
		if err == nil {
			t.PublishBatch(tid, scratch)
			delta := r.hs.DeltaOf(tid)
			err = r.b.DeleteTopic(tid, name)
			r.res.DelTopicFences += delta.Delta().Fences
		}
		if err != nil {
			return fmt.Errorf("retirement cycle %d failed: %w", d, err)
		}
	}
	return nil
}

// heapTraffic drives the delay/priority topics: each cycle durably
// publishes one Batch-sized window to every heap topic (deadlines and
// ranks off a logical clock, one fence per window) and pops the ready
// backlog in DequeueBatch-sized batches (one fence per non-empty
// batch), so both amortization ratios are measured on the real broker
// paths. The produce phase ends with a full drain: every
// heap-published message is also popped.
func (r *run) heapTraffic(tid int) error {
	cfg := &r.cfg
	clock := uint64(1)
	keys := make([]uint64, cfg.Batch)
	window := make([][]byte, cfg.Batch)
	// pop drains the ready backlog in DequeueBatch-sized batches;
	// draining each cycle keeps the per-thread entry arena bounded at
	// ~one publish window regardless of the Batch/DequeueBatch ratio.
	pop := func(t *broker.Topic) error {
		for {
			d := r.hs.DeltaOf(tid)
			ps, err := t.DequeueReadyBatch(tid, clock, cfg.DequeueBatch)
			if err != nil {
				return err
			}
			r.res.HeapPopFences += d.Delta().Fences
			r.res.HeapPopped += uint64(len(ps))
			if len(ps) < cfg.DequeueBatch {
				return nil
			}
		}
	}
	for done := false; !done; {
		done = r.stop.Load()
		for _, t := range r.heapTopics {
			for j := range window {
				clock++
				keys[j] = clock
				window[j] = r.payload(clock)
			}
			d := r.hs.DeltaOf(tid)
			var err error
			if t.Kind() == broker.KindDelay {
				err = t.PublishAtBatch(tid, window, keys)
			} else {
				err = t.PublishPriorityBatch(tid, window, keys)
			}
			if err == nil {
				r.res.HeapPubFences += d.Delta().Fences
				r.res.HeapPublished += uint64(cfg.Batch)
				err = pop(t)
			}
			if err != nil {
				return err
			}
		}
	}
	clock = ^uint64(0) // final drain: everything is ready
	for _, t := range r.heapTopics {
		if err := pop(t); err != nil {
			return err
		}
	}
	return nil
}

// churn is the membership-churn controller: each cycle stalls one
// member mid-window, displaces its shards, then resumes it so its
// stale ack is refused on the fencing path (FencedAcks).
func (r *run) churn(tid int) error {
	cfg := &r.cfg
	for cycle := 0; cycle < cfg.Churn; cycle++ {
		// A cycle that would start after the produce phase has no
		// traffic to stall on: the members are only waiting for us.
		if !r.pause(cfg.Duration/time.Duration(cfg.Churn+1)) || r.stop.Load() {
			return nil
		}
		victim := 1 + cycle%(cfg.Consumers-1)
		ctl := r.stall(victim)
		if ctl == nil {
			continue
		}
		err := r.displace(tid, cycle, victim)
		close(ctl.resume)
		if err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
	}
	return nil
}

// stall asks consumer victim to park on its next delivered window and
// waits until it has. It returns nil, and the cycle is skipped, when
// the victim was killed or saw no window within Duration — unless it
// grabbed the control at the last moment.
func (r *run) stall(victim int) *stallCtl {
	ctl := &stallCtl{stalled: make(chan struct{}), resume: make(chan struct{})}
	r.stallOf[victim].Store(ctl)
	select {
	case <-ctl.stalled:
		return ctl
	case <-r.consDone[victim]:
	case <-time.After(r.cfg.Duration):
	case <-r.failed:
	}
	if r.stallOf[victim].Swap(nil) != nil {
		return nil
	}
	<-ctl.stalled
	return ctl
}

// displace moves the stalled victim's shards away. Even cycles: a
// forced Reassign split across every survivor. Odd cycles: the leases
// expire on the logical clock and consumer 0 work-steals them shard by
// shard before a Scan sweeps up the rest.
func (r *run) displace(tid, cycle, victim int) error {
	if cycle%2 == 0 {
		var targets []int
		for m := 0; m < r.cfg.Consumers; m++ {
			if m != victim {
				targets = append(targets, m)
			}
		}
		moved := len(r.g.Consumer(victim).Assigned())
		if _, err := r.g.Reassign(tid, victim, targets, true); err != nil {
			return fmt.Errorf("forced Reassign of consumer %d failed: %w", victim, err)
		}
		r.res.Reassigned += uint64(moved)
		return nil
	}
	r.leaseClock.Add(leaseTTL + 1)
	for thief := r.g.Consumer(0); ; {
		took, _, err := thief.Steal(tid)
		if err != nil {
			return fmt.Errorf("Steal failed: %w", err)
		}
		if !took {
			break
		}
		r.res.Stolen++
	}
	if _, err := r.g.Scan(tid, r.leaseClock.Load()); err != nil {
		return fmt.Errorf("Scan failed: %w", err)
	}
	r.res.Scans++
	return nil
}
