package harness

import (
	"time"

	"repro/internal/batch"
	"repro/internal/broker"
	"repro/internal/obs"
)

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
func (r *run) produce(tid int) {
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
		return
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
}

// consume is the busy consumer loop: poll, acknowledge in ack cells,
// and exit once an empty sweep has begun after the producers finished.
func (r *run) consume(tid int) {
	cfg := &r.cfg
	cons := r.g.Consumer(tid - cfg.Producers)
	var delivered, acked, ackFences uint64
	defer r.tally(func(res *BrokerResult) {
		res.Delivered += delivered
		res.Acked += acked
		res.AckFences += ackFences
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
			if cfg.Ack {
				d := r.hs.DeltaOf(tid)
				n, _ := cons.Ack(tid) // nobody moves shards: never ErrFenced
				acked += uint64(n)
				ackFences += d.Delta().Fences
			}
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

// consumePoller runs the consumer as a broker.Poller event loop past
// the produce phase, then stops it — with its final drain-to-empty
// sweep — once the run has gone quiet.
func (r *run) consumePoller(tid int) {
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
}
