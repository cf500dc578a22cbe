package broker

// This file implements event-loop consumption. A spinning consumer
// burns a core per member whether or not messages arrive; the Poller
// replaces the spin with a level-triggered service loop in the iomux
// idiom: drain everything ready, and only when a full sweep comes up
// empty go to sleep on an exponentially backed-off timer (or an
// explicit Wake nudge). Idle topics therefore cost ~0 CPU — and,
// because an empty PollBatch sweep issues no persist instructions, 0
// fences — while a hot wakeup coalesces a whole backlog window into
// one drain riding one fence per touched persistence domain.

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
)

// PollerConfig parameterizes a Poller.
type PollerConfig struct {
	// Consumer is the group member the loop services; the Poller
	// becomes its single driving goroutine. Required.
	Consumer *Consumer
	// Tid is the thread id the loop runs persists under. The usual
	// one-goroutine-per-tid rule applies: it belongs to Run.
	Tid int
	// Handler receives every non-empty drain, on the loop goroutine.
	// Required.
	Handler func([]Message)
	// Policy sizes each drain window (nil: Fixed{16}). Owned by the
	// Poller. An AIMD policy makes the loop adaptive: wakeups that find
	// deep backlog grow the window toward max batches, quiet ones
	// shrink it toward per-message drains.
	Policy batch.Policy
	// Ack acknowledges each drained window before the next poll
	// (requires an acked group). With Pipeline the acknowledgment is
	// AckAsync — its fence rides into the next wakeup, overlapping the
	// handler and the sleep — and is drained before the loop parks, so
	// a deferral never outlives the wakeup that created it.
	Ack bool
	// Pipeline selects AckAsync over Ack (see above).
	Pipeline bool
	// MinBackoff and MaxBackoff bound the idle sleep: the first empty
	// sweep sleeps MinBackoff, each further one doubles up to
	// MaxBackoff, and any delivery or Wake resets to MinBackoff.
	// Defaults: 50µs and 5ms.
	MinBackoff, MaxBackoff time.Duration
}

// PollerStats counts the loop's activity. Read with Stats at any time;
// the counters are updated atomically by the loop.
type PollerStats struct {
	Polls      uint64 // PollBatch calls issued
	EmptyPolls uint64 // polls that found every owned shard empty
	Delivered  uint64 // messages handed to the handler
	IdleSleeps uint64 // timer sleeps taken after an empty sweep
	Wakes      uint64 // Wake nudges that interrupted or skipped a sleep
	AckErrors  uint64 // ErrFenced refusals from the ack path
}

// Poller runs a consumer as an event loop. Construct with NewPoller,
// drive with Run (blocking; typically `go p.Run()`), nudge with Wake,
// end with Stop. Stop makes Run finish the backlog first: a final
// sweep drains until every owned shard is empty and all deferred acks
// are fenced, so stopping never strands delivered-but-unacked state.
type Poller struct {
	cfg  PollerConfig
	pol  batch.Policy
	wake chan struct{}
	stop chan struct{}
	done chan struct{}
	once sync.Once

	polls, emptyPolls, delivered atomic.Uint64
	idleSleeps, wakes, ackErrs   atomic.Uint64
}

// ErrPollerConfig is NewPoller's refusal of a config without a
// Consumer or a Handler: a loop with nothing to poll or nowhere to
// deliver.
var ErrPollerConfig = errors.New("broker: PollerConfig needs a Consumer and a Handler")

// NewPoller returns a poller over cfg.Consumer. A nil Consumer or
// Handler is ErrPollerConfig; Ack on a plain group is ErrPlainGroup.
func NewPoller(cfg PollerConfig) (*Poller, error) {
	if cfg.Consumer == nil || cfg.Handler == nil {
		return nil, ErrPollerConfig
	}
	if cfg.Ack {
		if err := cfg.Consumer.g.acked("NewPoller"); err != nil {
			return nil, err
		}
	}
	if cfg.Policy == nil {
		cfg.Policy = batch.Fixed{N: 16}
	}
	if cfg.MinBackoff <= 0 {
		cfg.MinBackoff = 50 * time.Microsecond
	}
	if cfg.MaxBackoff < cfg.MinBackoff {
		cfg.MaxBackoff = 5 * time.Millisecond
	}
	return &Poller{
		cfg:  cfg,
		pol:  cfg.Policy,
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}, nil
}

// Wake nudges the loop out of (or past) its idle sleep: call it when
// you know messages just arrived and don't want to pay the backoff.
// Non-blocking; coalesces with an already-pending nudge.
func (p *Poller) Wake() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// Stop ends the loop after a final drain and blocks until Run has
// returned. Idempotent like Janitor.Stop, and for the same reason:
// teardown paths race to stop the same loop, and every caller must
// wait for the exit instead of panicking on a double close.
func (p *Poller) Stop() {
	p.once.Do(func() { close(p.stop) })
	<-p.done
}

// Stats snapshots the loop counters.
func (p *Poller) Stats() PollerStats {
	return PollerStats{
		Polls:      p.polls.Load(),
		EmptyPolls: p.emptyPolls.Load(),
		Delivered:  p.delivered.Load(),
		IdleSleeps: p.idleSleeps.Load(),
		Wakes:      p.wakes.Load(),
		AckErrors:  p.ackErrs.Load(),
	}
}

// Run is the event loop; it blocks until Stop. It owns cfg.Tid and
// cfg.Consumer for its whole duration.
func (p *Poller) Run() {
	defer close(p.done)
	c, tid := p.cfg.Consumer, p.cfg.Tid
	backoff := p.cfg.MinBackoff
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		if p.serve(c, tid) {
			backoff = p.cfg.MinBackoff
			select {
			case <-p.stop:
				p.finish(c, tid)
				return
			default:
			}
			continue
		}
		// Empty sweep: everything ready is drained, so pay any deferred
		// ack fence now — its drain has been overlapping the handler
		// work — and park until the timer or a Wake.
		if p.cfg.Ack && p.cfg.Pipeline {
			c.DrainAcks(tid)
		}
		timer.Reset(backoff)
		select {
		case <-p.stop:
			if !timer.Stop() {
				<-timer.C
			}
			p.finish(c, tid)
			return
		case <-p.wake:
			if !timer.Stop() {
				<-timer.C
			}
			p.wakes.Add(1)
			backoff = p.cfg.MinBackoff
		case <-timer.C:
			p.idleSleeps.Add(1)
			if backoff *= 2; backoff > p.cfg.MaxBackoff {
				backoff = p.cfg.MaxBackoff
			}
		}
	}
}

// serve runs one poll window: drain, deliver, acknowledge. Reports
// whether anything was delivered.
func (p *Poller) serve(c *Consumer, tid int) bool {
	ms := c.PollBatch(tid, p.pol.Size())
	p.pol.Observe(len(ms))
	p.polls.Add(1)
	if len(ms) == 0 {
		p.emptyPolls.Add(1)
		return false
	}
	p.delivered.Add(uint64(len(ms)))
	p.cfg.Handler(ms)
	if p.cfg.Ack {
		var err error
		if p.cfg.Pipeline {
			_, err = c.AckAsync(tid)
		} else {
			_, err = c.Ack(tid)
		}
		if err != nil {
			p.ackErrs.Add(1)
		}
	}
	return true
}

// finish drains the backlog to empty so Stop never strands messages:
// delivered state is the loop's responsibility until the queues are
// dry and every deferred ack is fenced.
func (p *Poller) finish(c *Consumer, tid int) {
	for p.serve(c, tid) {
	}
	if p.cfg.Ack && p.cfg.Pipeline {
		c.DrainAcks(tid)
	}
}
