package verify

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/broker"
	"repro/internal/obs"
	"repro/internal/pmem"
)

// round is one run of one scenario at one seed, and the frame every
// scenario of brokerfuzz.go shares: the heap set and its broker, the one
// place that arms the power loss, the one place that starts a goroutine,
// the start gate, the join, the power loss and the reopen.
type round struct {
	seed    int64
	o       *obs.Observer // may be nil; both brokers report to it
	threads int           // the scenario's BrokerScenario.Threads

	hs       *pmem.HeapSet
	b        *broker.Broker // the broker that loses power
	crashRng *rand.Rand     // arm's stream; later seed-placed events draw on
	res      BrokerFuzzResult

	fail atomic.Pointer[error] // the first failure an actor reported
	// start gates all workers on one signal so consumers race producers
	// from the first access — without it the crash (which fires within
	// tens of thousands of accesses) usually lands before the consumer
	// goroutines are even scheduled and the delivered-side audit is
	// vacuous.
	start chan struct{}
	wg    sync.WaitGroup // joins every actor
	live  atomic.Int32   // producers still running
	done  chan struct{}  // closed when the last producer returns
	acked [][]uint64     // acked[p]: the ids whose publish returned to producer p
}

// open builds the ModeCrash set and populates a broker on it: one
// CreateTopic per topic, then ackGroups lease regions each sized exactly
// to the shard total.
func (r *round) open(heaps int, topics []broker.TopicConfig, ackGroups int) error {
	r.hs = pmem.NewSet(heaps, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: r.threads})
	b, err := r.reopen(broker.Options{Threads: r.threads})
	if err != nil {
		return err
	}
	for _, tc := range topics {
		if _, err := b.CreateTopic(0, tc); err != nil {
			return err
		}
	}
	for g := 0; g < ackGroups; g++ {
		if _, err := b.CreateAckGroup(0, broker.AckGroupConfig{Capacity: b.ShardTotal()}); err != nil {
			return err
		}
	}
	r.b = b
	return nil
}

// reopen is broker.Open: on the blank set it creates, later it recovers.
func (r *round) reopen(opts broker.Options) (*broker.Broker, error) {
	opts.Observer = r.o
	return broker.Open(r.hs, opts)
}

// arm schedules the power loss on a seed-chosen member, (lo + a draw
// below span) / heaps accesses from now, and records what it armed.
func (r *round) arm(lo, span int) {
	heaps := r.hs.Len()
	r.crashRng = rand.New(rand.NewSource(r.seed))
	r.res.ArmedHeap = r.crashRng.Intn(heaps)
	r.res.ArmedAccess = (int64(lo) + int64(r.crashRng.Intn(span))) / int64(heaps)
	r.hs.Heap(r.res.ArmedHeap).ScheduleCrashAtAccess(r.res.ArmedAccess)
}

// actor starts body on its own goroutine, held at the gate and joined
// by run: the only place a scenario goroutine starts.
func (r *round) actor(body func()) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		<-r.start
		body()
	}()
}

// producers starts n producer actors; body(p) returns the ids whose
// publish returned, stopping at the power loss.
func (r *round) producers(n int, body func(p int) []uint64) {
	r.acked = make([][]uint64, n)
	r.live.Store(int32(n))
	for p := 0; p < n; p++ {
		r.actor(func() {
			r.acked[p] = body(p)
			if r.live.Add(-1) == 0 {
				close(r.done)
			}
		})
	}
}

// yield is every scenario loop's scheduling point: taken between
// operations so producers and consumers interleave even on a single-P
// runtime; the crash window is far shorter than a preemption quantum.
func (r *round) yield() { runtime.Gosched() }

// trafficEnded reports whether every producer has returned.
func (r *round) trafficEnded() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// failf reports an actor's failure; run returns the first one.
func (r *round) failf(format string, a ...any) {
	err := fmt.Errorf(format, a...)
	r.fail.CompareAndSwap(nil, &err)
}

// run releases the gate, joins every actor and ends the traffic phase
// with the power loss: when the armed crash has not fired (traffic
// finished first) the set is crashed at quiescence; the crash is then
// finalized from seed*finalizeSalt and the set restarted. It returns the
// first failure an actor reported, or else the recovered broker.
func (r *round) run(finalizeSalt int64, opts broker.Options) (*broker.Broker, error) {
	close(r.start)
	r.wg.Wait()
	r.res.MidTraffic = r.hs.Crashed()
	if !r.res.MidTraffic {
		r.hs.CrashNow()
	}
	r.hs.FinalizeCrash(rand.New(rand.NewSource(r.seed * finalizeSalt)))
	r.hs.Restart()
	if err := r.fail.Load(); err != nil {
		return nil, *err
	}
	return r.reopen(opts)
}

// memberHooks is what a scenario plugs into ackedMember's loop.
type memberHooks struct {
	// holding runs with a delivered window of n messages in hand, after
	// the member acknowledged `windows` of them. While it blocks the
	// member is stalled: silent, not acking, not dead. When it returns
	// true the member dies there — delivered, never acknowledged — so
	// the window must be redelivered via takeover. It is asked again
	// (n = 0) once traffic has ended, so a member marked dead leaves.
	holding func(windows, n int) (dies bool)
	// fenced, when set, is told of each Ack refused with ErrFenced: the
	// window was taken while the member was silent; nothing is recorded.
	fenced func()
	// steal makes an idle member work-steal expired shards one at a time.
	steal bool
}

// ackedMember runs member c of an acked group on tid — poll a window,
// check it, acknowledge it, record it — until the power loss, its death,
// or traffic has ended and two sweeps in a row came back empty. It
// returns the ids it acknowledged and recorded.
func ackedMember(r *round, c int, cons *broker.Consumer, tid, window int, h memberHooks) (processed map[uint64]bool) {
	processed = map[uint64]bool{}
	windows, idle := 0, false
	for {
		r.yield()
		var ms []broker.Message
		if pmem.Protect(func() { ms = cons.PollBatch(tid, window) }) {
			return processed // power loss mid-poll
		}
		if len(ms) > 0 {
			idle = false
			for _, m := range ms {
				if _, err := checkPayload(m.Payload); err != nil {
					r.failf("consumer %d: %w", c, err)
				}
			}
			if h.holding(windows, len(ms)) {
				return processed
			}
			var aerr error
			if pmem.Protect(func() { _, aerr = cons.Ack(tid) }) || r.hs.Crashed() {
				// Crash mid-ack: the ack may or may not be durable. And
				// once the set is down nothing is recorded: the crash
				// signal is raised only at a pmem access, so an Ack
				// that makes none — over redeliveries a crashed
				// takeover queued without moving their shard — returns
				// as if it had acknowledged.
				return processed
			}
			if h.fenced != nil && errors.Is(aerr, broker.ErrFenced) {
				h.fenced()
				continue
			}
			// Only now is the batch processed for the audit.
			for _, m := range ms {
				processed[broker.AsU64(m.Payload[:8])] = true
			}
			windows++
			continue
		}
		if h.steal {
			var stole bool
			var serr error
			if pmem.Protect(func() { stole, _, serr = cons.Steal(tid) }) {
				return processed
			}
			if serr != nil {
				r.failf("consumer %d steal: %w", c, serr)
				return processed
			}
			if stole {
				continue
			}
		}
		if r.trafficEnded() {
			if h.holding(windows, 0) || idle {
				return processed
			}
			idle = true
		}
	}
}

// ledger is the audit's account of where every message id went: the
// population ("delivered", "consumer 2", "recovered", …) that holds it.
// An id two populations claim is the duplicate the audit exists to
// refuse. The first refusal closes the account: it is kept in err, every
// later fold is a no-op, and settle returns it.
type ledger struct {
	where map[uint64]string
	err   error
}

func newLedger() *ledger { return &ledger{where: map[uint64]string{}} }

// claim enters id under how, or refuses with format (handed the id, the
// population already holding it, and more); false: the account is closed.
func (l *ledger) claim(id uint64, how, format string, more ...any) bool {
	if prev, dup := l.where[id]; dup && l.err == nil {
		l.err = fmt.Errorf(format, append([]any{id, prev}, more...)...)
	}
	if l.err == nil {
		l.where[id] = how
	}
	return l.err == nil
}

// markSeen folds one population of pre-crash deliveries in, refusing an
// id another population already holds.
func (l *ledger) markSeen(ids map[uint64]bool, how string) {
	for id := range ids {
		if !l.claim(id, how, "message %#x delivered twice (%s and %s)", how) {
			return
		}
	}
}

// markDelivered folds in what each plain-group member was handed before
// the crash: no member was handed an id twice, and no two members the
// same id.
func (l *ledger) markDelivered(delivered []map[uint64]bool, redelivered []int) {
	for c := range delivered {
		if redelivered[c] > 0 && l.err == nil {
			l.err = fmt.Errorf("consumer %d saw %d re-deliveries", c, redelivered[c])
		}
		l.markSeen(delivered[c], "delivered")
	}
}

// markProcessed folds in the per-consumer acknowledged-and-recorded
// sets: "processed" means acknowledged, and nothing may be acknowledged
// twice.
func (l *ledger) markProcessed(processed []map[uint64]bool) {
	for c := range processed {
		for id := range processed[c] {
			if !l.claim(id, fmt.Sprintf("consumer %d", c), "message %#x acknowledged twice (%s and consumer %d)", c) {
				return
			}
		}
	}
}

// checked returns a recovered payload's id; a corrupt one closes the account.
func (l *ledger) checked(p []byte) (uint64, bool) {
	id, err := checkPayload(p)
	if err != nil && l.err == nil {
		l.err = fmt.Errorf("recovered %w", err)
	}
	return id, l.err == nil
}

// drainRecovered empties every FIFO shard of the recovered broker into
// the ledger: payloads intact, nothing already seen comes back, and
// within a shard each publisher's ids ascend. It returns the backlog's
// size.
func (l *ledger) drainRecovered(rb *broker.Broker) (n int) {
	for _, topic := range rb.Topics() {
		for s := 0; s < topic.Shards(); s++ {
			lastPerPublisher := map[uint64]uint64{}
			for l.err == nil {
				p, ok := topic.DequeueShard(0, s)
				if !ok {
					break
				}
				id, ok := l.checked(p)
				if !ok || !l.claim(id, "recovered", "message %#x both %s and recovered") {
					return n
				}
				pub, m := id>>32, id&0xffffffff
				if last := lastPerPublisher[pub]; m <= last {
					l.err = fmt.Errorf("shard %s/%d: publisher %d out of order (%d after %d)",
						topic.Name(), s, pub, m, last)
					return n
				}
				lastPerPublisher[pub] = m
				n++
			}
		}
	}
	return n
}

// drainAcked binds a fresh one-member group to the recovered broker's
// lease region and processes the backlog into the ledger — poll, audit,
// ack — refusing anything a pre-crash consumer had already acknowledged.
// It returns the number of messages drained.
func (l *ledger) drainAcked(rb *broker.Broker) (n int) {
	if l.err != nil {
		return 0
	}
	g, err := rb.NewGroupAcked([]string{"events", "jobs"}, 1, broker.LeaseConfig{TTL: 5, Now: func() uint64 { return 0 }})
	if err != nil {
		l.err = err
		return 0
	}
	c := g.Consumer(0)
	for {
		ms := c.PollBatch(0, 16)
		if len(ms) == 0 {
			return n
		}
		for _, m := range ms {
			id, ok := l.checked(m.Payload)
			if !ok || !l.claim(id, "post-crash drain", "message %#x both acknowledged by %s and redelivered after recovery") {
				return n
			}
			n++
		}
		c.Ack(0)
	}
}

// settle reports how many acknowledged publishes there were, how many
// of them the audit never saw, and the verdict: the first refusal, else
// losses above the allowance, worded with the scenario's noun for a loss.
func (l *ledger) settle(allowance int, noun string, acked ...[]uint64) (total, lost int, err error) {
	for _, ids := range acked {
		total += len(ids)
		for _, id := range ids {
			if _, ok := l.where[id]; !ok {
				lost++
			}
		}
	}
	if l.err == nil && lost > allowance {
		l.err = fmt.Errorf("%d acknowledged %s (allowance %d)", lost, noun, allowance)
	}
	return total, lost, l.err
}
