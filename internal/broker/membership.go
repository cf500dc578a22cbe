package broker

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pmem"
)

// Membership protocol for acked consumer groups: fencing tokens,
// heartbeats, an expiry scanner, and partial adoption.
//
// The invariant everything hangs on: a shard's lease line carries an
// epoch (Lease.Epoch, word 5), and every takeover — Reassign, Scan,
// Steal — bumps the group's volatile epoch authority (Group.epochs)
// and writes the bumped value into the line under the same fence that
// installs the new owner. A member that was fenced off a shard holds
// the pre-bump epoch; its next acknowledgment-path op (Ack, Nack,
// Renew, Heartbeat) is refused with ErrFenced before any persist
// instruction executes. That refusal at the ack line is sufficient
// without any consensus round: the durable processed frontier only
// advances through Ack, so a stale owner that is refused there can
// never mark a message processed that the new owner will also
// process — the presumed-dead-resurfacing hole closes at the single
// point where delivery state becomes durable. Ownership changes are
// serialized under Group.mu plus the involved members' locks, so
// epoch reads and bumps never race; the epoch in NVRAM exists so a
// recovered broker re-seeds the authority (NewGroupAcked reads it at
// bind) instead of restarting at zero behind a pre-crash line.
// Pre-epoch (v<=4) regions never wrote word 5; their lines decode as
// epoch 0, which seeds the authority at 0 — valid, and bumped on the
// first takeover like any other value.

// Typed errors of the membership protocol. All returned wrapped
// (errors.Is) with context.
var (
	// ErrFenced reports that the calling member was fenced off one or
	// more of its shards by a takeover and held a stale epoch; the
	// refused op changed nothing durable.
	ErrFenced = errors.New("broker: member fenced (stale lease epoch)")
	// ErrBadMember reports an out-of-range, duplicate, or missing
	// member argument.
	ErrBadMember = errors.New("broker: bad member")
	// ErrSelfTransfer reports a reassignment naming the source member
	// as a target.
	ErrSelfTransfer = errors.New("broker: cannot reassign a member's shards to itself")
	// ErrUnexpiredLease reports a takeover refused because the source
	// member still holds a durably unexpired lease (and force was not
	// set): it may be alive and mid-window.
	ErrUnexpiredLease = errors.New("broker: lease unexpired")
)

// fencedShard records one shard taken from a member: the epoch it
// held and the epoch that superseded it. The member's next
// acknowledgment-path op consumes the records and returns ErrFenced.
type fencedShard struct {
	t     *Topic
	shard int
	stale uint64
	cur   uint64
}

// takeFenced consumes this member's fencing records, returning
// ErrFenced if there were any. Caller holds c.mu. Costs no persist
// instructions — refusing a stale owner must not itself touch NVRAM.
func (c *Consumer) takeFenced(tid int) error {
	if len(c.fenced) == 0 {
		return nil
	}
	f := c.fenced
	c.fenced = nil
	if o := c.g.b.obs; o != nil {
		c.g.ostats.Fenced(1)
		o.Event(tid, obs.OpScan, f[0].t.ostats, f[0].shard)
	}
	return fmt.Errorf("%w: member %d lost %d shard(s) to takeover (first %s/%d: held epoch %d, superseded by %d)",
		ErrFenced, c.id, len(f), f[0].t.Name(), f[0].shard, f[0].stale, f[0].cur)
}

// Heartbeat renews this member's leases one TTL past the group clock.
// It rides Renew's elision: while the durable deadlines already cover
// now+TTL — the common case for a healthy member heartbeating more
// often than the clock advances a TTL — it issues zero persist
// instructions, so heartbeats are free until a deadline actually
// needs moving. Returns ErrFenced (without renewing anything) when
// the member was fenced off shards since its last op.
func (c *Consumer) Heartbeat(tid int) error {
	return c.Renew(tid, c.g.now()+c.g.ttl)
}

// Reassign deals every shard of member `from` out across `targets`,
// least-loaded-first: each shard goes to the target currently owning
// the fewest shards (ties to the lowest index), so a dead member's
// load splits evenly instead of doubling one survivor. Per shard the
// unacknowledged suffix is queued on its new owner for redelivery in
// index order (per-shard FIFO preserved), the fencing epoch is
// bumped, and the lease line is rewritten to the new owner and epoch;
// all rewrites ride one fence per touched persistence domain, so the
// cost is O(shards moved) store+flush pairs plus the fences. `from`
// is marked fenced: its next acknowledgment-path op gets ErrFenced.
//
// Unless force is set, Reassign refuses (ErrUnexpiredLease) while any
// of from's leases is durably unexpired at the group clock — a live
// member may be mid-window. force takes the shards regardless: the
// fencing epoch makes that safe (the displaced member's acks are
// refused), at the price of redelivering its in-flight window.
//
// Returns the number of redeliveries queued. tid may be any thread id
// owned by the caller.
func (g *Group) Reassign(tid, from int, targets []int, force bool) (int, error) {
	if !g.leased {
		return 0, fmt.Errorf("broker: Reassign on a group without acknowledgments (use NewGroupAcked)")
	}
	if from < 0 || from >= len(g.consumers) {
		return 0, fmt.Errorf("%w: Reassign from member %d of %d", ErrBadMember, from, len(g.consumers))
	}
	if len(targets) == 0 {
		return 0, fmt.Errorf("%w: Reassign needs at least one target", ErrBadMember)
	}
	seen := make(map[int]bool, len(targets))
	for _, t := range targets {
		if t < 0 || t >= len(g.consumers) {
			return 0, fmt.Errorf("%w: Reassign target %d of %d", ErrBadMember, t, len(g.consumers))
		}
		if t == from {
			return 0, fmt.Errorf("%w: Reassign(%d -> %d)", ErrSelfTransfer, from, t)
		}
		if seen[t] {
			return 0, fmt.Errorf("%w: duplicate Reassign target %d", ErrBadMember, t)
		}
		seen[t] = true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	ids := append([]int{from}, targets...)
	sort.Ints(ids)
	for _, id := range ids {
		g.consumers[id].mu.Lock()
		defer g.consumers[id].mu.Unlock()
	}
	if !force {
		now := g.now()
		for _, r := range g.consumers[from].refs {
			if d := g.cache[r.global].durable; d.Active && d.Owner == from && d.Deadline > now {
				return 0, fmt.Errorf("%w: member %d's lease on %s/%d (deadline %d > now %d)",
					ErrUnexpiredLease, from, r.t.Name(), r.shard, d.Deadline, now)
			}
		}
	}
	_, moved := g.reassignLocked(tid, from, targets)
	return moved, nil
}

// reassignLocked moves every shard of `from` to the least-loaded of
// `targets`, bumping epochs and rewriting lease lines under one
// leaseWriter commit. Caller holds g.mu and the locks of `from` and
// every target. Returns shards moved and redeliveries queued.
func (g *Group) reassignLocked(tid, from int, targets []int) (shards, moved int) {
	a := g.consumers[from]
	if len(a.refs) == 0 {
		return 0, 0
	}
	// The displaced member's own redelivery queue is rebuilt from the
	// queues' unacked snapshots below; drop it to avoid duplicates.
	a.pending = nil
	w := leaseWriter{g: g, tid: tid}
	deadline := g.now() + g.ttl
	for _, r := range a.refs {
		to := targets[0]
		for _, t := range targets[1:] {
			if len(g.consumers[t].refs) < len(g.consumers[to].refs) {
				to = t
			}
		}
		b := g.consumers[to]
		stale := g.epochs[r.global]
		g.epochs[r.global]++
		r.epoch = g.epochs[r.global]
		a.fenced = append(a.fenced, fencedShard{t: r.t, shard: r.shard, stale: stale, cur: r.epoch})
		if !r.t.enter() {
			// Retired topic: its messages were dropped with it, so there
			// is nothing to redeliver — retire any stale record at the
			// new epoch and move the inert ref.
			r.pendingN, r.unackedN = 0, 0
			if d := g.cache[r.global].durable; d.Active {
				w.write(r.global, Lease{Epoch: r.epoch})
			}
			b.refs = append(b.refs, r)
			shards++
			continue
		}
		s := r.t.shards[r.shard]
		floor := s.AckedTo()
		ps, idxs := s.Unacked()
		r.t.exit()
		r.deliveredTo, r.pendingN, r.unackedN = floor, len(ps), 0
		for i := range ps {
			b.pending = append(b.pending, pendingMsg{r: r, idx: idxs[i], payload: ps[i]})
		}
		moved += len(ps)
		if len(ps) > 0 {
			r.leasedTo = idxs[len(idxs)-1]
			w.write(r.global, Lease{
				Active: true, Owner: to, Epoch: r.epoch,
				Lo: floor + 1, Hi: r.leasedTo,
				Deadline: deadline,
			})
		} else {
			r.leasedTo = floor
			if d := g.cache[r.global].durable; d.Active {
				// Fully acked: retire the stale record, at the new epoch.
				w.write(r.global, Lease{Epoch: r.epoch})
			}
		}
		b.refs = append(b.refs, r)
		shards++
	}
	a.refs = nil
	a.next = 0
	w.commit()
	if g.ostats != nil {
		g.ostats.Reassigned(shards)
	}
	return shards, moved
}

// ScanReport summarizes one expiry scan.
type ScanReport struct {
	// Now is the clock instant deadlines were evaluated against.
	Now uint64
	// Expired lists the members fenced out: each held at least one
	// durable lease and every one of its deadlines had passed.
	Expired []int
	// Shards counts shards reassigned off expired members.
	Shards int
	// Moved counts unacknowledged messages queued for redelivery on
	// survivors.
	Moved int
}

// Scan is the group's expiry scanner: it detects members whose every
// durable lease deadline has passed at `now` — they stopped
// heartbeating long enough ago that their windows are forfeit — and
// deals each one's shards across the surviving members
// (reassignLocked semantics: least-loaded-first, unacked suffix
// redelivered, epochs bumped, the member fenced). A member holding no
// lease is idle, not dead: it is never fenced, so a scan right after
// a quiet period expires nobody. When every lease-holding member has
// expired there is no survivor to adopt; the report lists them and
// nothing moves.
//
// A scan that expires nobody reads only volatile state and issues
// zero persist instructions, so a janitor may run it as often as it
// likes. tid may be any thread id owned by the caller; Scan takes the
// group and every member lock, so it is safe beside live traffic.
func (g *Group) Scan(tid int, now uint64) (ScanReport, error) {
	if !g.leased {
		return ScanReport{}, fmt.Errorf("broker: Scan on a group without acknowledgments (use NewGroupAcked)")
	}
	o := g.b.obs
	var start int64
	if o != nil {
		start = obs.Now()
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, c := range g.consumers {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	rep := ScanReport{Now: now}
	dead := make([]bool, len(g.consumers))
	for i, c := range g.consumers {
		held, expired := 0, true
		for _, r := range c.refs {
			d := g.cache[r.global].durable
			if !d.Active || d.Owner != i {
				continue
			}
			// A retired topic's lease holds no obligation either way:
			// its messages were dropped with the topic.
			if !r.t.enter() {
				continue
			}
			// Ack never rewrites lease lines (that is what keeps an ack
			// batch at one NTStore per shard), so a fully acked window
			// leaves an Active line behind with a deadline nobody
			// maintains. Such a moot lease holds no obligation: the
			// member is idle, not dead.
			moot := r.t.shards[r.shard].AckedTo() >= r.leasedTo
			r.t.exit()
			if moot {
				continue
			}
			held++
			if d.Deadline > now {
				expired = false
				break
			}
		}
		if held > 0 && expired {
			dead[i] = true
			rep.Expired = append(rep.Expired, i)
		}
	}
	if len(rep.Expired) > 0 {
		var survivors []int
		for i := range g.consumers {
			if !dead[i] {
				survivors = append(survivors, i)
			}
		}
		if len(survivors) > 0 {
			for _, from := range rep.Expired {
				s, m := g.reassignLocked(tid, from, survivors)
				rep.Shards += s
				rep.Moved += m
			}
		}
	}
	if o != nil {
		g.ostats.Scanned(1)
		o.Lat(tid, obs.OpScan, start)
		o.Event(tid, obs.OpScan, nil, -1)
	}
	return rep, nil
}

// Steal is the work-stealing variant of takeover: an idle member
// claims ONE shard whose durable lease has expired at the group
// clock, from whichever member holds it, with the same epoch bump,
// fencing and unacked-suffix redelivery as Reassign — one shard's
// store+flush and one fence. It reports whether a shard was found
// (false with no error means nothing is expired) and the
// redeliveries queued. Unlike most Consumer methods it may be called
// from any goroutine (it takes the group and every member lock); tid
// must still be owned by the caller.
func (c *Consumer) Steal(tid int) (bool, int, error) {
	g := c.g
	if !g.leased {
		return false, 0, fmt.Errorf("broker: Steal on a group without acknowledgments (use NewGroupAcked)")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, m := range g.consumers {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	now := g.now()
	for vi, v := range g.consumers {
		if v == c {
			continue
		}
		for ri, r := range v.refs {
			d := g.cache[r.global].durable
			if !d.Active || d.Owner != vi || d.Deadline > now {
				continue
			}
			// A retired topic holds no stealable work, and a fully
			// acked (moot) lease none either; see the matching checks
			// in Scan.
			if !r.t.enter() {
				continue
			}
			moot := r.t.shards[r.shard].AckedTo() >= r.leasedTo
			r.t.exit()
			if moot {
				continue
			}
			moved := g.stealShardLocked(tid, v, c, ri)
			return true, moved, nil
		}
	}
	return false, 0, nil
}

// stealShardLocked moves v.refs[ri] to member `to`. Caller holds g.mu
// and every member lock.
func (g *Group) stealShardLocked(tid int, v, to *Consumer, ri int) int {
	r := v.refs[ri]
	stale := g.epochs[r.global]
	g.epochs[r.global]++
	r.epoch = g.epochs[r.global]
	v.fenced = append(v.fenced, fencedShard{t: r.t, shard: r.shard, stale: stale, cur: r.epoch})
	// Unlike a whole-member reassign, the victim keeps its other
	// shards, so only this shard's queued redeliveries are dropped
	// (they are rebuilt from the queue's unacked snapshot below).
	if r.pendingN > 0 {
		kept := v.pending[:0]
		for _, p := range v.pending {
			if p.r != r {
				kept = append(kept, p)
			}
		}
		v.pending = kept
	}
	v.refs = append(v.refs[:ri], v.refs[ri+1:]...)
	if len(v.refs) == 0 {
		v.next = 0
	} else {
		v.next %= len(v.refs)
	}
	w := leaseWriter{g: g, tid: tid}
	deadline := g.now() + g.ttl
	if !r.t.enter() {
		// Retired between the caller's check and here: nothing to
		// redeliver (see reassignLocked).
		r.pendingN, r.unackedN = 0, 0
		if d := g.cache[r.global].durable; d.Active {
			w.write(r.global, Lease{Epoch: r.epoch})
		}
		to.refs = append(to.refs, r)
		w.commit()
		return 0
	}
	s := r.t.shards[r.shard]
	floor := s.AckedTo()
	ps, idxs := s.Unacked()
	r.t.exit()
	r.deliveredTo, r.pendingN, r.unackedN = floor, len(ps), 0
	for i := range ps {
		to.pending = append(to.pending, pendingMsg{r: r, idx: idxs[i], payload: ps[i]})
	}
	if len(ps) > 0 {
		r.leasedTo = idxs[len(idxs)-1]
		w.write(r.global, Lease{
			Active: true, Owner: to.id, Epoch: r.epoch,
			Lo: floor + 1, Hi: r.leasedTo,
			Deadline: deadline,
		})
	} else {
		r.leasedTo = floor
		if d := g.cache[r.global].durable; d.Active {
			w.write(r.global, Lease{Epoch: r.epoch})
		}
	}
	to.refs = append(to.refs, r)
	w.commit()
	if g.ostats != nil {
		g.ostats.Stolen(1)
	}
	return len(ps)
}

// Janitor is a background expiry scanner started by StartJanitor.
type Janitor struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// StartJanitor runs Scan in a background goroutine with a jittered
// period (uniform in [period/2, 3*period/2), so a fleet of groups
// never scans in lockstep), at the group clock. The jitter sequence is
// seeded from the group's lease-region index (LeaseConfig.Region) and
// tid — values the caller chose — so a run's scan schedule can be
// replayed. tid must be a thread id reserved for the janitor — the
// one-goroutine-per-tid rule applies to the scans it issues. A
// simulated crash ends the janitor: its scans run under pmem.Protect,
// so the crash signal never escapes the background goroutine, and Stop
// still returns.
func (g *Group) StartJanitor(tid int, period time.Duration) (*Janitor, error) {
	if !g.leased {
		return nil, fmt.Errorf("broker: StartJanitor on a group without acknowledgments (use NewGroupAcked)")
	}
	if period <= 0 {
		return nil, fmt.Errorf("broker: StartJanitor period must be positive, got %v", period)
	}
	j := &Janitor{stop: make(chan struct{}), done: make(chan struct{})}
	rng := rand.New(rand.NewSource(int64(g.regionIdx)<<32 | int64(tid)))
	go func() {
		defer close(j.done)
		for {
			d := period/2 + time.Duration(rng.Int63n(int64(period)))
			select {
			case <-j.stop:
				return
			case <-time.After(d):
			}
			if pmem.Protect(func() { g.Scan(tid, g.now()) }) {
				return
			}
		}
	}()
	return j, nil
}

// Stop halts the janitor and waits for its goroutine to exit. Stop is
// idempotent: teardown paths (defer stacks, signal handlers, tests)
// routinely race to stop the same janitor, and a second Stop must wait
// for the exit like the first instead of panicking on a double close.
func (j *Janitor) Stop() {
	j.once.Do(func() { close(j.stop) })
	<-j.done
}
