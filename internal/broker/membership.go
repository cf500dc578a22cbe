package broker

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
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
// serialized under Group.mu plus every member's lock (lockAll), so
// epoch reads and bumps never race; the epoch in NVRAM exists so a
// recovered broker re-seeds the authority (Subscribe reads it when it
// binds the shard) instead of restarting at zero behind a pre-crash line.
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
	bump(c.g.ostats, (*obs.GroupStats).Fenced, 1)
	c.g.b.span(tid).event(obs.OpScan, f[0].t.ostats, f[0].shard)
	return fmt.Errorf("%w: member %d lost %d shard(s) to takeover (first %s/%d: held epoch %d, superseded by %d)",
		ErrFenced, c.id, len(f), f[0].t.Name(), f[0].shard, f[0].stale, f[0].cur)
}

// Heartbeat renews this member's leases one TTL past the group clock.
// It rides Renew's elision: while the durable deadlines already cover
// now+TTL — the common case for a healthy member heartbeating more
// often than the clock advances a TTL — it issues zero persist
// instructions, so heartbeats are free until a deadline actually
// needs moving. Returns ErrFenced (without renewing anything) when
// the member was fenced off shards since its last op, ErrPlainGroup
// on a group that keeps no leases to renew.
func (c *Consumer) Heartbeat(tid int) error {
	if err := c.g.acked("Heartbeat"); err != nil {
		return err
	}
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
	if err := g.acked("Reassign"); err != nil {
		return 0, err
	}
	if from < 0 || from >= len(g.consumers) {
		return 0, fmt.Errorf("%w: Reassign from member %d of %d", ErrBadMember, from, len(g.consumers))
	}
	if len(targets) == 0 {
		return 0, fmt.Errorf("%w: Reassign needs at least one target", ErrBadMember)
	}
	to := make([]*Consumer, len(targets))
	for i, t := range targets {
		if t < 0 || t >= len(g.consumers) {
			return 0, fmt.Errorf("%w: Reassign target %d of %d", ErrBadMember, t, len(g.consumers))
		}
		if t == from {
			return 0, fmt.Errorf("%w: Reassign(%d -> %d)", ErrSelfTransfer, from, t)
		}
		if slices.Contains(to[:i], g.consumers[t]) {
			return 0, fmt.Errorf("%w: duplicate Reassign target %d", ErrBadMember, t)
		}
		to[i] = g.consumers[t]
	}
	defer g.lockAll()()
	if !force {
		now := g.now()
		for _, r := range g.consumers[from].refs {
			if d := g.cache[r.global].durable; d.Active && d.Owner == from && d.Deadline > now {
				return 0, fmt.Errorf("%w: member %d's lease on %s/%d (deadline %d > now %d)",
					ErrUnexpiredLease, from, r.t.Name(), r.shard, d.Deadline, now)
			}
		}
	}
	_, moved := g.reassignLocked(tid, g.consumers[from], to)
	return moved, nil
}

// reassignLocked deals every shard of `from` to the least-loaded of
// `targets`, all transfers under one leaseWriter commit. Caller holds
// lockAll. Returns shards moved and redeliveries queued.
func (g *Group) reassignLocked(tid int, from *Consumer, targets []*Consumer) (shards, moved int) {
	w := leaseWriter{g: g, tid: tid}
	deadline := g.now() + g.ttl
	for ; len(from.refs) > 0; shards++ {
		moved += g.transfer(&w, deadline, from, 0, leastLoaded(targets))
	}
	w.commit()
	bump(g.ostats, (*obs.GroupStats).Reassigned, shards)
	return shards, moved
}

// transfer is the one takeover: it moves from.refs[ri] to member `to`
// under a bumped fencing epoch and stages the shard's lease line in w
// — rewritten to the new owner with the given deadline when the shard
// holds unacknowledged messages, retired at the new epoch when it
// holds none (or its topic is gone) and the durable record is still
// active, left alone otherwise. The unacknowledged suffix is queued on
// `to` for redelivery in index order, and `from` is marked fenced: its
// next acknowledgment-path op gets ErrFenced. Caller holds lockAll and
// commits w. Returns the redeliveries queued.
func (g *Group) transfer(w *leaseWriter, deadline uint64, from *Consumer, ri int, to *Consumer) int {
	r := from.refs[ri]
	stale := g.epochs[r.global]
	g.epochs[r.global]++
	r.epoch = g.epochs[r.global]
	from.fenced = append(from.fenced, fencedShard{t: r.t, shard: r.shard, stale: stale, cur: r.epoch})
	// The displaced member's queued redeliveries of this shard are
	// rebuilt from the queue's unacked snapshot below; drop them to
	// avoid duplicates. Its other shards' stay.
	if r.pendingN > 0 {
		from.pending = slices.DeleteFunc(from.pending, func(p pendingMsg) bool { return p.r == r })
	}
	from.refs = slices.Delete(from.refs, ri, ri+1)
	if len(from.refs) == 0 {
		from.next = 0
	} else {
		from.next %= len(from.refs)
	}
	to.refs = append(to.refs, r)
	r.pendingN, r.unackedN = 0, 0
	// A retired topic's messages were dropped with it: nothing to
	// redeliver, the inert ref just moves.
	if r.t.enter() {
		s := r.t.shards[r.shard]
		floor := s.AckedTo()
		ps, idxs := s.Unacked()
		r.t.exit()
		r.deliveredTo, r.leasedTo, r.pendingN = floor, floor, len(ps)
		for i := range ps {
			to.pending = append(to.pending, pendingMsg{r: r, idx: idxs[i], payload: ps[i]})
		}
		if len(ps) > 0 {
			r.leasedTo = idxs[len(ps)-1]
		}
	}
	if r.pendingN > 0 {
		w.hold(r, to.id, r.deliveredTo, deadline)
	} else if g.cache[r.global].durable.Active {
		// Nothing left to hold: retire the stale record, at the new epoch.
		w.write(r.global, Lease{Epoch: r.epoch})
	}
	return r.pendingN
}

// obliges reports whether r's durable lease still obliges member
// owner to anything, and returns it: the record is active and owner's,
// the topic is live (a retired topic's messages were dropped with it)
// and the window is not fully acknowledged. Ack never rewrites lease
// lines (that is what keeps an ack batch at one NTStore per shard), so
// a fully acked window leaves an Active line behind with a deadline
// nobody maintains; such a moot lease makes its member idle, not dead.
func (g *Group) obliges(r *consumerShard, owner int) (Lease, bool) {
	d := g.cache[r.global].durable
	if !d.Active || d.Owner != owner || !r.t.enter() {
		return d, false
	}
	defer r.t.exit()
	return d, r.t.shards[r.shard].AckedTo() < r.leasedTo
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
	if err := g.acked("Scan"); err != nil {
		return ScanReport{}, err
	}
	sp := g.b.span(tid)
	defer g.lockAll()()
	rep := ScanReport{Now: now}
	var survivors []*Consumer
	for i, c := range g.consumers {
		held, expired := 0, true
		for _, r := range c.refs {
			d, ok := g.obliges(r, i)
			if !ok {
				continue
			}
			held++
			if d.Deadline > now {
				expired = false
				break
			}
		}
		if held > 0 && expired {
			rep.Expired = append(rep.Expired, i)
		} else {
			survivors = append(survivors, c)
		}
	}
	if len(survivors) > 0 {
		for _, from := range rep.Expired {
			s, m := g.reassignLocked(tid, g.consumers[from], survivors)
			rep.Shards += s
			rep.Moved += m
		}
	}
	bump(g.ostats, (*obs.GroupStats).Scanned, 1)
	sp.done(obs.OpScan, nil)
	return rep, nil
}

// Steal is the work-stealing variant of takeover: an idle member
// claims ONE shard whose durable lease has expired at the group
// clock, from whichever member holds it, with the same epoch bump,
// fencing and unacked-suffix redelivery as Reassign — it is the same
// transfer — at one shard's store+flush and one fence. It reports
// whether a shard was found (false with no error means nothing is
// expired) and the redeliveries queued. Unlike most Consumer methods
// it may be called from any goroutine (it takes the group and every
// member lock); tid must still be owned by the caller.
func (c *Consumer) Steal(tid int) (bool, int, error) {
	g := c.g
	if err := g.acked("Steal"); err != nil {
		return false, 0, err
	}
	defer g.lockAll()()
	now := g.now()
	for vi, v := range g.consumers {
		if v == c {
			continue
		}
		for ri, r := range v.refs {
			if d, ok := g.obliges(r, vi); !ok || d.Deadline > now {
				continue
			}
			w := leaseWriter{g: g, tid: tid}
			moved := g.transfer(&w, now+g.ttl, v, ri, c)
			w.commit()
			bump(g.ostats, (*obs.GroupStats).Stolen, 1)
			return true, moved, nil
		}
	}
	return false, 0, nil
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
	if err := g.acked("StartJanitor"); err != nil {
		return nil, err
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
