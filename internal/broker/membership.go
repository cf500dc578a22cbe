package broker

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/obs"
)

// Membership protocol for acked consumer groups: fencing tokens and
// three takeovers over one transfer — Adopt (one member's shards to a
// named survivor), Scan (every expired member's, dealt least-loaded
// across the survivors) and Steal (one expired shard to an idle member).
//
// The invariant everything hangs on: a shard's lease line carries an
// epoch (Lease.Epoch, word 5), and every takeover — Adopt, Scan,
// Steal — bumps the group's volatile epoch authority (Group.epochs)
// and writes the bumped value into the line under the same fence that
// installs the new owner. A member that was fenced off a shard holds
// the pre-bump epoch; its next acknowledgment-path op (Ack, Nack,
// Renew) is refused with ErrFenced before any persist
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
	// ErrBadMember reports an out-of-range member argument.
	ErrBadMember = errors.New("broker: bad member")
	// ErrSelfTransfer reports an Adopt naming the source member as the
	// target.
	ErrSelfTransfer = errors.New("broker: cannot adopt a member's shards onto itself")
	// ErrUnexpiredLease reports a takeover refused because the source
	// member still holds a durably unexpired lease: it may be alive and
	// mid-window.
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

// Adopt transfers every shard of member `from` to member `to`,
// redelivering the unacknowledged suffix: `from` crashed (or went
// silent past its lease deadline), so everything it was handed but
// never acknowledged is queued on `to` for redelivery in index order
// (per-shard FIFO preserved), and each affected lease record is
// rewritten to the new owner — with a bumped fencing epoch, so a
// resurfacing `from` gets ErrFenced — and a fresh deadline before
// Adopt returns (one fence per touched persistence domain). Messages
// `from` had acknowledged are durably consumed and never reappear —
// takeover preserves exactly-once processing.
//
// Adopt refuses (ErrUnexpiredLease) while any of from's lease records
// is durably unexpired at the group clock: a live member may still be
// processing its window. Drive `from`'s goroutine to completion first,
// or let Scan deal its shards once they expire; tid may be the dead
// member's thread id. Returns the number of redeliveries moved.
func (g *Group) Adopt(tid, from, to int) (int, error) {
	if err := g.acked("Adopt"); err != nil {
		return 0, err
	}
	if n := len(g.consumers); from < 0 || from >= n || to < 0 || to >= n {
		return 0, fmt.Errorf("%w: Adopt(%d -> %d) in a group of %d", ErrBadMember, from, to, n)
	}
	if from == to {
		return 0, fmt.Errorf("%w: Adopt(%d -> %d)", ErrSelfTransfer, from, to)
	}
	defer g.lockAll()()
	now := g.now()
	for _, r := range g.consumers[from].refs {
		if d := g.cache[r.global].durable; d.Active && d.Owner == from && d.Deadline > now {
			return 0, fmt.Errorf("%w: member %d's lease on %s/%d (deadline %d > now %d)",
				ErrUnexpiredLease, from, r.t.Name(), r.shard, d.Deadline, now)
		}
	}
	_, moved := g.reassignLocked(tid, g.consumers[from], []*Consumer{g.consumers[to]})
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
// renewing long enough ago that their windows are forfeit — and
// deals each one's shards across the surviving members
// (reassignLocked semantics: least-loaded-first, unacked suffix
// redelivered, epochs bumped, the member fenced). A member holding no
// lease is idle, not dead: it is never fenced, so a scan right after
// a quiet period expires nobody. When every lease-holding member has
// expired there is no survivor to adopt; the report lists them and
// nothing moves.
//
// A scan that expires nobody reads only volatile state and issues
// zero persist instructions, so a caller may run it on whatever
// timer it likes. tid may be any thread id owned by the caller; Scan takes the
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
// fencing and unacked-suffix redelivery as Adopt — it is the same
// transfer — at one shard's NTStoreLine and one fence. It reports
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
