package broker

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pmem"
)

// TestReassignValidation pins the typed argument errors: out-of-range
// or duplicate members, self-transfer, and takeover from a member
// with live leases without force.
func TestReassignValidation(t *testing.T) {
	_, b := newAckedBroker(t, 1, 3, pmem.ModePerf)
	clk := &logicalClock{}
	g, err := b.NewGroupAcked([]string{"events"}, 3, LeaseConfig{TTL: 10, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	wantErr := func(what string, want error, got error) {
		t.Helper()
		if !errors.Is(got, want) {
			t.Errorf("%s: got %v, want %v", what, got, want)
		}
	}
	_, err = g.Reassign(0, 7, []int{0}, false)
	wantErr("from out of range", ErrBadMember, err)
	_, err = g.Reassign(0, -1, []int{0}, false)
	wantErr("negative from", ErrBadMember, err)
	_, err = g.Reassign(0, 1, nil, false)
	wantErr("no targets", ErrBadMember, err)
	_, err = g.Reassign(0, 1, []int{3}, false)
	wantErr("target out of range", ErrBadMember, err)
	_, err = g.Reassign(0, 1, []int{0, 1}, false)
	wantErr("from among targets", ErrSelfTransfer, err)
	_, err = g.Reassign(0, 1, []int{0, 2, 0}, false)
	wantErr("duplicate target", ErrBadMember, err)
	_, err = g.Adopt(0, 1, 1)
	wantErr("Adopt onto itself", ErrSelfTransfer, err)

	// A live (unexpired) lease refuses takeover without force.
	for i := uint64(0); i < 16; i++ {
		b.Topic("events").Publish(0, U64(i))
	}
	victim := g.Consumer(1)
	if ms := victim.PollBatch(2, 4); len(ms) == 0 {
		t.Fatal("victim polled nothing")
	}
	_, err = g.Reassign(0, 1, []int{0, 2}, false)
	wantErr("unexpired lease without force", ErrUnexpiredLease, err)
	_, err = g.Adopt(0, 1, 0)
	wantErr("Adopt with unexpired lease", ErrUnexpiredLease, err)
	// force takes the shards regardless; the victim's next ack is
	// refused with the typed fencing error.
	moved, err := g.Reassign(0, 1, []int{0, 2}, true)
	if err != nil {
		t.Fatalf("forced Reassign: %v", err)
	}
	if moved == 0 {
		t.Fatal("forced Reassign moved no redeliveries despite an in-flight window")
	}
	if len(victim.Assigned()) != 0 {
		t.Fatalf("victim still owns %d shards after forced Reassign", len(victim.Assigned()))
	}
	if _, err := victim.Ack(2); !errors.Is(err, ErrFenced) {
		t.Fatalf("displaced member's Ack returned %v, want ErrFenced", err)
	}
	if _, err := victim.Ack(2); err != nil {
		t.Fatalf("Ack after the fencing record was consumed: %v", err)
	}

	// Membership ops require an acked group.
	pg, err := b.NewGroup([]string{"jobs"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pg.Reassign(0, 0, []int{1}, false); err == nil {
		t.Error("Reassign on a plain group succeeded")
	}
	if _, err := pg.Scan(0, 0); err == nil {
		t.Error("Scan on a plain group succeeded")
	}
	if _, _, err := pg.Consumer(0).Steal(0); err == nil {
		t.Error("Steal on a plain group succeeded")
	}
	if _, err := pg.StartJanitor(0, time.Millisecond); err == nil {
		t.Error("StartJanitor on a plain group succeeded")
	}
}

// TestScanFencesAndSplits: the expiry scanner detects the one member
// whose deadlines all passed, deals its shards across both survivors
// least-loaded-first, redelivers exactly the unacked suffix, and the
// resurfacing member's stale ack is refused. Members idle behind
// fully acked (moot) leases are never expired.
func TestScanFencesAndSplits(t *testing.T) {
	_, b := newAckedBroker(t, 1, 4, pmem.ModePerf)
	clk := &logicalClock{}
	g, err := b.NewGroupAcked([]string{"events", "jobs"}, 3, LeaseConfig{TTL: 10, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin deal over 8 shards: member 0 owns 3, member 1 owns 3,
	// member 2 owns 2.
	const n = 32
	for i := uint64(0); i < n; i++ {
		b.Topic("events").Publish(0, U64(i))
		b.Topic("jobs").Publish(0, blobPayload(1000+i))
	}
	c0, victim, c2 := g.Consumer(0), g.Consumer(1), g.Consumer(2)
	healthyAcked := map[uint64]bool{}
	for _, m := range c0.PollBatch(1, 8) {
		healthyAcked[AsU64(m.Payload[:8])] = true
	}
	c0.Ack(1)
	for _, m := range c2.PollBatch(3, 8) {
		healthyAcked[AsU64(m.Payload[:8])] = true
	}
	c2.Ack(3)
	inflight := map[uint64]bool{}
	for _, m := range victim.PollBatch(2, 8) {
		inflight[AsU64(m.Payload[:8])] = true
	}
	if len(inflight) == 0 {
		t.Fatal("victim holds no window")
	}

	// Nothing expired yet: the scan is a no-op.
	rep, err := g.Scan(0, clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Expired) != 0 || rep.Shards != 0 {
		t.Fatalf("scan before expiry fenced %v (%d shards)", rep.Expired, rep.Shards)
	}

	// Past every deadline, only the member with unacked work is dead:
	// members 0 and 2 sit behind moot (fully acked) leases.
	clk.Advance(100)
	rep, err = g.Scan(0, clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Expired) != 1 || rep.Expired[0] != 1 {
		t.Fatalf("scan expired %v, want [1]", rep.Expired)
	}
	if rep.Shards != 3 {
		t.Fatalf("scan reassigned %d shards, want the victim's 3", rep.Shards)
	}
	if rep.Moved != len(inflight) {
		t.Fatalf("scan queued %d redeliveries, want the unacked %d", rep.Moved, len(inflight))
	}
	// Least-loaded split: 3 and 2 owned shards plus 3 dealt = 4 and 4.
	if a, b := len(c0.Assigned()), len(c2.Assigned()); a != 4 || b != 4 {
		t.Fatalf("survivors own %d and %d shards, want a 4/4 split", a, b)
	}
	if len(victim.Assigned()) != 0 {
		t.Fatalf("fenced member still owns %d shards", len(victim.Assigned()))
	}
	if _, err := victim.Ack(2); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale ack returned %v, want ErrFenced", err)
	}

	// Exactly-once: the in-flight window reappears exactly once across
	// the survivors, acked messages never do, and the backlog drains.
	seen := map[uint64]int{}
	for {
		drained := 0
		for i, c := range []*Consumer{c0, c2} {
			tid := []int{1, 3}[i]
			ms := c.PollBatch(tid, 8)
			for _, m := range ms {
				seen[AsU64(m.Payload[:8])]++
			}
			c.Ack(tid)
			drained += len(ms)
		}
		if drained == 0 {
			break
		}
	}
	for id := range inflight {
		if seen[id] != 1 {
			t.Fatalf("in-flight message %d redelivered %d times, want 1", id, seen[id])
		}
	}
	for id := range healthyAcked {
		if seen[id] != 0 {
			t.Fatalf("acked message %d reappeared after the scan", id)
		}
	}
	if got := len(seen) + len(healthyAcked); got != 2*n {
		t.Fatalf("processed %d distinct messages, want %d", got, 2*n)
	}
}

// TestMembershipFenceAccounting pins the protocol's persist costs on
// one domain: a scan with no expiries and a heartbeat at a durable
// deadline are free; fencing a dead member costs one fence plus one
// store+flush per moved shard holding work; a stale Renew is refused
// without touching NVRAM; a steal is one line and one fence.
func TestMembershipFenceAccounting(t *testing.T) {
	hs, b := newAckedBroker(t, 1, 3, pmem.ModePerf)
	clk := &logicalClock{}
	g, err := b.NewGroupAcked([]string{"events"}, 2, LeaseConfig{TTL: 100, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := g.Consumer(0), g.Consumer(1)
	const n = 16 // 4 per shard; members own 2 shards each
	for i := uint64(0); i < n; i++ {
		b.Topic("events").Publish(0, U64(i))
	}
	if ms := c1.PollBatch(2, 8); len(ms) != 8 {
		t.Fatalf("member 1 polled %d, want its 2 shards' 8", len(ms))
	}
	c0.PollBatch(1, 8)
	c0.Ack(1) // member 0 idles behind moot leases

	// Scan with no expiries: zero persist instructions.
	before := hs.TotalStats()
	rep, err := g.Scan(0, clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	d := hs.TotalStats().Sub(before)
	if len(rep.Expired) != 0 {
		t.Fatalf("scan expired %v, want none", rep.Expired)
	}
	if d.Fences != 0 || d.NTStores != 0 || d.Flushes != 0 {
		t.Fatalf("no-expiry scan = %d fences, %d NTStores, %d flushes; want 0/0/0", d.Fences, d.NTStores, d.Flushes)
	}

	// Heartbeat at the durable deadline rides the renewal elision.
	before = hs.TotalStats()
	if err := c1.Heartbeat(2); err != nil {
		t.Fatal(err)
	}
	d = hs.TotalStats().Sub(before)
	if d.Fences != 0 || d.Flushes != 0 {
		t.Fatalf("heartbeat at a durable deadline = %d fences, %d flushes; want 0/0", d.Fences, d.Flushes)
	}
	// Once the clock moved, the heartbeat rewrites its lines under one
	// fence — the fresh-epoch renewal keeps its pinned cost.
	clk.Advance(50)
	before = hs.TotalStats()
	if err := c1.Heartbeat(2); err != nil {
		t.Fatal(err)
	}
	d = hs.TotalStats().Sub(before)
	if d.Fences != 1 || d.Flushes != 2 {
		t.Fatalf("deadline-moving heartbeat = %d fences, %d flushes; want 1 fence, 2 lease lines", d.Fences, d.Flushes)
	}

	// Member 1 goes silent; fencing it moves 2 shards with work: one
	// store+flush per moved shard, zero NTStores, one fence.
	clk.Advance(500)
	before = hs.TotalStats()
	rep, err = g.Scan(0, clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	d = hs.TotalStats().Sub(before)
	if len(rep.Expired) != 1 || rep.Expired[0] != 1 || rep.Shards != 2 {
		t.Fatalf("scan = expired %v, %d shards; want member 1's 2 shards", rep.Expired, rep.Shards)
	}
	if d.Fences != 1 || d.NTStores != 0 || d.Flushes != 2 {
		t.Fatalf("fencing takeover = %d fences, %d NTStores, %d flushes; want 1/0/2", d.Fences, d.NTStores, d.Flushes)
	}

	// The stale member's Renew is refused before any persist executes.
	before = hs.TotalStats()
	if err := c1.Renew(2, clk.Now()+100); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale Renew returned %v, want ErrFenced", err)
	}
	d = hs.TotalStats().Sub(before)
	if d.Fences != 0 || d.NTStores != 0 || d.Flushes != 0 {
		t.Fatalf("refused stale Renew = %d fences, %d NTStores, %d flushes; want 0/0/0", d.Fences, d.NTStores, d.Flushes)
	}

	// Work-stealing one expired shard: one lease line, one fence.
	c0.PollBatch(1, 4) // member 0 takes a window on one shard...
	clk.Advance(500)   // ...and goes silent past its deadline
	before = hs.TotalStats()
	stole, moved, err := c1.Steal(2)
	if err != nil {
		t.Fatal(err)
	}
	if !stole || moved == 0 {
		t.Fatalf("Steal = (%v, %d), want one expired shard with work", stole, moved)
	}
	d = hs.TotalStats().Sub(before)
	if d.Fences != 1 || d.NTStores != 0 || d.Flushes != 1 {
		t.Fatalf("steal = %d fences, %d NTStores, %d flushes; want 1/0/1", d.Fences, d.NTStores, d.Flushes)
	}
	if _, err := c0.Ack(1); !errors.Is(err, ErrFenced) {
		t.Fatalf("stolen-from member's Ack returned %v, want ErrFenced", err)
	}
}

// TestStealDrainsExpiredShards: an idle member steals a silent
// member's expired shards one per call until none carry work, and the
// stolen windows drain exactly once.
func TestStealDrainsExpiredShards(t *testing.T) {
	_, b := newAckedBroker(t, 1, 3, pmem.ModePerf)
	clk := &logicalClock{}
	g, err := b.NewGroupAcked([]string{"events"}, 2, LeaseConfig{TTL: 10, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	for i := uint64(0); i < n; i++ {
		b.Topic("events").Publish(0, U64(i))
	}
	c0, c1 := g.Consumer(0), g.Consumer(1)
	inflight := map[uint64]bool{}
	for _, m := range c0.PollBatch(1, 8) {
		inflight[AsU64(m.Payload[:8])] = true
	}
	c1.PollBatch(2, 8)
	c1.Ack(2)

	if stole, _, err := c1.Steal(2); err != nil || stole {
		t.Fatalf("Steal with nothing expired = (%v, %v), want (false, nil)", stole, err)
	}
	clk.Advance(100)
	steals, stolenMoved := 0, 0
	for {
		stole, moved, err := c1.Steal(2)
		if err != nil {
			t.Fatal(err)
		}
		if !stole {
			break
		}
		steals++
		stolenMoved += moved
	}
	if steals != 2 {
		t.Fatalf("stole %d shards, want the silent member's 2 with work", steals)
	}
	if stolenMoved != len(inflight) {
		t.Fatalf("steals moved %d redeliveries, want %d", stolenMoved, len(inflight))
	}
	if _, err := c0.Ack(1); !errors.Is(err, ErrFenced) {
		t.Fatalf("stolen-from member's Ack returned %v, want ErrFenced", err)
	}

	seen := map[uint64]int{}
	for {
		ms := c1.PollBatch(2, 8)
		if len(ms) == 0 {
			break
		}
		for _, m := range ms {
			seen[AsU64(m.Payload[:8])]++
		}
		c1.Ack(2)
	}
	for id := range inflight {
		if seen[id] != 1 {
			t.Fatalf("stolen message %d delivered %d times, want 1", id, seen[id])
		}
	}
}

// TestJanitorFencesSilentMember: the background janitor notices an
// expired member without any explicit Scan call and hands its shards
// to the survivor.
func TestJanitorFencesSilentMember(t *testing.T) {
	_, b := newAckedBroker(t, 1, 4, pmem.ModePerf)
	clk := &logicalClock{}
	g, err := b.NewGroupAcked([]string{"events"}, 2, LeaseConfig{TTL: 10, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.StartJanitor(0, 0); err == nil {
		t.Fatal("StartJanitor accepted a non-positive period")
	}
	const n = 16
	for i := uint64(0); i < n; i++ {
		b.Topic("events").Publish(0, U64(i))
	}
	victim := g.Consumer(1)
	if ms := victim.PollBatch(2, 8); len(ms) == 0 {
		t.Fatal("victim polled nothing")
	}
	j, err := g.StartJanitor(3, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Stop()
	clk.Advance(100)
	deadline := time.Now().Add(5 * time.Second)
	for len(victim.Assigned()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("janitor never fenced the silent member")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := victim.Ack(2); !errors.Is(err, ErrFenced) {
		t.Fatalf("janitor-fenced member's Ack returned %v, want ErrFenced", err)
	}
}

// TestJanitorSurvivesCrash: a power failure that catches the janitor
// inside a scan ends the janitor, not the process — its goroutine has
// no caller to Protect it, so it must Protect its own scans — and Stop
// still returns.
func TestJanitorSurvivesCrash(t *testing.T) {
	hs, b := newAckedBroker(t, 1, 4, pmem.ModeCrash)
	clk := &logicalClock{}
	g, err := b.NewGroupAcked([]string{"events"}, 2, LeaseConfig{TTL: 10, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 16; i++ {
		b.Topic("events").Publish(0, U64(i))
	}
	if ms := g.Consumer(1).PollBatch(2, 8); len(ms) == 0 {
		t.Fatal("victim polled nothing")
	}
	// The victim's lease has expired, so the janitor's next scan must
	// rewrite lease lines — on a heap set that is already down.
	clk.Advance(100)
	hs.CrashNow()
	j, err := g.StartJanitor(3, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.done:
	case <-time.After(5 * time.Second):
		t.Fatal("janitor kept running on a crashed heap set")
	}
	j.Stop()
}

// TestEpochDurability: takeovers bump the epoch in the durable lease
// line, a recovered binding re-seeds its authority from it (so
// post-crash epochs never fall behind a pre-crash owner), and the
// next takeover keeps counting from there.
func TestEpochDurability(t *testing.T) {
	hs, b := newAckedBroker(t, 1, 3, pmem.ModeCrash)
	clk := &logicalClock{}
	g, err := b.NewGroupAcked([]string{"events"}, 2, LeaseConfig{TTL: 10, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	for i := uint64(0); i < n; i++ {
		b.Topic("events").Publish(0, U64(i))
	}
	victim := g.Consumer(1)
	if ms := victim.PollBatch(2, 8); len(ms) != 8 {
		t.Fatal("victim holds no window")
	}
	clk.Advance(100)
	if _, err := g.Adopt(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	// The takeover bumped the victim's shards to epoch 1, durably.
	bumped := 0
	for global := 0; global < g.region.cap; global++ {
		if l, ok := g.region.readLeaseLine(global); ok && l.Epoch == 1 {
			bumped++
		}
	}
	if bumped != 2 {
		t.Fatalf("%d lease lines at epoch 1 after the takeover, want the victim's 2", bumped)
	}

	hs.CrashNow()
	hs.FinalizeCrash(rand.New(rand.NewSource(61)))
	hs.Restart()
	r, err := RecoverSet(hs, 3)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := r.NewGroupAcked([]string{"events"}, 2, LeaseConfig{TTL: 10, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	// The recovered in-flight leases carry their epochs, and the new
	// binding's authority picks up where the crashed one stopped.
	maxEpoch := uint64(0)
	for _, rl := range g2.RecoveredLeases() {
		if rl.Lease.Epoch > maxEpoch {
			maxEpoch = rl.Lease.Epoch
		}
	}
	if maxEpoch != 1 {
		t.Fatalf("recovered leases carry max epoch %d, want 1", maxEpoch)
	}
	seeded := 0
	for _, e := range g2.epochs {
		if e == 1 {
			seeded++
		}
	}
	if seeded != 2 {
		t.Fatalf("%d shards re-seeded at epoch 1, want 2", seeded)
	}
	// The next takeover continues the count: epoch 2 lands durably.
	victim2 := g2.Consumer(1)
	if ms := victim2.PollBatch(1, 8); len(ms) == 0 {
		t.Fatal("post-crash victim polled nothing")
	}
	clk.Advance(100)
	if _, err := g2.Adopt(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	past := 0
	for global := 0; global < g2.region.cap; global++ {
		if l, ok := g2.region.readLeaseLine(global); ok && l.Epoch == 2 {
			past++
		}
	}
	if past == 0 {
		t.Fatal("no lease line reached epoch 2 after the post-crash takeover")
	}
}

// TestBrokerCrashFuzzMembershipChurn is the membership-churn fuzz
// tier: beside concurrent producers, members stall (keep running but
// stop acking and heartbeating), get fenced and split by mid-traffic
// scans or robbed shard-by-shard by work-stealing, resurface and have
// their stale acks refused; one member is killed outright and scanned
// away; then the whole heap set loses power mid-traffic. The audit
// demands exactly-once processing over every path and at least one
// provably refused stale-epoch ack per run.
func TestBrokerCrashFuzzMembershipChurn(t *testing.T) {
	seeds := []int64{71, 72, 73}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { membershipChurnRound(t, seed) })
	}
}

// stallCtl coordinates one stall cycle: the consumer closes stalled
// when it parks holding a delivered-but-unacked window, and unparks
// on resume.
type stallCtl struct {
	stalled chan struct{}
	resume  chan struct{}
}

func membershipChurnRound(t *testing.T, seed int64) {
	const (
		producers   = 2
		consumers   = 3
		perProducer = 2500
		window      = 8
		heaps       = 2
		threads     = producers + consumers + 1 // +1: the churn controller
		ctlTid      = producers + consumers
	)
	hs := pmem.NewSet(heaps, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: threads})
	b, err := NewSet(hs, Config{Topics: twoAckedTopics(), Threads: threads, AckGroups: 1})
	if err != nil {
		t.Fatal(err)
	}
	clk := &logicalClock{}
	g, err := b.NewGroupAcked([]string{"events", "jobs"}, consumers, LeaseConfig{TTL: 5, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}

	acked := make([][]uint64, producers)
	processed := make([]map[uint64]bool, consumers)
	var staleRefused atomic.Uint64

	// Deterministic prologue, before any goroutine starts: member 1
	// stalls on a window, the scanner fences it, and its resurfacing
	// ack is provably refused — the churn invariant holds whatever the
	// concurrent phase's timing does. The seed window is redelivered
	// to the survivors and audited like everything else.
	for m := uint64(1); m <= 16; m++ {
		id := uint64(1)<<32 | m
		b.Topic("events").Publish(0, U64(id))
		acked[0] = append(acked[0], id)
	}
	if ms := g.Consumer(1).PollBatch(producers+1, window); len(ms) == 0 {
		t.Fatal("prologue: member 1 polled nothing")
	}
	clk.Advance(1000)
	rep, err := g.Scan(ctlTid, clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Expired) != 1 || rep.Expired[0] != 1 {
		t.Fatalf("prologue scan expired %v, want [1]", rep.Expired)
	}
	if _, err := g.Consumer(1).Ack(producers + 1); !errors.Is(err, ErrFenced) {
		t.Fatalf("prologue stale ack returned %v, want ErrFenced", err)
	}
	staleRefused.Add(1)

	// Now arm the mid-traffic power loss and let the storm loose.
	crashRng := rand.New(rand.NewSource(seed))
	hs.Heap(crashRng.Intn(heaps)).ScheduleCrashAtAccess((20_000 + int64(crashRng.Intn(80_000))) / int64(heaps))

	var killFlag [consumers]atomic.Bool
	var consumerDone [consumers]chan struct{}
	var ctlOf [consumers]atomic.Pointer[stallCtl]
	var producersDone sync.WaitGroup
	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)

	for p := 0; p < producers; p++ {
		wg.Add(1)
		producersDone.Add(1)
		go func(p int) {
			defer wg.Done()
			defer producersDone.Done()
			start.Wait()
			rng := rand.New(rand.NewSource(seed*887 + int64(p)))
			events, jobs := b.Topic("events"), b.Topic("jobs")
			for m := uint64(100); m < 100+perProducer; {
				runtime.Gosched()
				id := uint64(p+1)<<32 | m
				switch rng.Intn(3) {
				case 0:
					if pmem.Protect(func() { events.Publish(p, U64(id)) }) {
						return
					}
					acked[p] = append(acked[p], id)
					m++
				default:
					var batch [][]byte
					var ids []uint64
					for len(batch) < 6 && m < 100+perProducer {
						ids = append(ids, uint64(p+1)<<32|m)
						batch = append(batch, blobPayload(ids[len(ids)-1]))
						m++
					}
					if pmem.Protect(func() { jobs.PublishBatch(p, batch) }) {
						return
					}
					acked[p] = append(acked[p], ids...)
				}
			}
		}(p)
	}

	done := make(chan struct{})
	go func() { producersDone.Wait(); close(done) }()
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		processed[c] = map[uint64]bool{}
		consumerDone[c] = make(chan struct{})
		go func(c int) {
			defer wg.Done()
			defer close(consumerDone[c])
			start.Wait()
			tid := producers + c
			cons := g.Consumer(c)
			idle := false
			for {
				runtime.Gosched()
				var ms []Message
				if pmem.Protect(func() { ms = cons.PollBatch(tid, window) }) {
					return
				}
				if len(ms) > 0 {
					idle = false
					for _, m := range ms {
						id := AsU64(m.Payload[:8])
						if m.Topic == "jobs" && !bytes.Equal(m.Payload, blobPayload(id)) {
							t.Errorf("consumer %d: payload of %#x corrupted", c, id)
						}
					}
					if ctl := ctlOf[c].Swap(nil); ctl != nil {
						// Stall: stop acking and heartbeating without
						// dying, window in flight, until resumed.
						close(ctl.stalled)
						<-ctl.resume
					}
					if killFlag[c].Load() {
						return
					}
					var aerr error
					if pmem.Protect(func() { _, aerr = cons.Ack(tid) }) || hs.Crashed() {
						return // a dead machine records nothing (see consumerCrashRound)
					}
					if errors.Is(aerr, ErrFenced) {
						// The window was taken while we were silent; it is
						// someone else's now. Record nothing.
						staleRefused.Add(1)
						continue
					}
					for _, m := range ms {
						processed[c][AsU64(m.Payload[:8])] = true
					}
					continue
				}
				// Idle members work-steal expired shards one at a time.
				var stole bool
				if pmem.Protect(func() { stole, _, _ = cons.Steal(tid) }) {
					return
				}
				if stole {
					continue
				}
				select {
				case <-done:
					if killFlag[c].Load() {
						return
					}
					if idle {
						return
					}
					idle = true
				default:
				}
			}
		}(c)
	}

	// The churn controller: stall-and-scan member 1, stall-and-steal
	// member 2, then kill member 1 outright and scan its corpse away.
	wg.Add(1)
	go func() {
		defer wg.Done()
		start.Wait()
		stallCycle := func(victim int, steal bool) {
			ctl := &stallCtl{stalled: make(chan struct{}), resume: make(chan struct{})}
			ctlOf[victim].Store(ctl)
			select {
			case <-ctl.stalled:
			case <-consumerDone[victim]:
				ctlOf[victim].Swap(nil)
				return
			case <-time.After(2 * time.Second):
				if ctlOf[victim].Swap(nil) != nil {
					return // traffic ended before the victim saw a window
				}
				<-ctl.stalled // picked up at the last moment
			}
			defer close(ctl.resume)
			clk.Advance(1000)
			if steal {
				for {
					var stole bool
					if pmem.Protect(func() { stole, _, _ = g.Consumer(0).Steal(ctlTid) }) {
						return
					}
					if !stole {
						return
					}
				}
			}
			pmem.Protect(func() { g.Scan(ctlTid, clk.Now()) })
		}
		stallCycle(1, false)
		stallCycle(2, true)
		killFlag[1].Store(true)
		select {
		case <-consumerDone[1]:
		case <-time.After(5 * time.Second):
			return
		}
		clk.Advance(1000)
		pmem.Protect(func() { g.Scan(ctlTid, clk.Now()) })
	}()

	start.Done()
	wg.Wait()
	if !hs.Crashed() {
		hs.CrashNow()
	}
	hs.FinalizeCrash(rand.New(rand.NewSource(seed * 17)))
	hs.Restart()

	r, err := RecoverSet(hs, threads)
	if err != nil {
		t.Fatal(err)
	}
	clk2 := &logicalClock{}
	g2, err := r.NewGroupAcked([]string{"events", "jobs"}, 1, LeaseConfig{TTL: 5, Now: clk2.Now})
	if err != nil {
		t.Fatal(err)
	}

	seen := map[uint64]string{}
	for c := range processed {
		for id := range processed[c] {
			if prev, dup := seen[id]; dup {
				t.Fatalf("message %#x acknowledged twice (%s and consumer %d)", id, prev, c)
			}
			seen[id] = fmt.Sprintf("consumer %d", c)
		}
	}
	c2 := g2.Consumer(0)
	drained := 0
	for {
		ms := c2.PollBatch(0, 16)
		if len(ms) == 0 {
			break
		}
		for _, m := range ms {
			id := AsU64(m.Payload[:8])
			if m.Topic == "jobs" && !bytes.Equal(m.Payload, blobPayload(id)) {
				t.Fatalf("recovered payload of %#x corrupted", id)
			}
			if prev, dup := seen[id]; dup {
				t.Fatalf("message %#x both acknowledged by %s and redelivered after recovery", id, prev)
			}
			seen[id] = "post-crash drain"
			drained++
		}
		c2.Ack(0)
	}
	lost := 0
	totalAcked := 0
	for p := range acked {
		totalAcked += len(acked[p])
		for _, id := range acked[p] {
			if _, ok := seen[id]; !ok {
				lost++
			}
		}
	}
	t.Logf("seed %d: published %d, processed pre-crash %d, drained post-crash %d, stale acks refused %d, observer-gap %d",
		seed, totalAcked, len(seen)-drained, drained, staleRefused.Load(), lost)
	if staleRefused.Load() == 0 {
		t.Fatal("no stale-epoch ack was exercised and refused")
	}
	// Same allowance as the consumer-crash tier: acks whose fence
	// completed right before the power loss cut off the audit record.
	if allowance := consumers * window; lost > allowance {
		t.Fatalf("%d acknowledged publishes never processed (allowance %d)", lost, allowance)
	}
}

// TestJanitorDoubleStop: Stop is idempotent — calling it twice (even
// concurrently) must neither panic on a double close nor hang, and
// every call returns only after the janitor goroutine has exited.
func TestJanitorDoubleStop(t *testing.T) {
	_, b := newAckedBroker(t, 1, 4, pmem.ModePerf)
	clk := &logicalClock{}
	g, err := b.NewGroupAcked([]string{"events"}, 2, LeaseConfig{TTL: 10, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	j, err := g.StartJanitor(3, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	j.Stop()
	j.Stop() // regression: this used to panic on a double close

	// And under contention: every racer must return, none may panic.
	j2, err := g.StartJanitor(3, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j2.Stop()
		}()
	}
	wg.Wait()
}
