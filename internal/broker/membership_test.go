package broker

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/pmem"
)

// TestReassignValidation pins the refusals of Adopt, the one
// reassignment verb that names its members: out-of-range members,
// self-transfer, and a takeover from a member with a live lease, each
// typed and persisting nothing. Once the lease expires the same call
// succeeds and the displaced member is fenced. (A plain group's
// refusal of every membership verb is TestPlainGroupRefusals.)
func TestReassignValidation(t *testing.T) {
	hs, b := newAckedBroker(t, 1, 3, pmem.ModePerf)
	clk := &logicalClock{}
	g, err := b.NewGroupAcked([]string{"events"}, 3, LeaseConfig{TTL: 10, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 16; i++ {
		b.Topic("events").Publish(0, U64(i))
	}
	victim := g.Consumer(1)
	if ms := victim.PollBatch(2, 4); len(ms) == 0 {
		t.Fatal("victim polled nothing")
	}
	for _, r := range []struct {
		name     string
		from, to int
		want     error
	}{
		{"from out of range", 7, 0, ErrBadMember},
		{"negative from", -1, 0, ErrBadMember},
		{"target out of range", 1, 3, ErrBadMember},
		{"negative target", 1, -1, ErrBadMember},
		{"onto itself", 1, 1, ErrSelfTransfer},
		{"unexpired lease", 1, 0, ErrUnexpiredLease},
	} {
		before := hs.TotalStats()
		if _, err := g.Adopt(0, r.from, r.to); !errors.Is(err, r.want) {
			t.Errorf("Adopt(%d -> %d), %s: got %v, want %v", r.from, r.to, r.name, err, r.want)
		}
		if d := hs.TotalStats().Sub(before); persists(d) != [3]uint64{} {
			t.Errorf("refused Adopt, %s = %v fences/NTStores/flushes, want 0/0/0", r.name, persists(d))
		}
	}
	if len(victim.Assigned()) == 0 {
		t.Fatal("a refused Adopt moved the victim's shards")
	}

	// Past the deadline the same Adopt takes the shards; the victim's
	// next ack is refused with the typed fencing error.
	clk.Advance(11)
	moved, err := g.Adopt(0, 1, 0)
	if err != nil {
		t.Fatalf("Adopt after expiry: %v", err)
	}
	if moved == 0 {
		t.Fatal("Adopt moved no redeliveries despite an in-flight window")
	}
	if len(victim.Assigned()) != 0 {
		t.Fatalf("victim still owns %d shards after Adopt", len(victim.Assigned()))
	}
	if _, err := victim.Ack(2); !errors.Is(err, ErrFenced) {
		t.Fatalf("displaced member's Ack returned %v, want ErrFenced", err)
	}
	if _, err := victim.Ack(2); err != nil {
		t.Fatalf("Ack after the fencing record was consumed: %v", err)
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
	r, err := Open(hs, Options{Threads: 3})
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
