package broker

import (
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/pmem"
)

// --- Adaptive batching: fence-accounting pins ----------------------

// TestConsumerAdaptiveFenceRegimes pins an AIMD policy over
// PollBatch: a drain of any adaptive size rides one fence, so under load the AIMD policy
// reaches Max-sized drains (fences/msg -> 1/Max), and an idle consumer
// whose policy has collapsed to Min pays zero persists per empty poll.
func TestConsumerAdaptiveFenceRegimes(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 2})
	b, err := newBroker(pmem.NewSetOf(h), Options{Threads: 2}, []TopicConfig{{Name: "events", Shards: 1}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 120
	for i := uint64(0); i < n; i++ {
		b.Topic("events").Publish(0, U64(i))
	}
	g, err := b.NewGroup([]string{"events"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Consumer(0)
	pol := batch.NewAIMD(1, 16)

	before := h.TotalStats()
	drains, got := 0, 0
	for got < n {
		ms := c.PollBatch(1, pol.Size())
		pol.Observe(len(ms))
		if len(ms) == 0 {
			t.Fatalf("queue ran dry at %d/%d", got, n)
		}
		got += len(ms)
		drains++
	}
	d := h.TotalStats().Sub(before)
	if d.Fences != uint64(drains) {
		t.Fatalf("loaded drains = %d fences for %d drains, want one per drain", d.Fences, drains)
	}
	if pol.Size() != 16 {
		t.Fatalf("policy after sustained backlog = %d, want Max 16", pol.Size())
	}
	// drains must be far fewer than messages: the ramp 1,2,...,16 (136
	// >= 120) caps the count.
	if drains > 16 {
		t.Fatalf("%d messages took %d drains, want <= 16 (adaptive growth)", n, drains)
	}

	// Idle: policy collapses to Min and empty polls stay persist-free.
	before = h.TotalStats()
	for i := 0; i < 50; i++ {
		ms := c.PollBatch(1, pol.Size())
		pol.Observe(len(ms))
	}
	d = h.TotalStats().Sub(before)
	if d.Fences != 0 || d.Flushes != 0 || d.NTStores != 0 {
		t.Fatalf("idle adaptive polls = %d fences, %d flushes, %d NTStores; want 0/0/0",
			d.Fences, d.Flushes, d.NTStores)
	}
	if pol.Size() != 1 {
		t.Fatalf("policy after idling = %d, want Min 1", pol.Size())
	}
}

// --- The member lock ----------------------------------------------

// TestPollWaitsForSubscribe pins the one-lock rule from the poll side,
// on both group kinds and both poll verbs: a poll holds its consumer's
// lock, so while a whole-group operation holds every member's (as
// Subscribe does, through lockAll) the poll waits instead of reading
// the member's shards under it, and then delivers. The group operation
// is the test holding lockAll, which makes the window deterministic.
func TestPollWaitsForSubscribe(t *testing.T) {
	for _, acked := range []bool{false, true} {
		for _, batch := range []bool{false, true} {
			_, b := newAckedBroker(t, 1, 2, pmem.ModePerf)
			b.Topic("events").Publish(0, U64(7))
			var g *Group
			var err error
			if acked {
				g, err = b.NewGroupAcked([]string{"events"}, 1, LeaseConfig{TTL: 100, Now: (&logicalClock{}).Now})
			} else {
				g, err = b.NewGroup([]string{"events"}, 1)
			}
			if err != nil {
				t.Fatal(err)
			}
			c := g.Consumer(0)
			unlock := g.lockAll()
			done := make(chan int, 1)
			go func() {
				if batch {
					done <- len(c.PollBatch(1, 8))
				} else if _, ok := c.Poll(1); ok {
					done <- 1
				} else {
					done <- 0
				}
			}()
			select {
			case n := <-done:
				t.Fatalf("acked=%v batch=%v: poll returned %d messages under lockAll, want it to wait", acked, batch, n)
			case <-time.After(20 * time.Millisecond):
			}
			unlock()
			if n := <-done; n != 1 {
				t.Fatalf("acked=%v batch=%v: poll after unlock delivered %d, want 1", acked, batch, n)
			}
		}
	}
}
