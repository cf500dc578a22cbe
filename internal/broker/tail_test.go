package broker

import (
	"testing"
	"time"

	"repro/internal/pmem"
)

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
