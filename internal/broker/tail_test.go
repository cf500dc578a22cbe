package broker

import (
	"errors"
	"testing"

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

// --- Subscribe quiescence detection --------------------------------

// TestSubscribeNotQuiescent pins the typed refusal: a plain-group
// Subscribe that observes a member inside Poll/PollBatch returns
// ErrNotQuiescent instead of racing, and proceeds once the member
// quiesces. The in-flight poll is simulated directly through the
// counter the poll paths maintain, which makes the race window
// deterministic.
func TestSubscribeNotQuiescent(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 2})
	b, err := newBroker(pmem.NewSetOf(h), Options{Threads: 2}, twoTopics(), 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.NewGroup([]string{"events"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Consumer(1)
	c.polling.Add(1) // a PollBatch in flight on member 1
	if err := g.Subscribe(0, "jobs"); !errors.Is(err, ErrNotQuiescent) {
		t.Fatalf("Subscribe during poll = %v, want ErrNotQuiescent", err)
	}
	c.polling.Add(-1)
	if err := g.Subscribe(0, "jobs"); err != nil {
		t.Fatalf("Subscribe on quiescent group = %v", err)
	}
	// The subscription took effect: jobs' shards are dealt out.
	owned := 0
	for i := 0; i < g.Size(); i++ {
		owned += len(g.Consumer(i).Assigned())
	}
	if owned != 8 {
		t.Fatalf("group owns %d shards after Subscribe, want 8", owned)
	}
	// Acked groups are exempt: their Subscribe locks members.
	hs2, b2 := newAckedBroker(t, 1, 2, pmem.ModePerf)
	_ = hs2
	g2, err := b2.NewGroupAcked([]string{"events"}, 1, LeaseConfig{TTL: 100, Now: (&logicalClock{}).Now})
	if err != nil {
		t.Fatal(err)
	}
	g2.Consumer(0).polling.Add(1)
	if err := g2.Subscribe(0, "jobs"); err != nil {
		t.Fatalf("acked Subscribe = %v, want nil (quiescence not required)", err)
	}
}
