package broker

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/pmem"
)

// The tests in this file pin verbs that share one implementation to
// one behaviour: each drives the two public entry points of a merged
// path on twin brokers and demands equal durable state and equal
// persist counts, so a clone re-introduced beside the shared code
// fails here as soon as it drifts.

// persists is the part of pmem.Stats the paper's budget is stated in.
func persists(s pmem.Stats) [3]uint64 { return [3]uint64{s.Fences, s.NTStores, s.Flushes} }

// TestPlainGroupRefusals: every acknowledgment-path and membership
// verb refuses a plain group with the one typed sentinel, naming the
// verb, and without a single persist instruction.
func TestPlainGroupRefusals(t *testing.T) {
	hs, b := newAckedBroker(t, 1, 3, pmem.ModePerf)
	g, err := b.NewGroup([]string{"jobs"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	b.Topic("jobs").Publish(0, blobPayload(1))
	c := g.Consumer(0)
	verbs := []struct {
		name string
		call func() error
	}{
		{"Ack", func() error { _, err := c.Ack(1); return err }},
		{"Nack", func() error { _, err := c.Nack(1); return err }},
		{"Renew", func() error { return c.Renew(1, 100) }},
		{"Adopt", func() error { _, err := g.Adopt(0, 0, 1); return err }},
		{"Scan", func() error { _, err := g.Scan(0, 0); return err }},
		{"Steal", func() error { _, _, err := c.Steal(1); return err }},
	}
	for _, v := range verbs {
		before := hs.TotalStats()
		err := v.call()
		if !errors.Is(err, ErrPlainGroup) {
			t.Errorf("%s on a plain group = %v, want ErrPlainGroup", v.name, err)
		}
		if d := hs.TotalStats().Sub(before); persists(d) != [3]uint64{} {
			t.Errorf("refused %s = %d fences, %d NTStores, %d flushes; want 0/0/0", v.name, d.Fences, d.NTStores, d.Flushes)
		}
	}
	if ms := c.PollBatch(1, 4); len(ms)+len(g.Consumer(1).PollBatch(2, 4)) != 1 {
		t.Fatal("the refusals disturbed the plain group's delivery")
	}
}

// TestPublishRefusalsTyped: a payload the topic cannot hold, or a heap
// batch whose keys and payloads differ in number, is a typed error on
// every verb with an error slot: it publishes nothing, persists
// nothing and never panics.
func TestPublishRefusalsTyped(t *testing.T) {
	hs, b := heapTestBroker(t, 2)
	if _, err := b.CreateTopic(0, TopicConfig{Name: "blob", Shards: 2, MaxPayload: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateTopic(0, TopicConfig{Name: "word", Shards: 2}); err != nil {
		t.Fatal(err)
	}
	word, blob, delay, prio := b.Topic("word"), b.Topic("blob"), b.Topic("delay"), b.Topic("prio")
	short, long, ok := make([]byte, 7), make([]byte, 17), heapPayload(1, 1)
	huge := make([]byte, delay.MaxPayload()+1)
	refusals := []struct {
		name string
		err  func() error
	}{
		{"Publish/word", func() error { return word.Publish(0, short) }},
		{"PublishKey/word", func() error { return word.PublishKey(0, U64(1), long) }},
		{"PublishBatch/word", func() error { return word.PublishBatch(0, [][]byte{U64(1), short, U64(2)}) }},
		{"Publish/blob", func() error { return blob.Publish(0, long) }},
		{"PublishBatch/blob", func() error { return blob.PublishBatch(0, [][]byte{short, long}) }},
		{"PublishAt/oversize", func() error { return delay.PublishAt(0, huge, 1) }},
		{"PublishAtBatch/lengths", func() error { return delay.PublishAtBatch(0, [][]byte{ok, ok}, []uint64{1}) }},
		{"PublishPriorityBatch/lengths", func() error { return prio.PublishPriorityBatch(0, [][]byte{ok}, []uint64{1, 2}) }},
	}
	for _, r := range refusals {
		before := hs.TotalStats()
		err := r.err()
		if !errors.Is(err, ErrBadPayload) {
			t.Errorf("%s = %v, want ErrBadPayload", r.name, err)
		}
		if d := hs.TotalStats().Sub(before); persists(d) != [3]uint64{} {
			t.Errorf("refused %s = %d fences, %d NTStores, %d flushes; want 0/0/0", r.name, d.Fences, d.NTStores, d.Flushes)
		}
	}
	g, err := b.NewGroup([]string{"word", "blob"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ms := g.Consumer(0).PollBatch(1, 8); len(ms) != 0 {
		t.Fatalf("refused publishes delivered %d messages", len(ms))
	}
	if dd, pd := delay.heapq.Depth(), prio.heapq.Depth(); dd != 0 || pd != 0 {
		t.Fatalf("refused heap publishes left depth %d/%d", dd, pd)
	}
}

// staleLeaseBroker returns a recovered broker whose lease region still
// holds the previous incarnation's active lines — two of them at a
// bumped epoch — over a backlog nobody acknowledged. Twins built by
// two calls are bit-identical: every persist was fenced before the
// power loss.
func staleLeaseBroker(t *testing.T) (*pmem.HeapSet, *Broker, *logicalClock) {
	t.Helper()
	hs, b := newAckedBroker(t, 1, 3, pmem.ModeCrash)
	clk := &logicalClock{}
	g, err := b.NewGroupAcked([]string{"events", "jobs"}, 3, LeaseConfig{TTL: 10, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 32; i++ {
		b.Topic("events").Publish(0, U64(i))
		b.Topic("jobs").Publish(0, blobPayload(i))
	}
	g.Consumer(0).PollBatch(1, 6)
	g.Consumer(1).PollBatch(2, 6)
	clk.Advance(100)
	if _, err := g.Adopt(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	hs.CrashNow()
	hs.FinalizeCrash(rand.New(rand.NewSource(17)))
	hs.Restart()
	r, err := Open(hs, Options{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	return hs, r, clk
}

// TestBindOneSource: NewGroupAcked over topics and an empty
// NewGroupAcked followed by Subscribe are the same bind — same deal,
// same surfaced leases, same cleared lines, same fences.
func TestBindOneSource(t *testing.T) {
	topics := []string{"events", "jobs"}
	type outcome struct {
		assigned  [][]ShardRef
		recovered []RecoveredLease
		lines     []Lease
		persists  [3]uint64
	}
	bind := func(construct func(b *Broker, lc LeaseConfig) (*Group, error)) outcome {
		hs, b, clk := staleLeaseBroker(t)
		before := hs.TotalStats()
		g, err := construct(b, LeaseConfig{TTL: 10, Now: clk.Now})
		if err != nil {
			t.Fatal(err)
		}
		o := outcome{recovered: g.RecoveredLeases(), persists: persists(hs.TotalStats().Sub(before))}
		for i := 0; i < g.Size(); i++ {
			o.assigned = append(o.assigned, g.Consumer(i).Assigned())
		}
		for global := 0; global < g.region.cap; global++ {
			l, ok := g.region.readLeaseLine(global)
			if !ok {
				t.Fatalf("lease line %d torn after the bind", global)
			}
			o.lines = append(o.lines, l)
		}
		return o
	}
	atOnce := bind(func(b *Broker, lc LeaseConfig) (*Group, error) { return b.NewGroupAcked(topics, 3, lc) })
	later := bind(func(b *Broker, lc LeaseConfig) (*Group, error) {
		g, err := b.NewGroupAcked(nil, 3, lc)
		if err == nil {
			err = g.Subscribe(0, topics...)
		}
		return g, err
	})
	if len(atOnce.recovered) == 0 || atOnce.persists[0] != 1 {
		t.Fatalf("the fixture is vacuous: %d stale leases surfaced, %d fences", len(atOnce.recovered), atOnce.persists[0])
	}
	epochs := 0
	for _, l := range atOnce.lines {
		if l.Active {
			t.Fatalf("bind left an active line behind: %+v", l)
		}
		if l.Epoch > 0 {
			epochs++
		}
	}
	if epochs == 0 {
		t.Fatal("no cleared line kept its bumped epoch")
	}
	if !reflect.DeepEqual(atOnce, later) {
		t.Fatalf("the two binds differ:\n  NewGroupAcked(topics): %+v\n  NewGroupAcked(nil)+Subscribe: %+v", atOnce, later)
	}
}

// TestTakeoverOneSource: a one-shard member whose lease expired loses
// its shard to Steal on one twin and to Adopt on the other; the lease
// line, the redelivery order and the victim's refusal must not tell
// them apart.
func TestTakeoverOneSource(t *testing.T) {
	type outcome struct {
		line        Lease
		moved       int
		redelivered []uint64
		fenced      string
		persists    [3]uint64
	}
	takeover := func(take func(g *Group) (int, error)) outcome {
		hs := pmem.NewSet(1, pmem.Config{Bytes: 64 << 20, MaxThreads: 3})
		b, err := newBroker(hs, Options{Threads: 3}, []TopicConfig{{Name: "t", Shards: 2, Acked: true}}, 1)
		if err != nil {
			t.Fatal(err)
		}
		clk := &logicalClock{}
		g, err := b.NewGroupAcked([]string{"t"}, 2, LeaseConfig{TTL: 10, Now: clk.Now})
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 20; i++ {
			b.Topic("t").Publish(0, U64(i))
		}
		victim, thief := g.Consumer(0), g.Consumer(1)
		if ms := victim.PollBatch(1, 4); len(ms) != 4 {
			t.Fatalf("victim polled %d, want 4", len(ms))
		}
		victim.Ack(1)
		victim.PollBatch(1, 4) // acked prefix, then an in-flight window
		if n, _ := victim.Nack(1); n != 4 {
			t.Fatalf("victim nacked %d, want 4", n)
		}
		victim.PollBatch(1, 2) // two re-served, two still queued on the victim
		clk.Advance(100)
		global := b.Topic("t").base + victim.refs[0].shard
		before := hs.TotalStats()
		moved, err := take(g)
		if err != nil {
			t.Fatal(err)
		}
		o := outcome{moved: moved, persists: persists(hs.TotalStats().Sub(before))}
		o.line, _ = g.region.readLeaseLine(global)
		for _, m := range thief.PollBatch(2, 4) {
			o.redelivered = append(o.redelivered, AsU64(m.Payload))
		}
		_, err = victim.Ack(1)
		if !errors.Is(err, ErrFenced) {
			t.Fatalf("victim's Ack after the takeover = %v, want ErrFenced", err)
		}
		o.fenced = err.Error()
		if len(victim.Assigned()) != 0 || len(victim.pending) != 0 || len(thief.Assigned()) != 2 {
			t.Fatalf("after the takeover the victim owns %d shards with %d queued redeliveries, the thief %d shards",
				len(victim.Assigned()), len(victim.pending), len(thief.Assigned()))
		}
		return o
	}
	stolen := takeover(func(g *Group) (int, error) {
		ok, moved, err := g.Consumer(1).Steal(2)
		if err == nil && !ok {
			err = errors.New("Steal found nothing expired")
		}
		return moved, err
	})
	adopted := takeover(func(g *Group) (int, error) { return g.Adopt(2, 0, 1) })
	if !stolen.line.Active || stolen.line.Owner != 1 || stolen.line.Epoch != 1 || stolen.moved != 4 || len(stolen.redelivered) != 4 {
		t.Fatalf("the fixture is vacuous: %+v", stolen)
	}
	if stolen.persists != [3]uint64{1, 8, 0} {
		t.Fatalf("one-shard takeover = %v fences/NTStores/flushes, want 1/8/0", stolen.persists)
	}
	if !reflect.DeepEqual(stolen, adopted) {
		t.Fatalf("Steal and Adopt differ:\n  Steal: %+v\n  Adopt: %+v", stolen, adopted)
	}
}

// TestAckOneSource: Ack pays its covering fences inside the call, one
// per touched domain, and ends with every shard's durable frontier at
// the last index it delivered.
func TestAckOneSource(t *testing.T) {
	hs, b := newAckedBroker(t, 2, 2, pmem.ModePerf)
	g, err := b.NewGroupAcked([]string{"events", "jobs"}, 1, LeaseConfig{TTL: 100, Now: (&logicalClock{}).Now})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 24; i++ {
		b.Topic("events").Publish(0, U64(i))
		b.Topic("jobs").PublishKey(0, U64(i%3), blobPayload(i))
	}
	c := g.Consumer(0)
	if ms := c.PollBatch(1, 40); len(ms) != 40 {
		t.Fatalf("delivered %d, want 40", len(ms))
	}
	before := hs.TotalStats()
	n, err := c.Ack(1)
	if err != nil {
		t.Fatal(err)
	}
	if d := hs.TotalStats().Sub(before); n != 40 || d.Fences != 2 {
		t.Fatalf("Ack = %d with %d fences, want 40 over both domains", n, d.Fences)
	}
	for _, r := range c.refs {
		if got := r.t.shards[r.shard].AckedTo(); got != r.deliveredTo {
			t.Errorf("%s shard %d: acked frontier %d, want the delivered index %d", r.t.Name(), r.shard, got, r.deliveredTo)
		}
	}
}

// TestPublishOneSource: the three FIFO publish entry points are one
// path — each charges its single fence to the calling tid and to no
// other, watched or not, and lands its messages.
func TestPublishOneSource(t *testing.T) {
	for _, o := range []*obs.Observer{nil, obs.New(obs.Config{Threads: 3})} {
		hs := pmem.NewSet(1, pmem.Config{Bytes: 64 << 20, MaxThreads: 3})
		b, err := Open(hs, Options{Threads: 3, Observer: o})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.CreateTopic(0, TopicConfig{Name: "t", Shards: 2}); err != nil {
			t.Fatal(err)
		}
		topic := b.Topic("t")
		verbs := []struct {
			name string
			n    int
			call func()
		}{
			{"Publish", 1, func() { topic.Publish(2, U64(1)) }},
			{"PublishKey", 1, func() { topic.PublishKey(2, U64(9), U64(2)) }},
			{"PublishBatch", 3, func() { topic.PublishBatch(2, [][]byte{U64(3), U64(4), U64(5)}) }},
		}
		topic.Publish(2, U64(0)) // warm both shards: the first publish opens a node area
		topic.Publish(2, U64(0))
		want := 2
		for _, v := range verbs {
			mine, all := hs.Heap(0).StatsOf(2), hs.TotalStats()
			v.call()
			mine, all = hs.Heap(0).StatsOf(2).Sub(mine), hs.TotalStats().Sub(all)
			if mine.Fences != 1 || all.Fences != 1 || mine.Stores != all.Stores || mine.Flushes != all.Flushes {
				t.Errorf("observer=%v %s on tid 2: that tid paid %d fences, %d stores, %d flushes; all tids %d, %d, %d",
					o != nil, v.name, mine.Fences, mine.Stores, mine.Flushes, all.Fences, all.Stores, all.Flushes)
			}
			want += v.n
		}
		g, err := b.NewGroup([]string{"t"}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ms := g.Consumer(0).PollBatch(1, 16); len(ms) != want {
			t.Errorf("observer=%v: delivered %d, want %d", o != nil, len(ms), want)
		}
	}
}
