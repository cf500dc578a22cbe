package broker

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/pmem"
)

// budgetFile is the broker's persist budget: one row per verb and
// shape, with the fences, flushes, NTStores and post-flush accesses its
// calls issue across the whole heap set, per call and per message. The
// counts are deterministic, so TestPersistBudget diffs them exactly; a
// change that means to move one replaces the file with the table the
// failing test prints, and says why in the same commit.
const budgetFile = "testdata/budget.txt"

// TestPersistBudget measures every row on brokers without an observer
// and requires the table to equal the golden file.
func TestPersistBudget(t *testing.T) { diffBudget(t, false) }

// TestObserverZeroPersistCost measures every row again on brokers with
// an observer (tracing on) and requires the same golden table:
// observation lives outside simulated NVRAM, so it costs no persist on
// any verb, group binding included.
func TestObserverZeroPersistCost(t *testing.T) { diffBudget(t, true) }

// The focused pins below each measure one scenario and diff its block
// of the golden file.

func TestPollBatchSingleFenceAcrossShards(t *testing.T) { diffBudget(t, false, "shards") }
func TestConsumerAdaptiveFenceRegimes(t *testing.T)     { diffBudget(t, false, "drain") }
func TestAckFenceAccounting(t *testing.T)               { diffBudget(t, false, "acked") }
func TestMembershipFenceAccounting(t *testing.T)        { diffBudget(t, false, "membership") }
func TestHeapTopicFenceAccounting(t *testing.T)         { diffBudget(t, false, "heap") }
func TestCreateTopicFenceAccounting(t *testing.T)       { diffBudget(t, false, "create") }
func TestDeleteTopicFenceAccounting(t *testing.T)       { diffBudget(t, false, "delete") }
func TestCompactCatalogFenceAccounting(t *testing.T)    { diffBudget(t, false, "compact") }

// diffBudget measures the named scenarios, or all of them, and fails
// unless the table equals the golden file's header and blocks of those
// scenarios, naming the first row that differs and printing the whole
// measured table.
func diffBudget(t *testing.T, observed bool, only ...string) {
	t.Helper()
	golden, err := os.ReadFile(budgetFile)
	if err != nil {
		t.Fatal(err)
	}
	got, want := measureBudget(t, observed, only...), budgetBlocks(string(golden), only)
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Errorf("first differing row of %s:\nwant %s\ngot  %s", budgetFile, w[i], g[i])
			break
		}
	}
	t.Errorf("persist budget differs from %s; measured table:\n%s", budgetFile, got)
}

// budgetBlocks is table's header and the blocks of the named scenarios,
// or all of table when none is named. Blocks are separated by a blank
// line and open with their scenario's name.
func budgetBlocks(table string, only []string) string {
	blocks := strings.Split(strings.TrimSuffix(table, "\n"), "\n\n")
	keep := []string{blocks[0]}
	for _, blk := range blocks[1:] {
		if name, _, _ := strings.Cut(blk, "\n"); len(only) == 0 || slices.Contains(only, name) {
			keep = append(keep, blk)
		}
	}
	return strings.Join(keep, "\n\n") + "\n"
}

// budget builds each scenario's broker and measures its rows.
type budget struct {
	t        *testing.T
	observed bool
	hs       *pmem.HeapSet
	clk      *logicalClock
	out      strings.Builder
}

// budgetScenarios are the table's blocks, in order. Each builds its own
// brokers and clock, so its rows do not depend on the others and a
// focused pin can measure it alone.
var budgetScenarios = []struct {
	name string
	run  func(*budget)
}{
	{"fifo", (*budget).fifo}, {"shards", (*budget).shards}, {"drain", (*budget).drain},
	{"acked", (*budget).acked}, {"membership", (*budget).membership}, {"heap", (*budget).heap},
	{"create", (*budget).create}, {"delete", (*budget).deleteTopic}, {"compact", (*budget).compact},
	{"open", (*budget).open},
}

// measureBudget prints the header and the blocks of the named
// scenarios, or of all of them when none is named.
func measureBudget(t *testing.T, observed bool, only ...string) string {
	bg := &budget{t: t, observed: observed}
	cols := fmt.Sprintf("%7s %7s %7s %7s", "fence", "flush", "ntst", "pflush")
	fmt.Fprintf(&bg.out, "%-58s  %-31s  %s\n", "", "per call", "per message")
	fmt.Fprintf(&bg.out, "%-46s %5s %5s  %s  %s\n", "verb, shape", "calls", "msgs", cols, cols)
	ran := 0
	for _, sc := range budgetScenarios {
		if len(only) == 0 || slices.Contains(only, sc.name) {
			fmt.Fprintf(&bg.out, "\n%s\n", sc.name)
			bg.clk = new(logicalClock)
			sc.run(bg)
			ran++
		}
	}
	if ran < len(only) {
		t.Fatalf("%v names a scenario the budget does not have", only)
	}
	return bg.out.String()
}

// options is every broker's Options: three tids, and a fresh observer
// with tracing on in the observed pass.
func (bg *budget) options() Options {
	o := Options{Threads: 3}
	if bg.observed {
		o.Observer = obs.New(obs.Config{Threads: 3, TraceEvents: 64})
	}
	return o
}

// broker opens a blank broker on a fresh set of heaps, creates the
// topics and, when any is acked, one lease region sized to them.
func (bg *budget) broker(heaps int, mode pmem.Mode, topics ...TopicConfig) *Broker {
	bg.hs = pmem.NewSet(heaps, pmem.Config{Bytes: 64 << 20, Mode: mode, MaxThreads: 3})
	groups := 0
	for _, tc := range topics {
		if tc.Acked {
			groups = 1
		}
	}
	b, err := newBroker(bg.hs, bg.options(), topics, groups)
	bg.must(err)
	return b
}

func (bg *budget) must(err error) {
	bg.t.Helper()
	if err != nil {
		bg.t.Fatal(err)
	}
}

// row runs f, which makes calls calls of one verb and returns the
// messages they moved, and appends what it cost as one row.
func (bg *budget) row(name string, calls int, f func() int) {
	d := bg.hs.TotalDelta()
	msgs := f()
	s := d.Delta()
	per := func(n int) string {
		if n == 0 {
			return fmt.Sprintf("%7s %7s %7s %7s", "-", "-", "-", "-")
		}
		c := float64(n)
		return fmt.Sprintf("%7.3f %7.3f %7.3f %7.3f", float64(s.Fences)/c, float64(s.Flushes)/c,
			float64(s.NTStores)/c, float64(s.PostFlushAccesses)/c)
	}
	fmt.Fprintf(&bg.out, "%-46s %5d %5d  %s  %s\n", name, calls, msgs, per(calls), per(msgs))
}

// publish puts n one-word messages on t, one Publish each, so they
// spread round-robin over its shards.
func (bg *budget) publish(t *Topic, n int) {
	for i := 0; i < n; i++ {
		bg.must(t.Publish(0, U64(uint64(i))))
	}
}

func (bg *budget) group(b *Broker, n int, topics ...string) *Group {
	g, err := b.NewGroup(topics, n)
	bg.must(err)
	return g
}

func (bg *budget) ackedGroup(b *Broker, n int, ttl uint64) *Group {
	g, err := b.NewGroupAcked([]string{"events"}, n, LeaseConfig{TTL: ttl, Now: bg.clk.Now})
	bg.must(err)
	return g
}

// poll is one PollBatch that must deliver distinct payloads.
func (bg *budget) poll(c *Consumer, max int) int {
	seen := map[string]bool{}
	ms := c.PollBatch(1, max)
	for _, m := range ms {
		if seen[string(m.Payload)] {
			bg.t.Fatalf("PollBatch(%d) delivered %x twice", max, m.Payload)
		}
		seen[string(m.Payload)] = true
	}
	return len(ms)
}

// fifo: publishing, binding a group and a single poll on one domain.
func (bg *budget) fifo() {
	b := bg.broker(1, pmem.ModePerf, TopicConfig{Name: "events", Shards: 4},
		TopicConfig{Name: "jobs", Shards: 1, MaxPayload: 100})
	events := b.Topic("events")
	bg.row("Publish", 1, func() int { bg.must(events.Publish(0, U64(1))); return 1 })
	bg.row("PublishBatch(8)", 1, func() int {
		bg.must(events.PublishBatch(0, [][]byte{U64(1), U64(2), U64(3), U64(4), U64(5), U64(6), U64(7), U64(8)}))
		return 8
	})
	bg.row("PublishKey", 1, func() int { bg.must(events.PublishKey(0, U64(7), U64(9))); return 1 })
	jobs := b.Topic("jobs")
	bg.must(jobs.Publish(0, make([]byte, 100))) // grows the blob pool's first area
	bg.row("Publish, 100 B blob", 1, func() int { bg.must(jobs.Publish(0, make([]byte, 100))); return 1 })
	var g *Group
	bg.row("NewGroup, 4 shards", 1, func() int { g = bg.group(b, 1, "events"); return 0 })
	bg.row("Poll", 1, func() int {
		if _, ok := g.Consumer(0).Poll(1); !ok {
			bg.t.Fatal("Poll found nothing")
		}
		return 1
	})
}

// shards: a poll fences once per domain it dequeued from, however many
// shards it drained. On two heaps placement deals shard s to heap s%2,
// and a two-member group deals member i the shards on heap i.
func (bg *budget) shards() {
	b := bg.broker(1, pmem.ModePerf, TopicConfig{Name: "events", Shards: 4})
	bg.publish(b.Topic("events"), 16)
	c := bg.group(b, 1, "events").Consumer(0)
	bg.row("PollBatch(16), 4 shards", 1, func() int { return bg.poll(c, 16) })
	bg.row("PollBatch(16), 4 shards, empty", 1, func() int { return bg.poll(c, 16) })

	b = bg.broker(2, pmem.ModePerf, TopicConfig{Name: "spread", Shards: 4}, TopicConfig{Name: "affine", Shards: 4})
	bg.publish(b.Topic("spread"), 16)
	c = bg.group(b, 1, "spread").Consumer(0)
	bg.row("PollBatch(16), 4 shards over 2 domains", 1, func() int { return bg.poll(c, 16) })
	bg.publish(b.Topic("affine"), 16)
	g := bg.group(b, 2, "affine")
	bg.row("PollBatch(16), 2 members, 1 domain each", 2, func() int {
		return bg.poll(g.Consumer(0), 16) + bg.poll(g.Consumer(1), 16)
	})
}

// drain: every drain size an adaptive window moves a consumer through,
// loaded and then empty.
func (bg *budget) drain() {
	const maxDrain = 16
	b := bg.broker(1, pmem.ModePerf, TopicConfig{Name: "one", Shards: 1})
	bg.publish(b.Topic("one"), maxDrain*(maxDrain+1)/2)
	c := bg.group(b, 1, "one").Consumer(0)
	for size := 1; size <= maxDrain; size++ {
		bg.row(fmt.Sprintf("PollBatch(%d), 1 shard", size), 1, func() int { return bg.poll(c, size) })
	}
	bg.row("PollBatch(1..16), empty", maxDrain, func() (n int) {
		for size := 1; size <= maxDrain; size++ {
			n += bg.poll(c, size)
		}
		return n
	})
}

// acked: one member over a 4-shard acked topic, TTL 100.
func (bg *budget) acked() {
	b := bg.broker(1, pmem.ModePerf, TopicConfig{Name: "events", Shards: 4, Acked: true})
	var c *Consumer
	bg.row("NewGroupAcked, 4 shards", 1, func() int { c = bg.ackedGroup(b, 1, 100).Consumer(0); return 0 })
	bg.publish(b.Topic("events"), 16)
	bg.row("leased PollBatch(16), 4 shards", 1, func() int { return bg.poll(c, 16) })
	ack := func() int { n, err := c.Ack(1); bg.must(err); return n }
	bg.row("Ack, 4 shards", 1, ack)
	bg.row("Ack, nothing new", 1, ack)

	bg.publish(b.Topic("events"), 4)
	bg.row("leased PollBatch(4), 4 shards, again", 1, func() int { return bg.poll(c, 4) })
	bg.clk.Advance(50)
	deadline := bg.clk.Now() + 100
	bg.row("Renew, deadline moves on 4 shards", 1, func() int { bg.must(c.Renew(1, deadline)); return 0 })
	bg.row("Renew, deadline already durable", 2, func() int {
		bg.must(c.Renew(1, deadline))
		bg.must(c.Renew(1, deadline-10))
		return 0
	})
	bg.row("Nack", 1, func() int { n, err := c.Nack(1); bg.must(err); return n })
	bg.row("leased PollBatch(4), redelivery", 1, func() int { return bg.poll(c, 4) })
	ack()
	bg.row("leased PollBatch(8), empty", 16, func() (n int) {
		for i := 0; i < 16; i++ {
			n += bg.poll(c, 8)
		}
		return n
	})
}

// membership: two members of an acked group, TTL 100, member 1 holding
// a window on both its shards and member 0 idle behind acked leases;
// then, on a second broker, a member past its deadline adopted.
func (bg *budget) membership() {
	const ttl = 100
	b := bg.broker(1, pmem.ModePerf, TopicConfig{Name: "events", Shards: 4, Acked: true})
	g := bg.ackedGroup(b, 2, ttl)
	c0, c1 := g.Consumer(0), g.Consumer(1)
	bg.publish(b.Topic("events"), 16)
	c1.PollBatch(2, 8)
	c0.PollBatch(1, 8)
	c0.Ack(1)
	scan := func() int { rep, err := g.Scan(0, bg.clk.Now()); bg.must(err); return rep.Moved }
	bg.row("Scan, nothing expired", 1, scan)
	bg.row("Renew to now+TTL, already durable", 1, func() int { bg.must(c1.Renew(2, bg.clk.Now()+ttl)); return 0 })
	bg.clk.Advance(50)
	bg.row("Renew, deadline moves on 2 shards", 1, func() int { bg.must(c1.Renew(2, bg.clk.Now()+ttl)); return 0 })
	bg.clk.Advance(500)
	bg.row("Scan, 1 member expired: 2 shards move", 1, scan)
	bg.row("Renew, refused: member fenced", 1, func() int {
		if err := c1.Renew(2, bg.clk.Now()+ttl); !errors.Is(err, ErrFenced) {
			bg.t.Fatalf("stale Renew returned %v, want ErrFenced", err)
		}
		return 0
	})
	c0.PollBatch(1, 4)
	bg.clk.Advance(500)
	bg.row("Steal, 1 expired shard", 1, func() int {
		stole, moved, err := c1.Steal(2)
		bg.must(err)
		if !stole {
			bg.t.Fatal("Steal found no expired shard")
		}
		return moved
	})

	b = bg.broker(1, pmem.ModePerf, TopicConfig{Name: "events", Shards: 4, Acked: true})
	g = bg.ackedGroup(b, 2, 10)
	bg.publish(b.Topic("events"), 16)
	g.Consumer(1).PollBatch(2, 4)
	bg.clk.Advance(100)
	bg.row("Adopt, 2 shards with a window", 1, func() int { moved, err := g.Adopt(2, 1, 0); bg.must(err); return moved })
}

// heap: one delay topic; the batch's deadlines are random, so its
// publish sifts.
func (bg *budget) heap() {
	b := bg.broker(1, pmem.ModePerf, TopicConfig{Name: "delay", Shards: 1, MaxPayload: 24, Kind: KindDelay})
	delay := b.Topic("delay")
	rng := rand.New(rand.NewSource(3))
	var payloads [][]byte
	var deadlines []uint64
	for i := uint64(0); i < 64; i++ {
		deadlines = append(deadlines, 1+uint64(rng.Intn(1000)))
		payloads = append(payloads, heapPayload(i, deadlines[i]))
	}
	bg.row("PublishAtBatch(64), 24 B", 1, func() int { bg.must(delay.PublishAtBatch(0, payloads, deadlines)); return 64 })
	bg.row("PublishAt, 24 B", 1, func() int { bg.must(delay.PublishAt(0, heapPayload(99, 1), 1)); return 1 })
	dequeue := func(now uint64, max int) func() int {
		return func() int { ps, err := delay.DequeueReadyBatch(1, now, max); bg.must(err); return len(ps) }
	}
	bg.row("Depth, MinKey, DequeueReadyBatch: none ready", 3, func() int {
		delay.heapq.Depth()
		delay.MinKey()
		return dequeue(0, 16)()
	})
	bg.row("DequeueReadyBatch(16)", 1, dequeue(^uint64(0), 16))
	bg.row("DequeueReady", 1, dequeue(^uint64(0), 1))
}

// catalog opens a blank broker on one domain for the catalog verbs;
// its rows end with the number of topics live before the call.
func (bg *budget) catalog() (*Broker, func(verb string, f func() error)) {
	b := bg.broker(1, pmem.ModePerf)
	return b, func(verb string, f func() error) {
		bg.row(fmt.Sprintf("%s, %d live", verb, len(b.Topics())), 1, func() int { bg.must(f()); return 0 })
	}
}

// topics creates the named 1-shard topics and, when del is set,
// deletes each right away.
func (bg *budget) topics(b *Broker, prefix string, n int, del bool) {
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s-%d", prefix, i)
		_, err := b.CreateTopic(0, TopicConfig{Name: name, Shards: 1})
		bg.must(err)
		if del {
			bg.must(b.DeleteTopic(0, name))
		}
	}
}

// create: each shape on a young broker and again on one holding some
// twenty topics, then a lease region.
func (bg *budget) create() {
	b, row := bg.catalog()
	for _, fill := range []int{0, 20} {
		bg.topics(b, "filler", fill, false)
		for _, tc := range []TopicConfig{
			{Name: "1 shard", Shards: 1}, {Name: "2 shards", Shards: 2},
			{Name: "64 B blob", Shards: 1, MaxPayload: 64}, {Name: "acked", Shards: 1, Acked: true},
			{Name: "4 shards", Shards: 4},
		} {
			shape := tc.Name
			tc.Name = fmt.Sprintf("%s %d", shape, fill)
			row("CreateTopic, "+shape, func() error { _, err := b.CreateTopic(0, tc); return err })
		}
	}
	row("CreateAckGroup", func() error { _, err := b.CreateAckGroup(0, AckGroupConfig{}); return err })
}

// deleteTopic: a 1- and a 4-shard topic on a young broker, and again
// on one holding some twenty topics.
func (bg *budget) deleteTopic() {
	b, row := bg.catalog()
	for _, fill := range []int{0, 20} {
		bg.topics(b, "filler", fill, false)
		for _, tc := range []TopicConfig{{Name: "1 shard", Shards: 1}, {Name: "4 shards", Shards: 4}} {
			_, err := b.CreateTopic(0, tc)
			bg.must(err)
		}
		for _, name := range []string{"1 shard", "4 shards"} {
			row("DeleteTopic, "+name, func() error { return b.DeleteTopic(0, name) })
		}
	}
}

// compact: the first compaction, which places its region, and later
// ones dropping 2 and 8 dead topics.
func (bg *budget) compact() {
	b, row := bg.catalog()
	bg.topics(b, "live", 4, false)
	for i, dead := range []int{2, 2, 8} {
		bg.topics(b, fmt.Sprintf("dead-%d", i), dead, true)
		shape := fmt.Sprintf("%d dead", dead)
		if i == 0 {
			shape += ", new region"
		}
		row("CompactCatalog, "+shape, func() error { return b.CompactCatalog(0, 0) })
	}
}

// open: recovery of a crashed image holding one topic's backlog, and
// the creation of a blank set.
func (bg *budget) open() {
	for _, shards := range []int{1, 4} {
		b := bg.broker(1, pmem.ModeCrash, TopicConfig{Name: "t", Shards: shards})
		bg.publish(b.Topic("t"), 16)
		bg.hs.CrashNow()
		bg.hs.FinalizeCrash(rand.New(rand.NewSource(1)))
		bg.hs.Restart()
		bg.row(fmt.Sprintf("Open, %d-shard topic", shards), 1, func() int { _, err := Open(bg.hs, bg.options()); bg.must(err); return 0 })
	}
	bg.hs = pmem.NewSet(1, pmem.Config{Bytes: 64 << 20, MaxThreads: 3})
	bg.row("Open, blank set", 1, func() int { _, err := Open(bg.hs, bg.options()); bg.must(err); return 0 })
}
