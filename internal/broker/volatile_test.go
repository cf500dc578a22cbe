package broker

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/pmem"
)

// volatileBroker is the fixture of this file's tests: one heap, thread
// ids 0 (producer) and 1 (consumer), the given topics and one lease
// region.
func volatileBroker(t *testing.T, mode pmem.Mode, topics ...TopicConfig) (*pmem.HeapSet, *Broker) {
	t.Helper()
	hs := pmem.NewSet(1, pmem.Config{Bytes: 64 << 20, Mode: mode, MaxThreads: 2})
	b, err := newBroker(hs, Options{Threads: 2}, topics, 1)
	if err != nil {
		t.Fatal(err)
	}
	return hs, b
}

// heapGrowth runs warm, settles the collector, runs steady and reports
// how much live Go heap steady left behind (negative reads as zero).
// keep is what both work on: it must outlive the second collection, or
// whatever it retains is garbage by then and reads as no growth.
func heapGrowth(keep any, warm, steady func()) uint64 {
	var before, after runtime.MemStats
	warm()
	runtime.GC()
	runtime.ReadMemStats(&before)
	steady()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	if after.HeapAlloc < before.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - before.HeapAlloc
}

// allocBytesPer runs f, which handles n messages, and reports the Go
// heap bytes it allocated per message.
func allocBytesPer(n int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestNarrowAfterWidePollRetainsNothing is the broker's reach into the
// leak queues.TestNarrowAfterWidePollRetainsNothing pins — one wide
// PollBatch, then narrow polls for ever after — and the same rule for
// the scratch a Consumer reuses: between calls a member pins no
// payload. At 56 bytes a message (node and payload copy) a broker that
// keeps them grows by 56 MB over the million messages; the budget is
// 1 MiB.
func TestNarrowAfterWidePollRetainsNothing(t *testing.T) {
	n := 1_000_000
	if raceEnabled {
		n = 50_000
	}
	wide := make([][]byte, 64)
	for i := range wide {
		wide[i] = U64(uint64(i))
	}
	one := U64(7)
	check := func(t *testing.T, grew uint64, what string) {
		t.Helper()
		if grew >= 1<<20 {
			t.Fatalf("Go heap grew %d bytes over %d %s after one wide poll, want < 1 MiB", grew, n, what)
		}
	}
	t.Run("plain", func(t *testing.T) {
		_, b := volatileBroker(t, pmem.ModePerf, TopicConfig{Name: "t", Shards: 1})
		g, err := b.NewGroup([]string{"t"}, 1)
		if err != nil {
			t.Fatal(err)
		}
		topic, c := b.Topic("t"), g.Consumer(0)
		check(t, heapGrowth(b, func() {
			topic.PublishBatch(0, wide)
			if got := len(c.PollBatch(1, len(wide))); got != len(wide) {
				t.Fatalf("wide poll delivered %d, want %d", got, len(wide))
			}
		}, func() {
			for i := 0; i < n; i++ {
				topic.Publish(0, one)
				if _, ok := c.Poll(1); !ok {
					t.Fatal("Poll found the topic empty")
				}
			}
		}), "Publish/Poll pairs")
	})
	t.Run("leased", func(t *testing.T) {
		_, b := volatileBroker(t, pmem.ModePerf, TopicConfig{Name: "t", Shards: 1, Acked: true})
		g, err := b.NewGroupAcked([]string{"t"}, 1, LeaseConfig{})
		if err != nil {
			t.Fatal(err)
		}
		topic, c := b.Topic("t"), g.Consumer(0)
		round := func(batch [][]byte) {
			topic.PublishBatch(0, batch)
			if got := len(c.PollBatch(1, len(batch))); got != len(batch) {
				t.Fatalf("leased poll delivered %d, want %d", got, len(batch))
			}
			if acked, err := c.Ack(1); err != nil || acked != len(batch) {
				t.Fatalf("Ack = %d, %v, want %d", acked, err, len(batch))
			}
		}
		single := [][]byte{one}
		check(t, heapGrowth(b, func() { round(wide) }, func() {
			for i := 0; i < n; i++ {
				round(single)
			}
		}), "PublishBatch(1)/PollBatch(1)/Ack rounds")
	})
}

// TestDeliveredPayloadIsPrivate pins what a delivered payload may share
// with anything else, on fixed topics (eight-byte views carved from a
// chunk) and blob topics (one copy each), for messages delivered by the
// broker that took them and by the one Open recovers after a crash:
// nothing of the publisher's buffers, which callers reuse for the next
// batch; nothing a consumer could reach by appending to a neighbour;
// and nothing later traffic overwrites.
func TestDeliveredPayloadIsPrivate(t *testing.T) {
	const n = 32 // messages examined
	for _, tc := range []struct {
		name    string
		topic   TopicConfig
		payload func(id uint64) []byte
	}{
		{"fixed", TopicConfig{Name: "t", Shards: 2}, U64},
		{"blob", TopicConfig{Name: "t", Shards: 2, MaxPayload: 128}, blobPayload},
	} {
		for _, crash := range []bool{false, true} {
			name := tc.name
			if crash {
				name += "-recovered"
			}
			t.Run(name, func(t *testing.T) {
				hs, b := volatileBroker(t, pmem.ModeCrash, tc.topic)
				// The benchmark's habit: one set of buffers, refilled for
				// every batch once PublishBatch has returned.
				bufs := make([][]byte, 8)
				for id := uint64(0); id < n; {
					for i := range bufs {
						bufs[i] = append(bufs[i][:0], tc.payload(id)...)
						id++
					}
					if err := b.Topic("t").PublishBatch(0, bufs); err != nil {
						t.Fatal(err)
					}
					for _, buf := range bufs {
						for i := range buf {
							buf[i] = 0xee
						}
					}
				}
				if crash {
					hs.CrashNow()
					hs.FinalizeCrash(rand.New(rand.NewSource(3)))
					hs.Restart()
					var err error
					if b, err = Open(hs, Options{Threads: 2}); err != nil {
						t.Fatal(err)
					}
				}
				g, err := b.NewGroup([]string{"t"}, 1)
				if err != nil {
					t.Fatal(err)
				}
				c := g.Consumer(0)
				var kept []Message
				for len(kept) < n {
					ms := c.PollBatch(1, 5)
					if len(ms) == 0 {
						t.Fatalf("topic ran dry after %d of %d messages", len(kept), n)
					}
					kept = append(kept, ms...)
				}
				intact := func(when string) {
					t.Helper()
					seen := map[uint64]bool{}
					for _, m := range kept {
						id := AsU64(m.Payload[:8])
						if id >= n || seen[id] || !bytes.Equal(m.Payload, tc.payload(id)) {
							t.Fatalf("%s: delivered payload %x (id %d) is not what was published", when, m.Payload, id)
						}
						seen[id] = true
					}
				}
				intact("after the publisher overwrote its buffers")
				for _, m := range kept {
					if tc.topic.MaxPayload == 0 && cap(m.Payload) != len(m.Payload) {
						t.Fatalf("fixed payload has capacity %d beyond its %d bytes: an append reaches the next message", cap(m.Payload), len(m.Payload))
					}
					_ = append(m.Payload, 0xff)
				}
				intact("after appending to every delivered payload")
				for i := 0; i < 10_000; i += len(bufs) {
					for j := range bufs {
						bufs[j] = append(bufs[j][:0], tc.payload(uint64(n+i+j))...)
					}
					if err := b.Topic("t").PublishBatch(0, bufs); err != nil {
						t.Fatal(err)
					}
					if got := len(c.PollBatch(1, len(bufs))); got != len(bufs) {
						t.Fatalf("later traffic: poll delivered %d, want %d", got, len(bufs))
					}
				}
				intact("after 10000 later messages")
			})
		}
	}
}

// TestPublishPollAllocs pins the Go allocations of the data plane's
// verb rounds beside their fence pins, next to
// TestPublishPollBatchAllocs. Volatile nodes are their slots' mirror
// entries, fixed payload copies are carved from chunks — one
// allocation per 256 messages, which AllocsPerRun's whole-number
// average rounds away — and a Consumer reuses its scratch, so what is
// left is named row by row.
// Ceilings, so data-plane work can only lower them.
func TestPublishPollAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		topic   TopicConfig
		leased  bool
		batch   int // 0: Publish + Poll
		payload int
		max     float64
	}{
		// Nothing: Poll returns its one Message by value. (3 before.)
		{name: "fixed Publish+Poll", topic: TopicConfig{Shards: 4}, payload: 8, max: 0},
		// Nothing: a leased Poll returns its one Message by value too. (1
		// before: the one-element []Message of PollBatch(tid, 1).)
		{name: "fixed acked Publish+leased Poll+Ack", topic: TopicConfig{Shards: 4, Acked: true}, leased: true, payload: 8, max: 0},
		// The returned []Message. (37 before.)
		{name: "fixed acked PublishBatch(8)+leased PollBatch(8)+Ack", topic: TopicConfig{Shards: 4, Acked: true}, leased: true, batch: 8, payload: 8, max: 1},
		// The returned []Message and blobq's one payload copy per message.
		// (37 before.)
		{name: "blob acked 1 KiB PublishBatch(8)+leased PollBatch(8)+Ack", topic: TopicConfig{Shards: 4, Acked: true, MaxPayload: 1024}, leased: true, batch: 8, payload: 1024, max: 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.topic.Name = "t"
			_, b := volatileBroker(t, pmem.ModePerf, tc.topic)
			var g *Group
			var err error
			if tc.leased {
				g, err = b.NewGroupAcked([]string{"t"}, 1, LeaseConfig{})
			} else {
				g, err = b.NewGroup([]string{"t"}, 1)
			}
			if err != nil {
				t.Fatal(err)
			}
			topic, c := b.Topic("t"), g.Consumer(0)
			batch := make([][]byte, max(tc.batch, 1))
			for i := range batch {
				batch[i] = make([]byte, tc.payload)
			}
			round := func() {
				if tc.batch == 0 {
					topic.Publish(0, batch[0])
					c.Poll(1)
				} else {
					topic.PublishBatch(0, batch)
					c.PollBatch(1, tc.batch)
				}
				if tc.leased {
					c.Ack(1)
				}
			}
			for i := 0; i < 2000; i++ { // past pool and slice growth
				round()
			}
			if got := testing.AllocsPerRun(500, round); got > tc.max {
				t.Fatalf("%s = %v allocs, want <= %v", tc.name, got, tc.max)
			}
		})
	}
}
