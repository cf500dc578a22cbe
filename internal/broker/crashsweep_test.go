package broker

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/pmem"
)

// The sweeps below arm a crash at every simulated access of the two
// verbs that fan work out over the heap set — CreateTopic's per-heap
// shard init and Open's per-heap shard recovery — on either member. A
// crash that fires on a fan-out goroutine must come back through the
// caller's pmem.Protect (it used to kill the process), and whatever
// the crash left behind must recover to a consistent broker.

const sweepMsgs = 24

var sweepLate = TopicConfig{Name: "late", Shards: 2, MaxPayload: 100, Acked: true}

// sweepBroker brings up a 2-heap broker holding one fixed and one blob
// topic, each spread over both heaps and loaded with sweepMsgs messages.
func sweepBroker(t *testing.T) (*pmem.HeapSet, *Broker) {
	t.Helper()
	hs := pmem.NewSet(2, pmem.Config{Bytes: 4 << 20, Mode: pmem.ModeCrash, MaxThreads: 3})
	b, err := Open(hs, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []TopicConfig{{Name: "fixed", Shards: 2}, {Name: "blob", Shards: 2, MaxPayload: 100}} {
		tp, err := b.CreateTopic(0, tc)
		if err != nil {
			t.Fatal(err)
		}
		for id := uint64(1); id <= sweepMsgs; id++ {
			p := U64(id)
			if tc.MaxPayload > 0 {
				p = blobPayload(id)
			}
			if err := tp.Publish(0, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return hs, b
}

// sweepAudit drains the two loaded topics of a recovered broker and
// demands exactly the published messages, intact and in shard order.
func sweepAudit(t *testing.T, b *Broker, what string) {
	t.Helper()
	for _, name := range []string{"fixed", "blob"} {
		tp := b.Topic(name)
		if tp == nil {
			t.Fatalf("%s: topic %q lost", what, name)
		}
		seen := 0
		for s := 0; s < tp.Shards(); s++ {
			last := uint64(0)
			for {
				p, ok := tp.DequeueShard(0, s)
				if !ok {
					break
				}
				id := AsU64(p)
				if name == "blob" && !bytes.Equal(p, blobPayload(id)) {
					t.Fatalf("%s: topic %q message %d corrupt", what, name, id)
				}
				if id <= last || id > sweepMsgs {
					t.Fatalf("%s: topic %q shard %d delivered %d after %d", what, name, s, id, last)
				}
				last = id
				seen++
			}
		}
		if seen != sweepMsgs {
			t.Fatalf("%s: topic %q drained %d messages, want %d", what, name, seen, sweepMsgs)
		}
	}
}

// sweepCounts runs f with an unreachable crash armed on both members
// and reports how many accesses it made on each.
func sweepCounts(hs *pmem.HeapSet, f func()) [2]int64 {
	var n [2]int64
	for i := range n {
		hs.Heap(i).ScheduleCrashAtAccess(1 << 60)
		n[i] = hs.Heap(i).AccessCount()
	}
	f()
	for i := range n {
		n[i] = hs.Heap(i).AccessCount() - n[i]
		hs.Heap(i).ScheduleCrashAtAccess(0)
	}
	return n
}

func TestCrashSweepCreateTopic(t *testing.T) {
	hs, b := sweepBroker(t)
	counts := sweepCounts(hs, func() {
		if _, err := b.CreateTopic(1, sweepLate); err != nil {
			t.Fatal(err)
		}
	})
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("CreateTopic touched heaps %v times; the sweep needs both members", counts)
	}
	step := int64(1)
	if raceEnabled {
		step = 5
	}
	for hi, n := range counts {
		for k := int64(1); k <= n; k += step {
			hs, b := sweepBroker(t)
			hs.Heap(hi).ScheduleCrashAtAccess(k)
			if !pmem.Protect(func() { b.CreateTopic(1, sweepLate) }) {
				t.Fatalf("heap %d access %d: CreateTopic finished; the armed crash never reached the caller", hi, k)
			}
			hs.FinalizeCrash(rand.New(rand.NewSource(k)))
			hs.Restart()
			rb, err := Open(hs, Options{})
			if err != nil {
				t.Fatalf("heap %d access %d: recovery failed: %v", hi, k, err)
			}
			// The creation never returned, so it was never acknowledged:
			// it recovers as "never existed" unless the crash fell after
			// its anchor persist, and then it recovers whole and empty.
			if tp := rb.Topic(sweepLate.Name); tp != nil {
				for s := 0; s < tp.Shards(); s++ {
					if _, ok := tp.DequeueShard(0, s); ok {
						t.Fatalf("heap %d access %d: half-created topic holds a message", hi, k)
					}
				}
			} else if _, err := rb.CreateTopic(0, sweepLate); err != nil {
				t.Fatalf("heap %d access %d: re-creation after recovery: %v", hi, k, err)
			}
			if err := rb.Topic(sweepLate.Name).Publish(0, blobPayload(7)); err != nil {
				t.Fatalf("heap %d access %d: publish on the late topic: %v", hi, k, err)
			}
			sweepAudit(t, rb, "after a crashed CreateTopic")
		}
	}
}

// TestCrashSweepOpen sweeps recovery itself. Open's accesses are almost
// all loads of the per-shard slot scans, and a crash at a load leaves
// the state its preceding store left, so the sweep is two-level: every
// sweepStride-th access, and every single access of each stride in
// which Open persisted something (found by the persist counters moving
// between two coarse points).
func TestCrashSweepOpen(t *testing.T) {
	sweepStride, dense := int64(64), true
	if raceEnabled {
		sweepStride, dense = 256, false
	}
	crashed := func() *pmem.HeapSet {
		hs, _ := sweepBroker(t)
		hs.CrashNow()
		hs.FinalizeCrash(rand.New(rand.NewSource(1)))
		hs.Restart()
		return hs
	}
	hs := crashed()
	counts := sweepCounts(hs, func() {
		if _, err := Open(hs, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("Open touched heaps %v times; the sweep needs both members", counts)
	}
	// run crashes Open at access k of heap hi, audits the recovery that
	// follows, and reports how many persist events Open got to issue.
	run := func(hi int, k int64) uint64 {
		hs := crashed()
		before := hs.Heap(hi).TotalStats() // this member's alone: the other's progress is a race
		hs.Heap(hi).ScheduleCrashAtAccess(k)
		if !pmem.Protect(func() { Open(hs, Options{}) }) {
			t.Fatalf("heap %d access %d: Open finished; the armed crash never reached the caller", hi, k)
		}
		d := hs.Heap(hi).TotalStats().Sub(before)
		hs.FinalizeCrash(rand.New(rand.NewSource(k)))
		hs.Restart()
		rb, err := Open(hs, Options{})
		if err != nil {
			t.Fatalf("heap %d access %d: recovery after a crashed recovery failed: %v", hi, k, err)
		}
		sweepAudit(t, rb, "after a crashed Open")
		return d.Stores + d.NTStores + d.Flushes + d.Fences
	}
	for hi, n := range counts {
		prevK, prevW := int64(0), uint64(0)
		for k := int64(1); ; k = min(k+sweepStride, n) {
			if w := run(hi, k); w != prevW {
				for kk := prevK + 1; dense && kk < k; kk++ {
					run(hi, kk)
				}
				prevW = w
			}
			if prevK = k; k == n {
				break
			}
		}
	}
}
