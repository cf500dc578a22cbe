package broker

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pmem"
)

// The sweeps below arm a crash at every simulated access of a
// persisting verb on either member: the three single-goroutine catalog
// verbs (sweepVerb: CreateTopic, DeleteTopic, CompactCatalog) and Open.
// CreateTopic's per-heap shard init and Open's per-heap shard recovery
// fan work out over the heap set; a crash that fires on a fan-out
// goroutine must come back through the caller's pmem.Protect (it used
// to kill the process), and whatever the crash left behind must
// recover to a consistent broker.

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

// sweepAudit drains the named loaded topics of a recovered broker and
// demands exactly the published messages, intact and in shard order.
func sweepAudit(t *testing.T, b *Broker, what string, names ...string) {
	t.Helper()
	for _, name := range names {
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

// sweepCounts runs f with an unreachable crash armed on every member
// and reports how many accesses it made on each.
func sweepCounts(hs *pmem.HeapSet, f func()) []int64 {
	n := make([]int64, hs.Len())
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

// cutBeforeCommit runs the call fresh returns on the set fresh built,
// with power cut at the call's next-to-last heap-0 access: the
// single-word NTStore of a commit stamp or an anchor flip, ahead of the
// fence that ends the call. A dry run on a second set from fresh counts
// the accesses, so fresh must build the same image each time. It fails
// t if the call finishes, and returns the crashed set.
func cutBeforeCommit(t *testing.T, fresh func() (*pmem.HeapSet, func())) *pmem.HeapSet {
	t.Helper()
	hs, call := fresh()
	n := sweepCounts(hs, call)[0]
	hs, call = fresh()
	hs.Heap(0).ScheduleCrashAtAccess(n - 1)
	if !pmem.Protect(call) {
		t.Fatal("the call finished; the crash armed at its commit never reached it")
	}
	return hs
}

// verbSweep is one row of the per-verb crash sweep.
type verbSweep struct {
	// prep, when set, puts a fresh sweepBroker into the state the verb
	// starts from.
	prep func(t *testing.T, b *Broker)
	// verb is the call that loses power.
	verb func(b *Broker) error
	// fanOut says the verb must touch both members for the sweep to
	// mean anything.
	fanOut bool
	// check audits the broker recovered from a cut call. The call never
	// returned, so it was never acknowledged: either outcome is legal,
	// a mixture is not. gen is the catalog generation the call started
	// from.
	check func(t *testing.T, rb *Broker, gen uint64, what string)
}

// sweepVerb cuts power at every access the verb makes (every 5th under
// -race) on either member: the crash must surface at the caller's
// Protect, Open must recover, and the row's check must hold.
func sweepVerb(t *testing.T, name string, v verbSweep) {
	fresh := func() (*pmem.HeapSet, *Broker) {
		hs, b := sweepBroker(t)
		if v.prep != nil {
			v.prep(t, b)
		}
		return hs, b
	}
	hs, b := fresh()
	counts := sweepCounts(hs, func() {
		if err := v.verb(b); err != nil {
			t.Fatal(err)
		}
	})
	if counts[0] == 0 || v.fanOut && counts[1] == 0 {
		t.Fatalf("%s touched heaps %v times; the sweep needs heap 0 (both members: %v)", name, counts, v.fanOut)
	}
	step := int64(1)
	if raceEnabled {
		step = 5
	}
	for hi, n := range counts {
		// The last access is always visited: the commit persist is there.
		for k := int64(1); n > 0; k = min(k+step, n) {
			what := fmt.Sprintf("%s cut at heap %d access %d", name, hi, k)
			hs, b := fresh()
			gen := b.CatalogGeneration()
			hs.Heap(hi).ScheduleCrashAtAccess(k)
			if !pmem.Protect(func() { v.verb(b) }) {
				t.Fatalf("%s: the call finished; the armed crash never reached the caller", what)
			}
			hs.FinalizeCrash(rand.New(rand.NewSource(k)))
			hs.Restart()
			rb, err := Open(hs, Options{})
			if err != nil {
				t.Fatalf("%s: recovery failed: %v", what, err)
			}
			v.check(t, rb, gen, what)
			if k == n {
				break
			}
		}
	}
	t.Logf("%s: swept %v accesses", name, counts)
}

// sweepRecreate demands that tc, when the recovered broker does not
// hold it, can be created again — in exactly the windows held, when
// those are given — and either way is empty and takes a publish.
func sweepRecreate(t *testing.T, rb *Broker, tc TopicConfig, held []shardLoc, what string) {
	t.Helper()
	if rb.Topic(tc.Name) == nil {
		tp, err := rb.CreateTopic(0, tc)
		if err != nil {
			t.Fatalf("%s: re-creation of %q after recovery: %v", what, tc.Name, err)
		}
		if held != nil && !slices.Equal(tp.locs, held) {
			t.Fatalf("%s: re-created %q took windows %v, want the freed %v", what, tc.Name, tp.locs, held)
		}
	}
	tp := rb.Topic(tc.Name)
	for s := 0; s < tp.Shards(); s++ {
		if _, ok := tp.DequeueShard(0, s); ok {
			t.Fatalf("%s: topic %q holds a message nobody published", what, tc.Name)
		}
	}
	if err := tp.Publish(0, blobPayload(7)); err != nil {
		t.Fatalf("%s: publish on %q: %v", what, tc.Name, err)
	}
}

func TestCrashSweepCreateTopic(t *testing.T) {
	sweepVerb(t, "CreateTopic", verbSweep{
		verb:   func(b *Broker) error { _, err := b.CreateTopic(1, sweepLate); return err },
		fanOut: true,
		// It recovers as "never existed" unless the crash fell after
		// its anchor persist, and then it recovers whole and empty.
		check: func(t *testing.T, rb *Broker, _ uint64, what string) {
			sweepRecreate(t, rb, sweepLate, nil, what)
			sweepAudit(t, rb, what, "fixed", "blob")
		},
	})
}

func TestCrashSweepDeleteTopic(t *testing.T) {
	victim := TopicConfig{Name: "blob", Shards: 2, MaxPayload: 100}
	var held []shardLoc
	sweepVerb(t, "DeleteTopic", verbSweep{
		prep: func(t *testing.T, b *Broker) { held = b.Topic(victim.Name).locs },
		verb: func(b *Broker) error { return b.DeleteTopic(1, victim.Name) },
		// The victim is either whole with every message, or gone — and
		// then its windows are free again, for its re-creation to take.
		check: func(t *testing.T, rb *Broker, _ uint64, what string) {
			if rb.Topic(victim.Name) != nil {
				sweepAudit(t, rb, what, "fixed", victim.Name)
				return
			}
			sweepRecreate(t, rb, victim, held, what)
			sweepAudit(t, rb, what, "fixed")
		},
	})
}

func TestCrashSweepCompactCatalog(t *testing.T) {
	var held []shardLoc
	sweepVerb(t, "CompactCatalog", verbSweep{
		// Tombstone debris for the new generation to drop, and freed
		// windows it must keep free.
		prep: func(t *testing.T, b *Broker) {
			tp, err := b.CreateTopic(0, sweepLate)
			if err != nil {
				t.Fatal(err)
			}
			held = tp.locs
			if err := b.DeleteTopic(0, sweepLate.Name); err != nil {
				t.Fatal(err)
			}
		},
		verb: func(b *Broker) error { return b.CompactCatalog(1, 0) },
		// Exactly one generation recovers, the old or the new, and in
		// both the deleted topic stays deleted and its windows are free:
		// the new generation drops the tombstone, and free slots are
		// what the live windows leave, so the re-creation takes them.
		check: func(t *testing.T, rb *Broker, gen uint64, what string) {
			got := rb.CatalogGeneration()
			if got != gen && got != gen+1 {
				t.Fatalf("%s: recovered catalog generation %d, want %d or %d", what, got, gen, gen+1)
			}
			if rb.Topic(sweepLate.Name) != nil {
				t.Fatalf("%s: deleted topic %q resurrected", what, sweepLate.Name)
			}
			sweepRecreate(t, rb, sweepLate, held, what)
			sweepAudit(t, rb, what, "fixed", "blob")
		},
	})
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
		sweepAudit(t, rb, "after a crashed Open", "fixed", "blob")
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
