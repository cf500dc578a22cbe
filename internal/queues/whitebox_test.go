package queues

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/pmem"
)

// TestRecoveryIdempotent: recovering, crashing again with no
// intervening operations, and recovering again must yield the same
// state (recovery must not damage its own durable input).
func TestRecoveryIdempotent(t *testing.T) {
	for _, in := range durableQueues() {
		t.Run(in.Name, func(t *testing.T) {
			h := crashHeap(t, 2)
			q := in.New(h, 2)
			for i := uint64(1); i <= 30; i++ {
				q.Enqueue(0, i)
			}
			for i := 0; i < 10; i++ {
				q.Dequeue(1)
			}
			for round := 0; round < 3; round++ {
				h.CrashNow()
				h.FinalizeCrash(rand.New(rand.NewSource(int64(round))))
				h.Restart()
				in.Recover(h, 2)
				// No operations: the durable state must be stable
				// across repeated crash/recover rounds.
			}
			h.CrashNow()
			h.FinalizeCrash(rand.New(rand.NewSource(99)))
			h.Restart()
			rq := in.Recover(h, 2)
			got := drain(rq, 0)
			if len(got) != 20 {
				t.Fatalf("recovered %d items, want 20", len(got))
			}
			for i, v := range got {
				if v != uint64(i+11) {
					t.Fatalf("item %d = %d, want %d", i, v, i+11)
				}
			}
		})
	}
}

// TestFailingDequeuePersistsEmptiness: the paper's Observation about
// failing dequeues — after a completed failing dequeue, a crash must
// recover an EMPTY queue even if the dequeues that emptied it were
// pending at other threads... here single-threaded: dequeues that
// emptied the queue complete, then only the failing dequeue's fence
// may cover them.
func TestFailingDequeuePersistsEmptiness(t *testing.T) {
	for _, in := range durableQueues() {
		t.Run(in.Name, func(t *testing.T) {
			h := crashHeap(t, 2)
			q := in.New(h, 2)
			q.Enqueue(0, 1)
			q.Enqueue(0, 2)
			if _, ok := q.Dequeue(0); !ok {
				t.Fatal("dequeue failed")
			}
			if _, ok := q.Dequeue(0); !ok {
				t.Fatal("dequeue failed")
			}
			if _, ok := q.Dequeue(0); ok {
				t.Fatal("queue should be empty")
			}
			h.CrashNow()
			h.FinalizeCrash(rand.New(zeroSourceQ{})) // minimal eviction
			h.Restart()
			rq := in.Recover(h, 2)
			if v, ok := rq.Dequeue(0); ok {
				t.Fatalf("emptiness lost: recovered %d", v)
			}
		})
	}
}

type zeroSourceQ struct{}

func (zeroSourceQ) Int63() int64 { return 0 }
func (zeroSourceQ) Seed(int64)   {}

// TestSingleItemRecovery exercises the dummy-node boundary: recovery
// of queues holding exactly one item.
func TestSingleItemRecovery(t *testing.T) {
	for _, in := range durableQueues() {
		t.Run(in.Name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				h := crashHeap(t, 2)
				q := in.New(h, 2)
				q.Enqueue(0, 7)
				h.CrashNow()
				h.FinalizeCrash(rand.New(rand.NewSource(seed)))
				h.Restart()
				rq := in.Recover(h, 2)
				v, ok := rq.Dequeue(0)
				if !ok || v != 7 {
					t.Fatalf("seed %d: got (%d,%v), want (7,true)", seed, v, ok)
				}
				if _, ok := rq.Dequeue(0); ok {
					t.Fatal("queue should be empty")
				}
			}
		})
	}
}

// TestZeroAndDuplicateValues: queues must carry the zero value and
// repeated values faithfully.
func TestZeroAndDuplicateValues(t *testing.T) {
	for _, in := range All() {
		t.Run(in.Name, func(t *testing.T) {
			q := in.New(perfHeap(t, 1), 1)
			q.Enqueue(0, 0)
			q.Enqueue(0, 5)
			q.Enqueue(0, 5)
			q.Enqueue(0, 0)
			want := []uint64{0, 5, 5, 0}
			for i, w := range want {
				v, ok := q.Dequeue(0)
				if !ok || v != w {
					t.Fatalf("dequeue %d: got (%d,%v), want (%d,true)", i, v, ok, w)
				}
			}
		})
	}
}

// TestCorrectnessWithFlushRetainsLine: the no-invalidation ablation
// changes performance accounting only, never semantics.
func TestCorrectnessWithFlushRetainsLine(t *testing.T) {
	for _, in := range All() {
		t.Run(in.Name, func(t *testing.T) {
			h := pmem.New(pmem.Config{Bytes: 32 << 20, MaxThreads: 2, FlushRetainsLine: true})
			q := in.New(h, 1)
			for i := uint64(1); i <= 200; i++ {
				q.Enqueue(0, i)
			}
			for i := uint64(1); i <= 200; i++ {
				v, ok := q.Dequeue(0)
				if !ok || v != i {
					t.Fatalf("got (%d,%v), want (%d,true)", v, ok, i)
				}
			}
			if h.TotalStats().PostFlushAccesses != 0 {
				t.Fatal("retain mode must record zero post-flush accesses")
			}
		})
	}
}

// TestOptQueueNTStoreAccounting pins the Section 6.3 mechanics: the
// optimized queues write their per-thread persistent locals only with
// non-temporal stores.
func TestOptQueueNTStoreAccounting(t *testing.T) {
	ou, _ := Lookup("opt-unlinked")
	_, deq, empty := opStats(t, ou)
	// Failing dequeues issue zero NTStores: the empty-poll elision skips
	// the local-index write entirely once the index is durable.
	if deq.NTStores != 100 || empty.NTStores != 0 {
		t.Errorf("opt-unlinked NTStores per 100 deq/empty = %d/%d, want 100/0", deq.NTStores, empty.NTStores)
	}
	ol, _ := Lookup("opt-linked")
	enq, deq2, _ := opStats(t, ol)
	if enq.NTStores != 200 { // lastEnqueues cell: pointer + index words
		t.Errorf("opt-linked enqueue NTStores per 100 ops = %d, want 200", enq.NTStores)
	}
	if deq2.NTStores != 100 {
		t.Errorf("opt-linked dequeue NTStores per 100 ops = %d, want 100", deq2.NTStores)
	}
	// The plain-store ablation pays post-flush accesses instead.
	ps, _ := Lookup("opt-unlinked-plainstore")
	_, deqPS, _ := opStats(t, ps)
	if deqPS.PostFlushAccesses == 0 {
		t.Error("plain-store ablation shows no post-flush accesses; expected some")
	}
}

// TestQuickCrashRecoveryProperty is the randomized (testing/quick)
// counterpart of the exhaustive crash-point tests: a random script,
// crash point and eviction seed must always recover to the completed
// prefix ± the pending operation.
func TestQuickCrashRecoveryProperty(t *testing.T) {
	for _, name := range []string{"unlinked", "linked", "opt-unlinked", "opt-linked"} {
		in, _ := Lookup(name)
		t.Run(name, func(t *testing.T) {
			prop := func(scriptSeed int64, crashAt uint16, evictSeed int64) bool {
				rng := rand.New(rand.NewSource(scriptSeed))
				h := crashHeap(t, 2)
				q := in.New(h, 1)
				var model []uint64
				var pendingEnq *uint64
				pendingDeq := false
				h.ScheduleCrashAtAccess(int64(crashAt%700) + 1)
				next := uint64(1)
				for op := 0; op < 40; op++ {
					enq := rng.Intn(3) < 2
					v := next
					crashed := pmem.Protect(func() {
						if enq {
							q.Enqueue(0, v)
						} else {
							q.Dequeue(0)
						}
					})
					if crashed {
						if enq {
							pendingEnq = &v
						} else {
							pendingDeq = true
						}
						break
					}
					if enq {
						model = append(model, v)
						next++
					} else if len(model) > 0 {
						model = model[1:]
					}
				}
				if !h.Crashed() {
					h.CrashNow()
					pendingEnq, pendingDeq = nil, false
				}
				h.FinalizeCrash(rand.New(rand.NewSource(evictSeed)))
				h.Restart()
				rq := in.Recover(h, 1)
				got := drain(rq, 0)
				if sliceEq(got, model) {
					return true
				}
				alt := append([]uint64(nil), model...)
				if pendingEnq != nil {
					alt = append(alt, *pendingEnq)
				} else if pendingDeq && len(alt) > 0 {
					alt = alt[1:]
				}
				if (pendingEnq != nil || pendingDeq) && sliceEq(got, alt) {
					return true
				}
				t.Logf("script %d crash %d evict %d: got %v, want %v (or %v)", scriptSeed, crashAt, evictSeed, got, model, alt)
				return false
			}
			count := 120
			if raceEnabled {
				count = 25
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: count}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func sliceEq(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestHeavyChurnReuse forces many node recycles through the EBR
// allocator and re-checks FIFO integrity (guards the linked/unlinked
// flag-reset invariants on reuse).
func TestHeavyChurnReuse(t *testing.T) {
	for _, in := range durableQueues() {
		t.Run(in.Name, func(t *testing.T) {
			h := pmem.New(pmem.Config{Bytes: 16 << 20, MaxThreads: 2})
			q := in.New(h, 1)
			next, expect := uint64(1), uint64(1)
			for round := 0; round < 200; round++ {
				for i := 0; i < 50; i++ {
					q.Enqueue(0, next)
					next++
				}
				for i := 0; i < 50; i++ {
					v, ok := q.Dequeue(0)
					if !ok || v != expect {
						t.Fatalf("round %d: got (%d,%v), want (%d,true)", round, v, ok, expect)
					}
					expect++
				}
			}
		})
	}
}

// TestRecoveryReversedSlotOrder recovers a backlog whose slot order is
// the exact reverse of its index order — the queue was drained on tid
// 1, and tid 0 refilled it from the depot chunk tid 1 donated, popping
// addresses from the top down — and demands the state recovery builds
// from a backlog with the same indices in never-recycled, ascending
// slots: the same chain, each node its line's mirror entry, the same
// ack frontier and redelivery set, the same seeded elision cache.
func TestRecoveryReversedSlotOrder(t *testing.T) {
	const drained, backlog, leased = 700, 100, 5
	type recovered struct {
		idxs, vals    []uint64
		lastPersisted []uint64
		ackedTo       uint64
		unackedVals   []uint64
		unackedIdxs   []uint64
	}
	run := func(t *testing.T, acked, recycle bool) recovered {
		h := crashHeap(t, 2)
		q := NewCore[uint64](h, 2, 0, acked, wordCodec{}, nil)
		v := uint64(0)
		fill := func(n int) {
			for i := 0; i < n; i++ {
				v++
				q.Enqueue(0, v)
			}
		}
		consume := func() {
			for i := 0; i < drained; i++ {
				if _, ok := q.Dequeue(1); !ok {
					t.Fatal("queue ran dry during the drain")
				}
			}
		}
		if recycle {
			fill(drained)
			consume()
			fill(backlog)
		} else {
			fill(drained + backlog)
			consume()
		}
		// Slot order of the backlog, along the chain.
		var plines []uint32
		for n := q.head.Load().next.Load(); n != nil; n = n.next.Load() {
			plines = append(plines, n.pline)
		}
		if len(plines) != backlog || !slices.IsSortedFunc(plines, func(a, b uint32) int {
			if recycle {
				a, b = b, a
			}
			return int(a) - int(b)
		}) {
			t.Fatalf("recycle=%v: backlog slots %v are not in the order this test is about", recycle, plines)
		}
		if acked {
			q.DequeueLeased(1, leased) // delivered, never acknowledged
		}
		h.CrashNow()
		h.FinalizeCrash(rand.New(rand.NewSource(1)))
		h.Restart()

		rq := RecoverCore[uint64](h, 2, acked, wordCodec{}, nil)
		var r recovered
		for n := rq.head.Load().next.Load(); n != nil; n = n.next.Load() {
			r.idxs, r.vals = append(r.idxs, n.index), append(r.vals, n.payload)
			if n != rq.nodeAt(0, lineAddr(n.pline)) {
				t.Fatalf("recycle=%v: node with index %d is not its line's mirror entry", recycle, n.index)
			}
		}
		for tid := range rq.per {
			r.lastPersisted = append(r.lastPersisted, rq.per[tid].lastPersisted)
		}
		if acked {
			r.ackedTo = rq.AckedTo()
			rq.DequeueLeased(1, leased)
			r.unackedVals, r.unackedIdxs = rq.Unacked()
		}
		return r
	}
	for _, acked := range []bool{false, true} {
		inOrder, reversed := run(t, acked, false), run(t, acked, true)
		if len(inOrder.idxs) != backlog || inOrder.idxs[0] != drained+1 || !slices.IsSorted(inOrder.idxs) {
			t.Fatalf("acked=%v: in-order recovery chained indices %v", acked, inOrder.idxs)
		}
		if acked && (inOrder.ackedTo != drained || len(inOrder.unackedIdxs) != leased) {
			t.Fatalf("acked=%v: in-order recovery acked to %d with %v unacked", acked, inOrder.ackedTo, inOrder.unackedIdxs)
		}
		if !slices.Equal(inOrder.idxs, reversed.idxs) || !slices.Equal(inOrder.vals, reversed.vals) ||
			!slices.Equal(inOrder.lastPersisted, reversed.lastPersisted) || inOrder.ackedTo != reversed.ackedTo ||
			!slices.Equal(inOrder.unackedVals, reversed.unackedVals) || !slices.Equal(inOrder.unackedIdxs, reversed.unackedIdxs) {
			t.Fatalf("acked=%v: recovery from reversed slots differs from in-order recovery:\n%+v\n%+v", acked, reversed, inOrder)
		}
	}
}
