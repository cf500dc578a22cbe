package queues

import (
	"math/rand"
	"testing"
)

// TestAckedLeaseRedelivery pins the ack-mode contract at queue level:
// leased-but-unacknowledged items are redelivered by recovery exactly
// once, acknowledged items never reappear, and the backlog survives
// untouched.
func TestAckedLeaseRedelivery(t *testing.T) {
	h := crashHeap(t, 2)
	q := NewOptUnlinkedQAcked(h, 2)
	for i := uint64(1); i <= 20; i++ {
		q.Enqueue(0, i)
	}
	// Lease the first 10 items, acknowledge only the first 6.
	vs, idxs := q.DequeueLeased(1, 10)
	if len(vs) != 10 {
		t.Fatalf("leased %d items, want 10", len(vs))
	}
	for i, v := range vs {
		if v != uint64(i+1) || idxs[i] != uint64(i+1) {
			t.Fatalf("leased item %d = (%d,%d), want (%d,%d)", i, v, idxs[i], i+1, i+1)
		}
	}
	q.AckTo(1, idxs[5])
	if got := q.AckedTo(); got != 6 {
		t.Fatalf("AckedTo = %d, want 6", got)
	}
	if uv, ui := q.Unacked(); len(uv) != 4 || uv[0] != 7 || ui[0] != 7 {
		t.Fatalf("Unacked = %v at %v, want items 7..10", uv, ui)
	}

	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(1)))
	h.Restart()
	rq := RecoverOptUnlinkedQAcked(h, 2)

	// Items 7..20 must come back in order: the unacked leased suffix
	// (7..10) redelivered, the backlog (11..20) intact, 1..6 gone.
	for want := uint64(7); want <= 20; want++ {
		v, ok := rq.Dequeue(0)
		if !ok || v != want {
			t.Fatalf("recovered dequeue = (%d,%v), want (%d,true)", v, ok, want)
		}
	}
	if _, ok := rq.Dequeue(0); ok {
		t.Fatal("recovered queue should be empty after the redelivered suffix")
	}
}

// TestAckedFenceAccounting pins the amortized ack cost: a leased
// dequeue batch issues zero persist instructions, an acknowledgment of
// the whole batch exactly one NTStore plus one fence, and a redundant
// acknowledgment nothing at all.
func TestAckedFenceAccounting(t *testing.T) {
	h := perfHeap(t, 1)
	q := NewOptUnlinkedQAcked(h, 1)
	for i := 0; i < 300; i++ { // warm the pool past area creation
		q.Enqueue(0, uint64(i))
		q.Dequeue(0)
	}
	const n = 64
	for i := 0; i < n; i++ {
		q.Enqueue(0, uint64(1000+i))
	}

	before := h.TotalStats()
	vs, idxs := q.DequeueLeased(0, n)
	d := h.TotalStats().Sub(before)
	if len(vs) != n {
		t.Fatalf("leased %d items, want %d", len(vs), n)
	}
	if d.Fences != 0 || d.NTStores != 0 || d.Flushes != 0 {
		t.Fatalf("leased dequeue of %d issued fences=%d ntstores=%d flushes=%d, want 0/0/0",
			n, d.Fences, d.NTStores, d.Flushes)
	}

	before = h.TotalStats()
	q.AckTo(0, idxs[n-1])
	d = h.TotalStats().Sub(before)
	if d.Fences != 1 || d.NTStores != 1 {
		t.Fatalf("ack of a %d-item batch issued fences=%d ntstores=%d, want 1/1", n, d.Fences, d.NTStores)
	}

	before = h.TotalStats()
	q.AckTo(0, idxs[n-1]) // redundant: already durably acked
	q.AckTo(0, idxs[0])
	d = h.TotalStats().Sub(before)
	if d.Fences != 0 || d.NTStores != 0 {
		t.Fatalf("redundant acks issued fences=%d ntstores=%d, want 0/0", d.Fences, d.NTStores)
	}

	// Failing leased dequeues are entirely free.
	before = h.TotalStats()
	for i := 0; i < 100; i++ {
		if vs, _ := q.DequeueLeased(0, 8); len(vs) != 0 {
			t.Fatal("queue should be empty")
		}
	}
	d = h.TotalStats().Sub(before)
	if d.Fences != 0 || d.NTStores != 0 || d.Flushes != 0 {
		t.Fatalf("100 empty leased dequeues issued fences=%d ntstores=%d flushes=%d, want 0/0/0",
			d.Fences, d.NTStores, d.Flushes)
	}
}

// TestAckedRecoveryModeGuard: recovering a queue with the wrong mode
// variant must be refused loudly, never silently mis-scan (plain
// recovery would take the never-written head lines as the frontier and
// resurrect acknowledged items).
func TestAckedRecoveryModeGuard(t *testing.T) {
	h := crashHeap(t, 2)
	q := NewOptUnlinkedQAcked(h, 2)
	q.Enqueue(0, 1)
	q.Dequeue(0)
	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(2)))
	h.Restart()
	mustPanic(t, "plain recovery of an acked queue", func() { RecoverOptUnlinkedQ(h, 2) })

	h2 := crashHeap(t, 2)
	q2 := NewOptUnlinkedQ(h2, 2)
	q2.Enqueue(0, 1)
	h2.CrashNow()
	h2.FinalizeCrash(rand.New(rand.NewSource(3)))
	h2.Restart()
	mustPanic(t, "acked recovery of a plain queue", func() { RecoverOptUnlinkedQAcked(h2, 2) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestAckedUnfencedMonotone: within one unfenced window, an
// out-of-order (lower) ack must not overwrite a higher NTStored ack
// index — CompleteAck promotes and retires to the higher index, so a
// regressed line would let recovery resurrect acknowledged items.
func TestAckedUnfencedMonotone(t *testing.T) {
	h := crashHeap(t, 1)
	q := NewOptUnlinkedQAcked(h, 1)
	for i := uint64(1); i <= 12; i++ {
		q.Enqueue(0, i)
	}
	_, idxs := q.DequeueLeased(0, 12)
	q.AckToUnfenced(0, idxs[11])
	q.AckToUnfenced(0, idxs[10]) // lower: must not regress the line
	h.Fence(0)
	q.CompleteAck(0)
	if got := q.AckedTo(); got != 12 {
		t.Fatalf("AckedTo = %d, want 12", got)
	}
	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(9)))
	h.Restart()
	rq := RecoverOptUnlinkedQAcked(h, 1)
	if v, ok := rq.Dequeue(0); ok {
		t.Fatalf("acknowledged item %d resurrected after out-of-order unfenced ack", v)
	}
}

// TestAckedHeadOutlivesItsAck builds the one order in which an
// acknowledgment covers the queue's head before anything older: tid 0
// has CASed 129 items off the head but not yet filed them in the
// in-flight list when tid 1 leases the next item and files it first.
// Acknowledging it retires 130 nodes in one CompleteAck, enough for
// two epoch advances, so the first one's slot is back on tid 1's free
// list before the loop ends, and the 64 enqueues that follow reach it.
// That node is still the head: its mirror entry must not be reused
// until a dequeue moves past it, or the enqueue that reuses it
// overwrites the queue's dummy and the items behind it are lost.
func TestAckedHeadOutlivesItsAck(t *testing.T) {
	q := NewOptUnlinkedQAcked(perfHeap(t, 2), 2)
	for i := uint64(1); i <= 130; i++ {
		q.Enqueue(0, i)
	}
	q.pool.Enter(0)
	var taken []*node[uint64]
	for len(taken) < 129 {
		n, _, ok := q.dequeueOne(0)
		if !ok {
			t.Fatal("queue ran dry")
		}
		taken = append(taken, n)
	}
	q.pool.Exit(0)
	if vs, idxs := q.DequeueLeased(1, 1); len(vs) != 1 || vs[0] != 130 {
		t.Fatalf("tid 1 leased %v, want [130]", vs)
	} else {
		q.inflight = append(q.inflight, taken...) // tid 0 files its batch
		q.AckTo(1, idxs[0])
	}
	for i := uint64(131); i <= 194; i++ {
		q.Enqueue(1, i)
	}
	for want := uint64(131); want <= 194; want++ {
		vs, idxs := q.DequeueLeased(1, 1)
		if len(vs) != 1 || vs[0] != want {
			t.Fatalf("leased %v, want [%d]", vs, want)
		}
		q.AckTo(1, idxs[0])
	}
	if vs, _ := q.DequeueLeased(1, 1); len(vs) != 0 {
		t.Fatalf("leased %v from a queue that should be empty", vs)
	}
}
