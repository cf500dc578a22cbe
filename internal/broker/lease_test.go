package broker

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pmem"
)

// TestLeasePackUnpackRoundTrip: packLease/unpackLease are inverse for
// every representable lease (property-based, mirroring the catalog's
// encoding discipline).
func TestLeasePackUnpackRoundTrip(t *testing.T) {
	prop := func(active bool, owner uint16, lo, hi, deadline, seq, epoch uint64) bool {
		in := Lease{
			Active: active, Owner: int(owner),
			Lo: lo, Hi: hi, Deadline: deadline, Seq: seq, Epoch: epoch,
		}
		out, ok := unpackLease(packLease(in))
		return ok && out == in
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseEpochCompat: lease lines written before the epoch word
// existed (v<=4 regions packed w5 as zero) must decode as epoch 0
// without any format bump — the checksum always covered the spare
// word, so a pre-epoch line is bit-identical to a current line with
// Epoch 0.
func TestLeaseEpochCompat(t *testing.T) {
	prop := func(active bool, owner uint16, lo, hi, deadline, seq uint64) bool {
		// A v<=4 writer packed exactly these words with w5 = 0.
		legacy := packLease(Lease{
			Active: active, Owner: int(owner),
			Lo: lo, Hi: hi, Deadline: deadline, Seq: seq,
		})
		if legacy[5] != 0 {
			return false
		}
		out, ok := unpackLease(legacy)
		return ok && out.Epoch == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// And the all-zero virgin line stays a valid empty epoch-0 lease.
	if l, ok := unpackLease([8]uint64{}); !ok || l.Epoch != 0 || l != (Lease{}) {
		t.Fatalf("virgin line decoded as (%+v, %v), want empty epoch-0 lease", l, ok)
	}
}

// TestLeaseLineTornWriteDetected: flipping any single word of a packed
// lease line — the shape of a torn or corrupted line — must fail the
// checksum, and an all-zero (virgin) line must decode as the valid
// empty lease.
func TestLeaseLineTornWriteDetected(t *testing.T) {
	if l, ok := unpackLease([8]uint64{}); !ok || l != (Lease{}) {
		t.Fatalf("virgin line decoded as (%+v, %v), want empty lease", l, ok)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		w := packLease(Lease{
			Active: true, Owner: rng.Intn(64),
			Lo: rng.Uint64() >> 1, Hi: rng.Uint64() >> 1,
			Deadline: rng.Uint64(), Seq: rng.Uint64(),
			// Nonzero epochs must not weaken torn-line detection: the
			// checksum covers w5 like every other payload word.
			Epoch: rng.Uint64(),
		})
		i := rng.Intn(8)
		delta := rng.Uint64() | 1
		w[i] ^= delta
		if _, ok := unpackLease(w); ok {
			// Make sure this is not the (astronomically unlikely, but
			// then deterministic) case of a genuine checksum collision.
			t.Fatalf("trial %d: corrupting word %d by %#x went undetected", trial, i, delta)
		}
	}
}

// TestLeaseRegionErrors: a catalog whose lease region is missing,
// foreign or truncated must fail Open with an error — never a
// panic, never a silent mis-scan of another group's leases.
func TestLeaseRegionErrors(t *testing.T) {
	newCrashed := func(t *testing.T) *pmem.Heap {
		t.Helper()
		h := pmem.New(pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4})
		b, err := newBroker(pmem.NewSetOf(h), Options{Threads: 2}, twoAckedTopics(), 2)
		if err != nil {
			t.Fatal(err)
		}
		b.Topic("events").Publish(0, U64(1))
		h.CrashNow()
		h.FinalizeCrash(rand.New(rand.NewSource(51)))
		h.Restart()
		return h
	}
	// The lease anchors sit in the slots after the 8 shard windows:
	// slots 1..64 hold the shards, 65 and 66 the two regions.
	leaseSlot := 1 + 8*slotsPerShard
	expectErr := func(t *testing.T, h *pmem.Heap, what string) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: Open panicked: %v", what, r)
			}
		}()
		if _, err := Open(pmem.NewSetOf(h), Options{Threads: 2}); !errors.Is(err, pmem.ErrCorrupt) {
			t.Fatalf("%s: Open returned %v, want an error wrapping pmem.ErrCorrupt", what, err)
		}
	}

	t.Run("intact baseline", func(t *testing.T) {
		h := newCrashed(t)
		r, err := Open(pmem.NewSetOf(h), Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(r.regions); n != 2 {
			t.Fatalf("recovered %d lease regions, want 2", n)
		}
		if p, ok := r.Topic("events").DequeueShard(0, 0); !ok || AsU64(p) != 1 {
			t.Fatalf("recovered event = %v,%v", p, ok)
		}
	})
	t.Run("missing region", func(t *testing.T) {
		h := newCrashed(t)
		h.Store(0, h.RootAddr(leaseSlot), 0) // blank anchor
		expectErr(t, h, "missing region")
	})
	t.Run("foreign magic", func(t *testing.T) {
		h := newCrashed(t)
		reg := pmem.Addr(h.Load(0, h.RootAddr(leaseSlot)))
		h.Store(0, reg, 0xfeedface)
		expectErr(t, h, "foreign magic")
	})
	t.Run("wrong group index", func(t *testing.T) {
		h := newCrashed(t)
		reg := pmem.Addr(h.Load(0, h.RootAddr(leaseSlot)))
		h.Store(0, reg+16, 9) // region claims to belong to group 9
		expectErr(t, h, "wrong group index")
	})
	t.Run("wrong shard total", func(t *testing.T) {
		h := newCrashed(t)
		reg := pmem.Addr(h.Load(0, h.RootAddr(leaseSlot)))
		h.Store(0, reg+8, 3)
		expectErr(t, h, "wrong shard total")
	})
	t.Run("region truncated at heap end", func(t *testing.T) {
		h := newCrashed(t)
		// Re-anchor the region to the last line: the body would run off
		// the end of the heap; the reader's range check must error.
		tail := pmem.Addr(h.Bytes()) - pmem.CacheLineBytes
		h.Store(0, tail, leaseMagic)
		h.Store(0, tail+8, 8) // shardTotal
		h.Store(0, tail+16, 0)
		h.Store(0, h.RootAddr(leaseSlot), uint64(tail))
		expectErr(t, h, "truncated region")
	})
	t.Run("anchor near uint64 wraparound", func(t *testing.T) {
		h := newCrashed(t)
		h.Store(0, h.RootAddr(leaseSlot), ^uint64(0)-7)
		expectErr(t, h, "wraparound anchor")
	})
	t.Run("absurd ack-group count", func(t *testing.T) {
		h := newCrashed(t)
		cat := pmem.Addr(h.Load(0, h.RootAddr(slotAnchor)))
		h.Store(0, cat+48, 1<<40)
		expectErr(t, h, "absurd ack-group count")
	})
}

// TestTornLeaseLineToleratedAtBind: a lease line torn by a crash
// mid-write must not poison the group binding — it is surfaced as a
// recovered (zero) lease and cleared, because the acked-index lines,
// not the leases, decide what recovery redelivers.
func TestTornLeaseLineToleratedAtBind(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 2})
	b, err := newBroker(pmem.NewSetOf(h), Options{Threads: 2}, twoAckedTopics(), 1)
	if err != nil {
		t.Fatal(err)
	}
	clk := &logicalClock{}
	g, err := b.NewGroupAcked([]string{"events", "jobs"}, 1, LeaseConfig{TTL: 10, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 16; i++ {
		b.Topic("events").Publish(0, U64(i))
	}
	g.Consumer(0).PollBatch(1, 8) // in-flight window with live leases
	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(52)))
	h.Restart()

	r, err := Open(pmem.NewSetOf(h), Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Tear the first shard's lease line by hand: corrupt one word.
	leaseSlot := 1 + 8*slotsPerShard
	reg := pmem.Addr(h.Load(0, h.RootAddr(leaseSlot)))
	h.Store(0, reg+pmem.CacheLineBytes+24, 0xdeadbeef)
	g2, err := r.NewGroupAcked([]string{"events", "jobs"}, 1, LeaseConfig{TTL: 10, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	// The torn line surfaces as a recovered zero lease, and the full
	// backlog (nothing was ever acked) drains exactly once.
	if len(g2.RecoveredLeases()) == 0 {
		t.Fatal("torn lease line not surfaced at bind")
	}
	got := map[uint64]int{}
	c := g2.Consumer(0)
	for {
		ms := c.PollBatch(1, 8)
		if len(ms) == 0 {
			break
		}
		for _, m := range ms {
			got[AsU64(m.Payload[:8])]++
		}
		c.Ack(1)
	}
	if len(got) != 16 {
		t.Fatalf("drained %d distinct messages, want 16", len(got))
	}
	for id, n := range got {
		if n != 1 {
			t.Fatalf("message %d delivered %d times", id, n)
		}
	}
}
