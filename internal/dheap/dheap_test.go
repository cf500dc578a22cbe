package dheap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/pmem"
)

func newHeap(mode pmem.Mode, threads int) *pmem.Heap {
	return pmem.New(pmem.Config{Bytes: 32 << 20, Mode: mode, MaxThreads: threads})
}

func payloadFor(key uint64, n int) []byte {
	p := make([]byte, n)
	binary.LittleEndian.PutUint64(p, key)
	for i := 8; i < n; i++ {
		p[i] = byte(key>>uint(i%8)*8) ^ byte(i)
	}
	return p
}

func drainAll(q *Q, tid int) (payloads [][]byte, keys []uint64) {
	for {
		ps, ks := q.PopReadyBatch(tid, ^uint64(0), 64)
		if len(ps) == 0 {
			return payloads, keys
		}
		payloads = append(payloads, ps...)
		keys = append(keys, ks...)
	}
}

func TestPushPopOrder(t *testing.T) {
	h := newHeap(0, 2)
	q := New(h, Config{Threads: 2, MaxPayload: 8, Capacity: 256})
	rng := rand.New(rand.NewSource(7))
	var want []uint64
	for i := 0; i < 200; i++ {
		key := uint64(rng.Intn(50))
		want = append(want, key)
		if err := q.PushBatch(i%2, []uint64{key}, [][]byte{payloadFor(key, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	_, got := drainAll(q, 0)
	if len(got) != len(want) {
		t.Fatalf("popped %d entries, pushed %d", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("pop order violated at %d: %d after %d", i, got[i], got[i-1])
		}
	}
}

// Equal keys must pop in publish (seq) order: the comparator is
// (key, seq), making delay topics FIFO within a deadline.
func TestEqualKeysFIFO(t *testing.T) {
	h := newHeap(0, 1)
	q := New(h, Config{Threads: 1, MaxPayload: 16, Capacity: 64})
	for i := 0; i < 20; i++ {
		p := make([]byte, 16)
		binary.LittleEndian.PutUint64(p, uint64(i))
		if err := q.PushBatch(0, []uint64{42}, [][]byte{p}); err != nil {
			t.Fatal(err)
		}
	}
	ps, _ := drainAll(q, 0)
	for i, p := range ps {
		if got := binary.LittleEndian.Uint64(p); got != uint64(i) {
			t.Fatalf("equal-key pop %d returned publish ordinal %d", i, got)
		}
	}
}

func TestReadyGating(t *testing.T) {
	h := newHeap(0, 1)
	q := New(h, Config{Threads: 1, Capacity: 64})
	for _, key := range []uint64{30, 10, 20} {
		if err := q.PushBatch(0, []uint64{key}, [][]byte{payloadFor(key, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if ps, _ := q.PopReadyBatch(0, 9, 1); len(ps) > 0 {
		t.Fatal("popped an entry before its key was ready")
	}
	if min, ok := q.MinKey(); !ok || min != 10 {
		t.Fatalf("MinKey = %d,%v, want 10,true", min, ok)
	}
	if _, keys := q.PopReadyBatch(0, 15, 2); len(keys) != 1 || keys[0] != 10 {
		t.Fatalf("PopReadyBatch(15, 2) keys = %v, want [10]", keys)
	}
	ps, ks := q.PopReadyBatch(0, ^uint64(0), 8)
	if len(ps) != 2 || ks[0] != 20 || ks[1] != 30 {
		t.Fatalf("final drain = %v, want [20 30]", ks)
	}
	if q.Depth() != 0 {
		t.Fatalf("Depth = %d after drain", q.Depth())
	}
}

func TestErrFullAllOrNothing(t *testing.T) {
	h := newHeap(0, 2)
	q := New(h, Config{Threads: 2, Capacity: 4})
	keys := []uint64{1, 2, 3}
	ps := [][]byte{payloadFor(1, 8), payloadFor(2, 8), payloadFor(3, 8)}
	// One publisher may fill the whole pool: Threads × Capacity = 8.
	for i := 0; i < 2; i++ {
		if err := q.PushBatch(0, keys, ps); err != nil {
			t.Fatal(err)
		}
	}
	// 2 slots left in the pool: a 3-entry batch must fail whole, on
	// either tid.
	for tid := 0; tid < 2; tid++ {
		if err := q.PushBatch(tid, keys, ps); err == nil {
			t.Fatalf("tid %d: over-capacity PushBatch succeeded", tid)
		} else if !errorsIs(err, ErrFull) {
			t.Fatalf("tid %d: err = %v, want ErrFull", tid, err)
		}
	}
	if q.Depth() != 6 {
		t.Fatalf("failed batches published %d entries (all-or-nothing broken)", q.Depth()-6)
	}
	// The last two slots are any tid's.
	if err := q.PushBatch(1, keys[:2], ps[:2]); err != nil {
		t.Fatalf("tid 1 push into the last two slots: %v", err)
	}
	// Draining frees the slots again.
	drainAll(q, 0)
	if err := q.PushBatch(1, keys, ps); err != nil {
		t.Fatalf("push after drain: %v", err)
	}
}

func errorsIs(err, target error) bool {
	for err != nil {
		if err == target {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestFenceAccounting pins the package's durability budget: publish =
// one fence per batch however deep the sifts, pop-min = one fence per
// ready batch plus one NTStore per entry, empty pops and every gauge
// = zero persist instructions.
func TestFenceAccounting(t *testing.T) {
	h := newHeap(0, 1)
	q := New(h, Config{Threads: 1, MaxPayload: 8, Capacity: 256})
	rng := rand.New(rand.NewSource(3))

	const batch = 64
	keys := make([]uint64, batch)
	ps := make([][]byte, batch)
	for i := range keys {
		keys[i] = uint64(rng.Intn(1000)) // random keys: real sift work
		ps[i] = payloadFor(keys[i], 8)
	}
	d := h.DeltaOf(0)
	if err := q.PushBatch(0, keys, ps); err != nil {
		t.Fatal(err)
	}
	if s := d.Delta(); s.Fences != 1 {
		t.Fatalf("publish batch of %d cost %d fences, want 1", batch, s.Fences)
	} else if want := uint64(batch * 7); s.NTStores != want {
		t.Fatalf("publish batch of %d cost %d NTStores, want %d", batch, s.NTStores, want)
	}

	d = h.DeltaOf(0)
	ps2, _ := q.PopReadyBatch(0, ^uint64(0), 16)
	if s := d.Delta(); s.Fences != 1 {
		t.Fatalf("pop batch cost %d fences, want 1", s.Fences)
	} else if s.NTStores != uint64(len(ps2)) {
		t.Fatalf("pop batch of %d cost %d NTStores, want one per entry", len(ps2), s.NTStores)
	}

	// Gauges and not-ready pops persist nothing.
	d = h.DeltaOf(0)
	q.Depth()
	q.MinKey()
	if ps, _ := q.PopReadyBatch(0, 0, 1); len(ps) > 0 {
		t.Fatal("PopReadyBatch(0) delivered")
	}
	if s := d.Delta(); s.Fences != 0 || s.NTStores != 0 || s.Flushes != 0 {
		t.Fatalf("gauges/empty pop persisted: %+v", s)
	}

	// Each line of an entry reaches the write-pending queue once, however
	// many of its words are stored: a publish queues stride lines an
	// entry (header, then overflow lines), and a consume mark one.
	for _, maxPayload := range []int{8, 40} {
		h := newHeap(0, 1)
		q := New(h, Config{Threads: 1, MaxPayload: maxPayload, Capacity: 256})
		stride := strideFor(maxPayload)
		d := h.DeltaOf(0)
		if err := q.PushBatch(0, keys, ps); err != nil {
			t.Fatal(err)
		}
		if s := d.Delta(); s.DrainLines != uint64(batch*stride) {
			t.Fatalf("stride %d: publish batch of %d queued %d lines, want %d", stride, batch, s.DrainLines, batch*stride)
		}
		d = h.DeltaOf(0)
		got, _ := q.PopReadyBatch(0, ^uint64(0), 16)
		if s := d.Delta(); s.DrainLines != uint64(len(got)) {
			t.Fatalf("stride %d: pop batch of %d queued %d lines, want one per entry", stride, len(got), s.DrainLines)
		}
	}
}

// TestRecover round-trips a mixed live/consumed state through a clean
// crash: live entries recover exactly once in heap order, consumed
// entries never resurrect, and the seq counter resumes past
// everything so later publishes keep FIFO-within-key.
func TestRecover(t *testing.T) {
	h := newHeap(pmem.ModeCrash, 2)
	q := New(h, Config{Threads: 2, MaxPayload: 40, Capacity: 64})
	consumed := map[uint64]bool{}
	for i := 0; i < 40; i++ {
		key := uint64(i % 10)
		if err := q.PushBatch(i%2, []uint64{key}, [][]byte{payloadFor(uint64(i)+100, 40)}); err != nil {
			t.Fatal(err)
		}
	}
	ps, _ := q.PopReadyBatch(0, ^uint64(0), 15)
	for _, p := range ps {
		consumed[binary.LittleEndian.Uint64(p)] = true
	}
	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(1)))
	h.Restart()

	r, err := Recover(h, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Depth() != 25 {
		t.Fatalf("recovered depth %d, want 25", r.Depth())
	}
	// New publishes after recovery must sort after recovered entries
	// of the same key (seq continuity).
	if err := r.PushBatch(0, []uint64{0}, [][]byte{payloadFor(999, 40)}); err != nil {
		t.Fatal(err)
	}
	rps, rks := drainAll(r, 1)
	seen := map[uint64]bool{}
	for i, p := range rps {
		id := binary.LittleEndian.Uint64(p)
		if consumed[id] {
			t.Fatalf("consumed entry %d resurrected", id)
		}
		if seen[id] {
			t.Fatalf("entry %d recovered twice", id)
		}
		seen[id] = true
		if i > 0 && rks[i] < rks[i-1] {
			t.Fatalf("recovered pop order violated at %d", i)
		}
		if want := payloadFor(id, 40); string(p) != string(want) {
			t.Fatalf("entry %d payload corrupted across recovery", id)
		}
	}
	if len(rps) != 26 {
		t.Fatalf("drained %d entries, want 26", len(rps))
	}
	// The key-0 entries: recovered ones (ids 100,110,120,130 minus
	// consumed) must precede the post-recovery 999.
	last0 := -1
	for i, k := range rks {
		if k == 0 {
			last0 = i
		}
	}
	if got := binary.LittleEndian.Uint64(rps[last0]); got != 999 {
		t.Fatalf("post-recovery publish popped before recovered same-key entries (last key-0 id %d)", got)
	}
}

// TestRecoverFullArenaBackpressure crashes with every slot of the
// arena holding a live entry and requires Recover to leave the free
// list empty: a Push into the recovered full arena must refuse with
// ErrFull rather than claim (and overwrite) a live slot, and every
// recovered entry must survive a second crash intact.
func TestRecoverFullArenaBackpressure(t *testing.T) {
	h := newHeap(pmem.ModeCrash, 1)
	q := New(h, Config{Threads: 1, MaxPayload: 8, Capacity: 4})
	for i := uint64(1); i <= 4; i++ {
		if err := q.PushBatch(0, []uint64{i}, [][]byte{payloadFor(i, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(2)))
	h.Restart()
	r, err := Recover(h, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Depth() != 4 {
		t.Fatalf("recovered depth %d, want 4", r.Depth())
	}
	if err := r.PushBatch(0, []uint64{9}, [][]byte{payloadFor(9, 8)}); !errorsIs(err, ErrFull) {
		t.Fatalf("Push into fully-live recovered arena = %v, want ErrFull", err)
	}
	// Second crash without consuming anything: all four live entries
	// must come back a second time, unduplicated and uncorrupted.
	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(3)))
	h.Restart()
	r2, err := Recover(h, 1)
	if err != nil {
		t.Fatal(err)
	}
	ps, ks := drainAll(r2, 0)
	if len(ps) != 4 {
		t.Fatalf("second recovery drained %d entries, want 4", len(ps))
	}
	seen := map[uint64]bool{}
	for i, p := range ps {
		id := binary.LittleEndian.Uint64(p)
		if id != ks[i] || id < 1 || id > 4 || seen[id] {
			t.Fatalf("second recovery pop %d: key %d payload id %d", i, ks[i], id)
		}
		seen[id] = true
		if string(p) != string(payloadFor(id, 8)) {
			t.Fatalf("entry %d corrupted across double recovery", id)
		}
	}
	// Draining freed all four slots: exactly capacity pushes fit again.
	for i := uint64(10); i < 14; i++ {
		if err := r2.PushBatch(0, []uint64{i}, [][]byte{payloadFor(i, 8)}); err != nil {
			t.Fatalf("push %d after drain: %v", i, err)
		}
	}
	if err := r2.PushBatch(0, []uint64{14}, [][]byte{payloadFor(14, 8)}); !errorsIs(err, ErrFull) {
		t.Fatalf("over-capacity push after drain = %v, want ErrFull", err)
	}
}

// TestRecoverPartialConsumeFreeList pins the free-list census after a
// mixed recovery: with 2 of 6 entries consumed before the crash,
// exactly 2 slots (the consumed ones) are claimable afterwards.
func TestRecoverPartialConsumeFreeList(t *testing.T) {
	h := newHeap(pmem.ModeCrash, 1)
	q := New(h, Config{Threads: 1, MaxPayload: 8, Capacity: 6})
	for i := uint64(1); i <= 6; i++ {
		if err := q.PushBatch(0, []uint64{i}, [][]byte{payloadFor(i, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if ps, _ := q.PopReadyBatch(0, ^uint64(0), 2); len(ps) != 2 {
		t.Fatalf("popped %d, want 2", len(ps))
	}
	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(5)))
	h.Restart()
	r, err := Recover(h, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Depth() != 4 {
		t.Fatalf("recovered depth %d, want 4", r.Depth())
	}
	for i := uint64(20); i < 22; i++ {
		if err := r.PushBatch(0, []uint64{i}, [][]byte{payloadFor(i, 8)}); err != nil {
			t.Fatalf("push into consumed slot: %v", err)
		}
	}
	if err := r.PushBatch(0, []uint64{22}, [][]byte{payloadFor(22, 8)}); !errorsIs(err, ErrFull) {
		t.Fatalf("push past consumed-slot budget = %v, want ErrFull", err)
	}
	// Nothing recovered was overwritten by the two reuse pushes.
	ps, _ := drainAll(r, 0)
	got := map[uint64]bool{}
	for _, p := range ps {
		got[binary.LittleEndian.Uint64(p)] = true
	}
	for _, id := range []uint64{3, 4, 5, 6, 20, 21} {
		if !got[id] {
			t.Fatalf("entry %d lost (drained ids %v)", id, got)
		}
	}
	if len(ps) != 6 {
		t.Fatalf("drained %d entries, want 6", len(ps))
	}
}

// TestTornPublishTruncated is the satellite torn-tail coverage: crash
// at every access offset inside a publish (between its NTStores and
// its fence) and require recovery to either keep the entry whole or
// truncate it entirely — never a torn half-entry — while previously
// fenced entries survive untouched. MaxPayload 40 forces a two-line
// entry so the sweep crosses a payload-line/header-line boundary.
func TestTornPublishTruncated(t *testing.T) {
	sawLost, sawKept := false, false
	for off := int64(1); ; off++ {
		h := newHeap(pmem.ModeCrash, 1)
		q := New(h, Config{Threads: 1, MaxPayload: 40, Capacity: 16})
		for i := uint64(1); i <= 3; i++ {
			if err := q.PushBatch(0, []uint64{i}, [][]byte{payloadFor(i, 40)}); err != nil {
				t.Fatal(err)
			}
		}
		h.ScheduleCrashAtAccess(h.AccessCount() + off)
		crashed := pmem.Protect(func() {
			if err := q.PushBatch(0, []uint64{7}, [][]byte{payloadFor(7, 40)}); err != nil {
				t.Fatal(err)
			}
		})
		if !crashed {
			h.CrashNow()
		}
		h.FinalizeCrash(rand.New(rand.NewSource(off)))
		h.Restart()
		r, err := Recover(h, 1)
		if err != nil {
			t.Fatalf("off %d: %v", off, err)
		}
		ps, ks := drainAll(r, 0)
		want := map[uint64]bool{1: true, 2: true, 3: true}
		got7 := 0
		for i, p := range ps {
			id := binary.LittleEndian.Uint64(p)
			if id == 7 {
				got7++
				if ks[i] != 7 || string(p) != string(payloadFor(7, 40)) {
					t.Fatalf("off %d: torn entry recovered corrupted (key %d)", off, ks[i])
				}
				continue
			}
			if !want[id] {
				t.Fatalf("off %d: unexpected or duplicate entry %d", off, id)
			}
			delete(want, id)
			if string(p) != string(payloadFor(id, 40)) {
				t.Fatalf("off %d: fenced entry %d corrupted by neighbour's torn publish", off, id)
			}
		}
		if len(want) != 0 {
			t.Fatalf("off %d: fenced entries lost: %v", off, want)
		}
		if got7 > 1 {
			t.Fatalf("off %d: torn entry duplicated", off)
		}
		sawLost = sawLost || got7 == 0
		sawKept = sawKept || got7 == 1
		if !crashed {
			break // swept past the whole publish
		}
	}
	if !sawLost || !sawKept {
		t.Fatalf("sweep did not cover both outcomes (lost=%v kept=%v)", sawLost, sawKept)
	}
}

// TestConsumedSlotNoResurrection reuses one slot (capacity 1) and
// crashes at every offset inside the reusing publish: the previously
// consumed entry must never come back live, because its stale state
// word still equals its own seq while any new occupant carries a
// strictly larger seq.
func TestConsumedSlotNoResurrection(t *testing.T) {
	for off := int64(1); ; off++ {
		h := newHeap(pmem.ModeCrash, 1)
		q := New(h, Config{Threads: 1, MaxPayload: 8, Capacity: 1})
		if err := q.PushBatch(0, []uint64{5}, [][]byte{payloadFor(5, 8)}); err != nil {
			t.Fatal(err)
		}
		if ps, _ := q.PopReadyBatch(0, ^uint64(0), 1); len(ps) == 0 {
			t.Fatal("pop failed")
		}
		h.ScheduleCrashAtAccess(h.AccessCount() + off)
		crashed := pmem.Protect(func() {
			if err := q.PushBatch(0, []uint64{9}, [][]byte{payloadFor(9, 8)}); err != nil {
				t.Fatal(err)
			}
		})
		if !crashed {
			h.CrashNow()
		}
		h.FinalizeCrash(rand.New(rand.NewSource(off * 17)))
		h.Restart()
		r, err := Recover(h, 1)
		if err != nil {
			t.Fatalf("off %d: %v", off, err)
		}
		ps, _ := drainAll(r, 0)
		for _, p := range ps {
			if id := binary.LittleEndian.Uint64(p); id == 5 {
				t.Fatalf("off %d: consumed entry resurrected after slot reuse", off)
			}
		}
		if len(ps) > 1 {
			t.Fatalf("off %d: %d entries from a 1-slot arena", off, len(ps))
		}
		if !crashed {
			break
		}
	}
}

// TestCrashFuzz drives concurrent pushers and poppers into a randomly
// scheduled crash and audits delivered-or-recovered-exactly-once with
// the documented loss allowance (one in-flight pop batch per popper).
func TestCrashFuzz(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	const (
		pushers  = 2
		poppers  = 2
		perTid   = 400
		popBatch = 8
	)
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			h := newHeap(pmem.ModeCrash, pushers+poppers)
			q := New(h, Config{Threads: pushers + poppers, MaxPayload: 16, Capacity: perTid + 8})
			rng := rand.New(rand.NewSource(seed))
			h.ScheduleCrashAtAccess(h.AccessCount() + int64(rng.Intn(12000)) + 500)

			acked := make([][]bool, pushers) // fenced publishes
			delivered := make(chan []byte, 2*pushers*perTid)
			done := make(chan struct{})
			for p := 0; p < pushers; p++ {
				acked[p] = make([]bool, perTid)
			}
			var wg, pwg sync.WaitGroup
			for p := 0; p < pushers; p++ {
				p := p
				wg.Add(1)
				go func() {
					defer wg.Done()
					prng := rand.New(rand.NewSource(seed*100 + int64(p)))
					for i := 0; i < perTid; i++ {
						payload := make([]byte, 16)
						binary.LittleEndian.PutUint64(payload, uint64(p))
						binary.LittleEndian.PutUint64(payload[8:], uint64(i))
						key := uint64(prng.Intn(64))
						var err error
						if pmem.Protect(func() { err = q.PushBatch(p, []uint64{key}, [][]byte{payload}) }) {
							return
						}
						if err != nil {
							i-- // ErrFull: retry
							continue
						}
						acked[p][i] = true
					}
				}()
			}
			for c := 0; c < poppers; c++ {
				tid := pushers + c
				pwg.Add(1)
				go func() {
					defer pwg.Done()
					for {
						var ps [][]byte
						if pmem.Protect(func() { ps, _ = q.PopReadyBatch(tid, ^uint64(0), popBatch) }) {
							return
						}
						for _, p := range ps {
							delivered <- p
						}
						select {
						case <-done:
							if len(ps) == 0 {
								return
							}
						default:
						}
					}
				}()
			}
			wg.Wait()
			close(done)
			pwg.Wait()
			if !h.Crashed() {
				h.CrashNow()
			}
			close(delivered)
			h.FinalizeCrash(rand.New(rand.NewSource(seed * 31)))
			h.Restart()
			r, err := Recover(h, pushers+poppers)
			if err != nil {
				t.Fatal(err)
			}
			counts := make(map[[2]uint64]int)
			for p := range delivered {
				counts[[2]uint64{binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint64(p[8:])}]++
			}
			rps, _ := drainAll(r, 0)
			for _, p := range rps {
				counts[[2]uint64{binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint64(p[8:])}]++
			}
			lost := 0
			for p := 0; p < pushers; p++ {
				for i := 0; i < perTid; i++ {
					n := counts[[2]uint64{uint64(p), uint64(i)}]
					if n > 1 {
						t.Fatalf("seed %d: message %d/%d seen %d times", seed, p, i, n)
					}
					if acked[p][i] && n == 0 {
						lost++
					}
					if !acked[p][i] && n > 1 {
						t.Fatalf("seed %d: unacked message %d/%d seen %d times", seed, p, i, n)
					}
				}
			}
			if allow := poppers * popBatch; lost > allow {
				t.Fatalf("seed %d: lost %d acked messages, allowance %d", seed, lost, allow)
			}
		})
	}
}

// TestRecoverRefusesCorruptRegion: a region Recover cannot trust is an
// error wrapping pmem.ErrCorrupt, never a panic or an allocation sized
// by a corrupt header. The resealed rows carry a valid checksum, so the
// consistency check, not the checksum, must refuse them.
func TestRecoverRefusesCorruptRegion(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(h *pmem.Heap, region pmem.Addr) // nil: nothing anchored
		want string
	}{
		{"no region", nil, "no region anchored"},
		{"magic", func(h *pmem.Heap, region pmem.Addr) { h.Store(0, region, 1) }, "bad region header"},
		{"stride", reseal(3, 2), "inconsistent region header"},
		{"capacity past the heap", reseal(2, 1<<40), "inconsistent region header"},
		{"capacity past the break", reseal(2, 1<<17), "outside the allocated bytes"},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newHeap(pmem.ModeCrash, 1)
			view := h.View(1, 1)
			if c.edit != nil {
				New(view, Config{Threads: 1, MaxPayload: 8, Capacity: 16})
				c.edit(h, pmem.Addr(view.Load(0, view.RootAddr(slotRegion))))
			}
			_, err := Recover(view, 1)
			if !errors.Is(err, pmem.ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Recover = %v, want an error wrapping pmem.ErrCorrupt mentioning %q", err, c.want)
			}
		})
	}
}

// reseal returns an edit that sets header word i to v and recomputes
// the header checksum.
func reseal(i int, v uint64) func(h *pmem.Heap, region pmem.Addr) {
	return func(h *pmem.Heap, region pmem.Addr) {
		var hw [8]uint64
		for w := range hw {
			hw[w] = h.Load(0, region+pmem.Addr(w*pmem.WordBytes))
		}
		hw[i] = v
		hw[7] = headerSum(hw)
		for w, x := range hw {
			h.Store(0, region+pmem.Addr(w*pmem.WordBytes), x)
		}
	}
}
