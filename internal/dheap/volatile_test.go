package dheap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/pmem"
)

// TestItemIsPointerFree pins what makes the index invisible to the GC:
// 24 bytes of unsigned integers, nothing the collector has to scan and
// nothing a sift needs a write barrier for.
func TestItemIsPointerFree(t *testing.T) {
	if got := unsafe.Sizeof(item{}); got != 24 {
		t.Fatalf("item is %d bytes, want 24", got)
	}
	typ := reflect.TypeOf(item{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Uint32, reflect.Uint64:
		default:
			t.Fatalf("item.%s is a %s: the index must hold no pointer", f.Name, f.Type)
		}
	}
}

// TestTypedRefusals: an oversized payload and a keys/payloads mismatch
// are return codes, refused before any slot is taken or word stored.
func TestTypedRefusals(t *testing.T) {
	h := newHeap(0, 1)
	q := New(h, Config{Threads: 1, MaxPayload: 8, Capacity: 8})
	if err := q.PushBatch(0, []uint64{1}, [][]byte{payloadFor(1, 8)}); err != nil {
		t.Fatal(err)
	}
	ok8, big := payloadFor(2, 8), make([]byte, 9)
	for _, tc := range []struct {
		name     string
		keys     []uint64
		payloads [][]byte
		want     error
		mentions string
	}{
		{"oversized", []uint64{2, 3}, [][]byte{ok8, big}, ErrPayloadTooLarge, "9 bytes, MaxPayload 8"},
		{"more keys", []uint64{2, 3}, [][]byte{ok8}, ErrBatchShape, "2 keys, 1 payloads"},
		{"more payloads", nil, [][]byte{ok8}, ErrBatchShape, "0 keys, 1 payloads"},
	} {
		free, d := len(q.free), h.DeltaOf(0)
		err := q.PushBatch(0, tc.keys, tc.payloads)
		if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.mentions) {
			t.Fatalf("%s: err = %v, want %v mentioning %q", tc.name, err, tc.want, tc.mentions)
		}
		if s := d.Delta(); s.NTStores != 0 || s.Fences != 0 || s.Flushes != 0 {
			t.Fatalf("%s: a refused batch persisted: %+v", tc.name, s)
		}
		if len(q.free) != free || q.Depth() != 1 {
			t.Fatalf("%s: a refused batch took slots (free %d -> %d, depth %d)", tc.name, free, len(q.free), q.Depth())
		}
	}
	if err := q.PushBatch(0, []uint64{4}, [][]byte{big}); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("Push of 9 bytes = %v, want ErrPayloadTooLarge", err)
	}
}

// refEntry and reference are the model the index is checked against:
// every live entry in (key, publish order), kept by a stable sort.
type refEntry struct {
	key     uint64
	payload []byte
}

type reference []refEntry

// push adds one publish batch: newer entries sort after older ones of
// the same key because the sort is stable.
func (r *reference) push(keys []uint64, payloads [][]byte) {
	for i, key := range keys {
		*r = append(*r, refEntry{key, payloads[i]})
	}
	sort.SliceStable(*r, func(i, j int) bool { return (*r)[i].key < (*r)[j].key })
}

// pop removes and returns the up-to-n first entries with key <= maxKey.
func (r *reference) pop(maxKey uint64, n int) []refEntry {
	k := 0
	for k < n && k < len(*r) && (*r)[k].key <= maxKey {
		k++
	}
	out := (*r)[:k:k]
	*r = (*r)[k:]
	return out
}

func checkBatch(t *testing.T, what string, ps [][]byte, ks []uint64, want []refEntry) {
	t.Helper()
	if len(ps) != len(want) || len(ks) != len(want) {
		t.Fatalf("%s: delivered %d payloads, %d keys, reference %d", what, len(ps), len(ks), len(want))
	}
	for i, w := range want {
		if ks[i] != w.key || !bytes.Equal(ps[i], w.payload) {
			t.Fatalf("%s: delivery %d = key %d payload %x, reference key %d payload %x",
				what, i, ks[i], ps[i], w.key, w.payload)
		}
	}
}

// drive runs a seeded interleaving of push and pop batches of 1-17
// entries (duplicate keys, payloads of every length up to maxPayload)
// against q and the reference, checking every pop, until the resident
// set has passed peak and the step budget is spent.
func drive(t *testing.T, q *Q, ref *reference, rng *rand.Rand, threads, maxPayload, peak, steps int) {
	t.Helper()
	grown := false
	for step := 0; step < steps || !grown; step++ {
		n := 1 + rng.Intn(17)
		grown = grown || len(*ref) >= peak
		pushOdds := 5 // in 10: drift, once the peak has been reached
		if !grown {
			pushOdds = 8
		}
		if rng.Intn(10) < pushOdds && len(*ref)+n <= q.slots {
			keys, ps := make([]uint64, n), make([][]byte, n)
			for i := range keys {
				keys[i] = uint64(rng.Intn(64))
				size := rng.Intn(maxPayload + 1)
				ps[i] = payloadFor(rng.Uint64(), max(size, 8))[:size]
			}
			ref.push(keys, ps)
			if err := q.PushBatch(rng.Intn(threads), keys, ps); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			continue
		}
		maxKey := ^uint64(0)
		if rng.Intn(2) == 0 {
			maxKey = uint64(rng.Intn(64))
		}
		ps, ks := q.PopReadyBatch(rng.Intn(threads), maxKey, n)
		checkBatch(t, fmt.Sprintf("step %d pop(%d, %d)", step, maxKey, n), ps, ks, ref.pop(maxKey, n))
		if q.Depth() != len(*ref) {
			t.Fatalf("step %d: depth %d, reference %d", step, q.Depth(), len(*ref))
		}
	}
}

// TestOrderAgainstReference: whatever the interleaving, deliveries are
// the stable (key, publish order) sort's — through depths that cross
// every 4-ary level boundary up to 1365 resident entries.
func TestOrderAgainstReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		const threads, maxPayload = 3, 25
		// The pool, 3 × 1600 slots, holds the whole resident set.
		q := New(newHeap(0, threads), Config{Threads: threads, MaxPayload: maxPayload, Capacity: 1600})
		var ref reference
		drive(t, q, &ref, rand.New(rand.NewSource(seed)), threads, maxPayload, 1400, 600)
		ps, ks := drainAll(q, 0)
		checkBatch(t, "final drain", ps, ks, ref.pop(^uint64(0), len(ref)))
	}
}

// TestSiftFullKeyRange: keys drawn from both ends of the uint64 range
// and either side of the top bit, each many times over, drain in the
// stable (key, publish order) sort at every depth modulo 4 around each
// level boundary, so a sift meets full and partial last groups of
// children at every level — and so does Recover's heapify of the same
// entries after a power loss. drive's keys stay below 64, where a
// signed compare still orders them right.
func TestSiftFullKeyRange(t *testing.T) {
	edges := []uint64{0, 1, 1<<63 - 1, 1 << 63, ^uint64(1), ^uint64(0)}
	for _, n := range []int{4, 5, 6, 20, 21, 22, 84, 85, 86, 340, 341, 342, 343, 344} {
		rng := rand.New(rand.NewSource(int64(n)))
		var ref reference
		live, crashed := newHeap(0, 1), newHeap(pmem.ModeCrash, 1)
		q := New(live, Config{Threads: 1, Capacity: n})
		c := New(crashed, Config{Threads: 1, Capacity: n})
		for published := 0; published < n; {
			k := min(1+rng.Intn(8), n-published)
			keys, ps := make([]uint64, k), make([][]byte, k)
			for i := range keys {
				keys[i] = edges[rng.Intn(len(edges))]
				ps[i] = payloadFor(uint64(published+i), 8)
			}
			ref.push(keys, ps)
			for _, dst := range []*Q{q, c} {
				if err := dst.PushBatch(0, keys, ps); err != nil {
					t.Fatal(err)
				}
			}
			published += k
		}
		crashed.CrashNow()
		crashed.FinalizeCrash(rng)
		crashed.Restart()
		r, err := Recover(crashed, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			what string
			q    *Q
		}{{"pushed", q}, {"recovered", r}} {
			want := slices.Clone(ref)
			for step := 0; len(want) > 0; step++ {
				k := 1 + rng.Intn(9)
				ps, ks := tc.q.PopReadyBatch(0, ^uint64(0), k)
				checkBatch(t, fmt.Sprintf("depth %d, %s, pop %d", n, tc.what, step), ps, ks, want.pop(^uint64(0), k))
			}
			if d := tc.q.Depth(); d != 0 {
				t.Fatalf("depth %d, %s: %d entries left after the reference drained", n, tc.what, d)
			}
		}
	}
}

// TestRecoverMatchesReference: after a power loss at a quiesced point
// the recovered heap delivers exactly the reference's remaining order —
// one heapify is n pushes — with payloads that fit the header line
// (8, 24) and that spill into overflow lines (25, 200).
func TestRecoverMatchesReference(t *testing.T) {
	for _, maxPayload := range []int{8, 24, 25, 200} {
		const threads = 2
		h := newHeap(pmem.ModeCrash, threads)
		q := New(h, Config{Threads: threads, MaxPayload: maxPayload, Capacity: 400})
		rng := rand.New(rand.NewSource(int64(maxPayload)))
		var ref reference
		drive(t, q, &ref, rng, threads, maxPayload, 350, 150)
		h.CrashNow()
		h.FinalizeCrash(rng)
		h.Restart()
		r, err := Recover(h, threads)
		if err != nil {
			t.Fatal(err)
		}
		if r.Depth() != len(ref) || len(ref) == 0 {
			t.Fatalf("MaxPayload %d: recovered depth %d, reference %d", maxPayload, r.Depth(), len(ref))
		}
		// The recovered heap keeps going where the reference does.
		drive(t, r, &ref, rng, threads, maxPayload, 0, 40)
		ps, ks := drainAll(r, 1)
		checkBatch(t, fmt.Sprintf("MaxPayload %d: drain after recovery", maxPayload), ps, ks, ref.pop(^uint64(0), len(ref)))
	}
}

// TestPayloadIsolation: the mirror owns a copy from the moment
// PushBatch returns, and a delivered payload is the caller's alone —
// not a view of the mirror (its slot is reused at once here: the arena
// holds one batch) and not a neighbour of the next payload in the
// batch's buffer (its capacity is its length, so append moves it).
func TestPayloadIsolation(t *testing.T) {
	const batch, size = 4, 13
	q := New(newHeap(0, 1), Config{Threads: 1, MaxPayload: size, Capacity: batch})
	keys, bufs := make([]uint64, batch), make([][]byte, batch)
	for i := range bufs {
		bufs[i] = make([]byte, size)
	}
	publish := func(round uint64) {
		for i := range bufs {
			keys[i] = round*batch + uint64(i)
			copy(bufs[i], payloadFor(keys[i], size))
		}
		if err := q.PushBatch(0, keys, bufs); err != nil {
			t.Fatal(err)
		}
		for i := range bufs { // the pusher's buffers are its own again
			clear(bufs[i])
		}
	}
	var held [][]byte
	var heldKeys []uint64
	for round := uint64(0); round < 3; round++ {
		publish(round)
		ps, ks := q.PopReadyBatch(0, ^uint64(0), batch)
		if len(ps) != batch {
			t.Fatalf("round %d: popped %d of %d", round, len(ps), batch)
		}
		for i, p := range ps {
			if cap(p) != len(p) {
				t.Fatalf("round %d: payload %d has capacity %d beyond its length %d", round, i, cap(p), len(p))
			}
		}
		// Scribble over the first delivery and grow it: no other moves.
		clear(ps[0])
		_ = append(ps[0], 0xFF, 0xFF, 0xFF, 0xFF)
		held, heldKeys = append(held, ps[1:]...), append(heldKeys, ks[1:]...)
		for i, p := range held { // across later rounds' slot reuse too
			if !bytes.Equal(p, payloadFor(heldKeys[i], size)) {
				t.Fatalf("round %d: held payload of key %d changed to %x", round, heldKeys[i], p)
			}
		}
	}
}

// TestPushPopBatchAllocs pins the heap's Go allocations once warm:
// a PushBatch(8) allocates nothing (slots, staged items and packed
// words live in the tid's scratch, payloads in the mirror), a
// PopReadyBatch(8) exactly what it hands the caller — one payload
// buffer and the two result slices. The pair was 24.
func TestPushPopBatchAllocs(t *testing.T) {
	const batch, runs = 8, 200
	q := New(newHeap(0, 2), Config{Threads: 2, Capacity: batch * (runs + 2)})
	rng := rand.New(rand.NewSource(5))
	keys, ps := make([]uint64, batch), make([][]byte, batch)
	for i := range ps {
		ps[i] = payloadFor(uint64(i), 8)
	}
	push := func() {
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		if err := q.PushBatch(0, keys, ps); err != nil {
			t.Fatal(err)
		}
	}
	pop := func() { q.PopReadyBatch(1, ^uint64(0), batch) }
	for i := 0; i <= runs; i++ { // AllocsPerRun calls once more than runs; grow the index to that
		push()
	}
	for i := 0; i <= runs; i++ {
		pop()
	}
	if got := testing.AllocsPerRun(runs, push); got != 0 {
		t.Errorf("warm PushBatch(8) = %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(runs, pop); got > 3 {
		t.Errorf("PopReadyBatch(8) = %v allocs, want <= 3", got)
	}
}

// TestSplitTidsMirrorHandoff hammers one Q from a producer tid and a
// consumer tid while slots recycle (the arena holds four batches): the
// mirror's only cross-goroutine hand-off is pusher-writes, insert under
// mu, pop under mu, popper-reads, free under mu — so under -race every
// delivered payload must be the one pushed under its key, and nothing
// may be delivered twice or lost.
func TestSplitTidsMirrorHandoff(t *testing.T) {
	const batch, size, total = 8, 40, 4000
	q := New(newHeap(0, 2), Config{Threads: 2, MaxPayload: size, Capacity: 4 * batch})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	failed := make(chan struct{}) // closed by a producer that gave up
	defer wg.Wait()
	defer close(stop) // first: a failed consumer must not leave the producer spinning
	wg.Add(1)
	go func() {
		defer wg.Done()
		keys, bufs := make([]uint64, batch), make([][]byte, batch)
		for next := uint64(0); next < total; {
			for i := range bufs {
				keys[i] = next + uint64(i)
				bufs[i] = append(bufs[i][:0], payloadFor(keys[i], size)...)
			}
			if err := q.PushBatch(0, keys, bufs); errors.Is(err, ErrFull) {
				// Backpressure: the consumer has not recycled yet.
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
				continue
			} else if err != nil {
				t.Error(err)
				close(failed)
				return
			}
			next += batch
			for i := range bufs {
				clear(bufs[i])
			}
		}
	}()
	seen := make([]bool, total)
	for got := 0; got < total; {
		ps, ks := q.PopReadyBatch(1, ^uint64(0), batch)
		for i, p := range ps {
			if seen[ks[i]] || !bytes.Equal(p, payloadFor(ks[i], size)) {
				t.Fatalf("key %d delivered twice (%v) or with another entry's bytes: %x", ks[i], seen[ks[i]], p)
			}
			seen[ks[i]] = true
		}
		got += len(ps)
		if len(ps) == 0 {
			select {
			case <-failed:
				return // the producer's error is the report; nothing more will arrive
			default:
				runtime.Gosched()
			}
		}
	}
	if q.Depth() != 0 {
		t.Fatalf("depth %d after every key was delivered", q.Depth())
	}
}

// TestPushBatchSeqsReserved: two producer tids push batches of one key
// at once, so their takeSlots calls interleave. Every batch's seqs must
// be consecutive in the batch's order, a producer's batches must take
// ascending seqs, no seq may repeat, and the equal keys must pop in seq
// order.
func TestPushBatchSeqsReserved(t *testing.T) {
	const batch, batches, producers = 8, 64, 2
	q := New(newHeap(0, producers+1), Config{Threads: producers + 1, MaxPayload: 8, Capacity: batch * batches})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys, bufs := make([]uint64, batch), make([][]byte, batch)
			for b := 0; b < batches; b++ {
				for i := range bufs {
					keys[i] = 7
					bufs[i] = binary.LittleEndian.AppendUint64(bufs[i][:0], uint64((p*batches+b)*batch+i))
				}
				if err := q.PushBatch(p, keys, bufs); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	const consumer = producers
	seqs := make([]uint64, producers*batches*batch) // by publish ordinal
	var last uint64
	for popped := 0; ; {
		ps, _ := q.PopReadyBatch(consumer, ^uint64(0), batch)
		if len(ps) == 0 {
			if popped != len(seqs) {
				t.Fatalf("popped %d entries, pushed %d", popped, len(seqs))
			}
			break
		}
		for i, it := range q.scratch[consumer].popped {
			if it.seq <= last {
				t.Fatalf("equal keys popped seq %d after seq %d", it.seq, last)
			}
			last = it.seq
			seqs[binary.LittleEndian.Uint64(ps[i])] = it.seq
		}
		popped += len(ps)
	}
	for p := 0; p < producers; p++ {
		for b := 0; b < batches; b++ {
			first := (p*batches + b) * batch
			for i := 1; i < batch; i++ {
				if seqs[first+i] != seqs[first]+uint64(i) {
					t.Fatalf("producer %d batch %d: entry %d has seq %d, entry 0 seq %d", p, b, i, seqs[first+i], seqs[first])
				}
			}
			if b > 0 && seqs[first] < seqs[first-1] {
				t.Fatalf("producer %d batch %d starts at seq %d, before its previous batch's last seq %d", p, b, seqs[first], seqs[first-1])
			}
		}
	}
}

// BenchmarkPushPopBatch8 is one PushBatch(8) + PopReadyBatch(8) round
// at a fixed resident set: the benchmark ladder's dheap rungs, for
// -benchmem and profiles. 1e3 and 1e5 draw uniform random keys;
// delay512 is heap-delay's schedule, 512 resident deadlines, each push
// landing behind nearly all of the rest: 512*(i/512+1) + perm[i%512]
// for a seeded permutation.
func BenchmarkPushPopBatch8(b *testing.B) {
	perm := rand.New(rand.NewSource(1)).Perm(512)
	random := func(rng *rand.Rand, _ uint64) uint64 { return rng.Uint64() >> 1 }
	for _, row := range []struct {
		name     string
		resident int
		key      func(rng *rand.Rand, i uint64) uint64
	}{
		{"1e3", 1e3, random},
		{"1e5", 1e5, random},
		{"delay512", 512, func(_ *rand.Rand, i uint64) uint64 { return 512*(i/512+1) + uint64(perm[i%512]) }},
	} {
		b.Run(row.name, func(b *testing.B) {
			const batch = 8
			h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 2, Latency: pmem.DefaultLatency()})
			q := New(h, Config{Threads: 2, Capacity: row.resident + 2*batch})
			rng := rand.New(rand.NewSource(1))
			keys, ps := make([]uint64, batch), make([][]byte, batch)
			for i := range ps {
				ps[i] = make([]byte, 8)
			}
			var pushed uint64
			push := func() {
				for i := range keys {
					keys[i] = row.key(rng, pushed)
					pushed++
				}
				if err := q.PushBatch(0, keys, ps); err != nil {
					b.Fatal(err)
				}
			}
			h.SetLatency(pmem.ZeroLatency())
			for q.Depth() < row.resident {
				push()
			}
			h.SetLatency(pmem.DefaultLatency())
			b.ReportAllocs()
			for b.Loop() {
				push()
				q.PopReadyBatch(1, ^uint64(0), batch)
			}
		})
	}
}
