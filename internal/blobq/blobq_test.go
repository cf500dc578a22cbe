package blobq

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/pmem"
	"repro/internal/qtest"
	"repro/internal/queues"
	"repro/internal/ssmem"
)

func newHeap(mode pmem.Mode) *pmem.Heap {
	return pmem.New(pmem.Config{Bytes: 32 << 20, Mode: mode, MaxThreads: 6})
}

func payloadFor(v uint64, n int) []byte {
	p := make([]byte, n)
	rng := rand.New(rand.NewSource(int64(v)))
	rng.Read(p)
	return p
}

func TestRoundTripSizes(t *testing.T) {
	q := New(newHeap(pmem.ModePerf), Config{Threads: 1, MaxPayload: 240})
	sizes := []int{0, 1, 7, 8, 55, 56, 57, 112, 113, 168, 240}
	for _, n := range sizes {
		q.Enqueue(0, payloadFor(uint64(n), n))
	}
	for _, n := range sizes {
		got, ok := q.Dequeue(0)
		if !ok {
			t.Fatalf("size %d: unexpected empty", n)
		}
		if !bytes.Equal(got, payloadFor(uint64(n), n)) {
			t.Fatalf("size %d: payload mismatch", n)
		}
	}
	if _, ok := q.Dequeue(0); ok {
		t.Fatal("queue should be empty")
	}
}

func TestOversizePayloadPanics(t *testing.T) {
	q := New(newHeap(pmem.ModePerf), Config{Threads: 1, MaxPayload: 100})
	defer func() {
		if recover() == nil {
			t.Fatal("oversize enqueue did not panic")
		}
	}()
	q.Enqueue(0, make([]byte, q.MaxPayload()+1))
}

// TestMaxPayloadBound: a seal's line field is eight bits, so a blob of
// 256 lines or more is refused at construction, New and Recover alike;
// and below the bound seal is injective over (tag, line), two
// consecutive tags included (at 256 lines an odd tag's line 256 sealed
// as its own line 0 does: tag 3, 769 both).
func TestMaxPayloadBound(t *testing.T) {
	New(newHeap(pmem.ModePerf), Config{Threads: 1, MaxPayload: MaxPayloadLimit})
	for name, mk := range map[string]func(*pmem.Heap, Config) *Queue{"New": New, "Recover": Recover} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "MaxPayload") {
					t.Fatalf("%s with MaxPayload %d: want the MaxPayload panic, got %v", name, MaxPayloadLimit+1, r)
				}
			}()
			mk(newHeap(pmem.ModePerf), Config{Threads: 1, MaxPayload: MaxPayloadLimit + 1})
		}()
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 200; i++ {
		tag := rng.Uint64() >> 8
		seen := map[uint64][2]uint64{}
		for _, tg := range []uint64{tag, tag + 1} {
			for l := 0; l < MaxPayloadLimit/lineData; l++ {
				s := seal(tg, l)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seal(%#x, %d) == seal(%#x, %d) == %#x", tg, l, prev[0], prev[1], s)
				}
				seen[s] = [2]uint64{tg, uint64(l)}
			}
		}
	}
}

// wordQ drives a blob queue through the uint64 verbs of the word
// queue, so the audits written for queues.Queue — and the persist pins
// below — run on both payload instantiations of the core. Every value
// travels as a checksummed variable-length payload (encodedPayload):
// an audit's FIFO / no-loss / no-duplicate verdict on the values is
// also a verdict on payload integrity.
type wordQ struct {
	*Queue
	tb testing.TB
}

func (w wordQ) words(ps [][]byte) []uint64 {
	var vs []uint64
	for _, p := range ps {
		v, err := decodePayload(p)
		if err != nil {
			w.tb.Error(err)
		}
		vs = append(vs, v)
	}
	return vs
}

func payloadsOf(vs []uint64) [][]byte {
	ps := make([][]byte, len(vs))
	for i, v := range vs {
		ps[i] = encodedPayload(v)
	}
	return ps
}

func (w wordQ) Enqueue(tid int, v uint64) { w.Queue.Enqueue(tid, encodedPayload(v)) }
func (w wordQ) EnqueueBatch(tid int, vs []uint64) error {
	return w.Queue.EnqueueBatch(tid, payloadsOf(vs))
}
func (w wordQ) DequeueBatch(tid, max int) []uint64 { return w.words(w.Queue.DequeueBatch(tid, max)) }
func (w wordQ) Dequeue(tid int) (uint64, bool) {
	vs := w.DequeueBatch(tid, 1)
	if len(vs) == 0 {
		return 0, false
	}
	return vs[0], true
}
func (w wordQ) DequeueLeased(tid, max int) ([]uint64, []uint64) {
	ps, idxs := w.Queue.DequeueLeased(tid, max)
	return w.words(ps), idxs
}

// blobInfo registers the adapter the way package queues registers its
// own implementations. 168 bytes is three whole blob lines, enough for
// every encodedPayload.
func blobInfo(tb testing.TB, acked bool) queues.Info {
	cfg := func(n int) Config { return Config{Threads: n, MaxPayload: 168, Acked: acked} }
	return queues.Info{Name: "blobq", Durable: true,
		New:     func(h *pmem.Heap, n int) queues.Queue { return wordQ{New(h, cfg(n)), tb} },
		Recover: func(h *pmem.Heap, n int) queues.Queue { return wordQ{Recover(h, cfg(n)), tb} }}
}

// The single-queue audits of package qtest, one body for every queue.
func TestFIFOAndModel(t *testing.T) { qtest.RunSemantics(t, blobInfo(t, false)) }
func TestConcurrentPayloadIntegrity(t *testing.T) {
	qtest.RunConcurrent(t, blobInfo(t, false), 4, 1500)
}
func TestQuiescentCrashRecovery(t *testing.T) { qtest.RunCrashRecovery(t, blobInfo(t, true), 5) }
func TestEdgeCases(t *testing.T) {
	for _, acked := range []bool{false, true} {
		t.Run(fmt.Sprintf("acked=%v", acked), func(t *testing.T) { qtest.RunEdgeCases(t, blobInfo(t, acked)) })
	}
}

// encodedPayload embeds v and a checksum into a variable-length body
// so corruption or cross-wiring of blobs is detectable.
func encodedPayload(v uint64) []byte {
	n := 16 + int(v%150)
	p := make([]byte, n)
	for i := 0; i < 8; i++ {
		p[i] = byte(v >> (8 * i))
	}
	var sum byte
	for i := 16; i < n; i++ {
		p[i] = byte(int(v) + i)
		sum += p[i]
	}
	p[8] = sum
	p[9] = byte(n)
	return p
}

func decodePayload(p []byte) (uint64, error) {
	if len(p) < 16 {
		return 0, fmt.Errorf("payload too short: %d", len(p))
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(p[i]) << (8 * i)
	}
	if int(p[9]) != len(p) {
		return v, fmt.Errorf("payload %x: length %d, embedded %d", v, len(p), p[9])
	}
	var sum byte
	for i := 16; i < len(p); i++ {
		if p[i] != byte(int(v)+i) {
			return v, fmt.Errorf("payload %x: corrupt body at %d", v, i)
		}
		sum += p[i]
	}
	if p[8] != sum {
		return v, fmt.Errorf("payload %x: checksum mismatch", v)
	}
	return v, nil
}

// pinQ is the verb surface the two instantiations share once payloads
// are viewed as words: *queues.OptUnlinkedQ has it as it stands, a blob
// queue through wordQ.
type pinQ interface {
	queues.Queue
	EnqueueBatch(tid int, vs []uint64) error
	DequeueBatch(tid, max int) []uint64
	DequeueLeased(tid, max int) (vs, idxs []uint64)
	AckTo(tid int, idx uint64)
}

// pinState threads FIFO content through the pin rows: every enqueue
// takes the next value, every dequeue must return the next expected.
type pinState struct {
	t          *testing.T
	q          pinQ
	next, want uint64
	idxs       []uint64 // indices of the last leased batch
}

func (s *pinState) fresh(n int) []uint64 {
	vs := make([]uint64, n)
	for i := range vs {
		s.next++
		vs[i] = s.next
	}
	return vs
}

func (s *pinState) got(vs []uint64, n int) {
	s.t.Helper()
	if len(vs) != n {
		s.t.Fatalf("dequeued %d items, want %d", len(vs), n)
	}
	for _, v := range vs {
		if s.want++; v != s.want {
			s.t.Fatalf("dequeued %d, want %d (FIFO broken)", v, s.want)
		}
	}
}

func (s *pinState) empty() {
	s.t.Helper()
	if vs := s.q.DequeueBatch(0, 8); len(vs) != 0 {
		s.t.Fatal("queue should be empty")
	}
	if _, ok := s.q.Dequeue(0); ok {
		s.t.Fatal("queue should be empty")
	}
}

// persistPins is the per-verb persist budget of the second-amendment
// queue. Rows run in order on one warm queue and measure only op; prep
// enqueues that many items first, unmeasured. items is how many nodes
// op makes durable: it must flush exactly that many node lines plus
// their payload lines. acked rows need ack mode; the others hold in
// both modes.
var persistPins = []struct {
	verb             string
	acked            bool
	prep             int
	op               func(s *pinState)
	fences, ntstores uint64
	items            uint64
}{
	{verb: "Enqueue", fences: 100, items: 100, op: func(s *pinState) {
		for _, v := range s.fresh(100) {
			s.q.Enqueue(0, v)
		}
	}},
	{verb: "Dequeue", fences: 100, ntstores: 100, op: func(s *pinState) {
		for i := 0; i < 100; i++ {
			v, ok := s.q.Dequeue(0)
			if !ok {
				s.t.Fatal("unexpected empty")
			}
			s.got([]uint64{v}, 1)
		}
	}},
	{verb: "EnqueueBatch", fences: 1, items: 46, op: func(s *pinState) { s.q.EnqueueBatch(0, s.fresh(46)) }},
	{verb: "DequeueBatch", fences: 1, ntstores: 1, op: func(s *pinState) { s.got(s.q.DequeueBatch(0, 16), 16) }},
	{verb: "DequeueBatchRest", fences: 1, ntstores: 1, op: func(s *pinState) { s.got(s.q.DequeueBatch(0, 64), 30) }},
	// Once the emptying dequeue is durable, empty polls are elided whole.
	{verb: "EmptyPolls", op: func(s *pinState) {
		for i := 0; i < 100; i++ {
			s.empty()
		}
	}},
	{verb: "DequeueLeased", acked: true, prep: 32, op: func(s *pinState) {
		var vs []uint64
		vs, s.idxs = s.q.DequeueLeased(0, 32)
		s.got(vs, 32)
	}},
	{verb: "AckTo", acked: true, fences: 1, ntstores: 1, op: func(s *pinState) { s.q.AckTo(0, s.idxs[31]) }},
	{verb: "AckToRedundant", acked: true, op: func(s *pinState) {
		s.q.AckTo(0, s.idxs[31])
		s.q.AckTo(0, s.idxs[0])
	}},
	{verb: "EmptyLeased", acked: true, op: func(s *pinState) {
		for i := 0; i < 100; i++ {
			if vs, _ := s.q.DequeueLeased(0, 8); len(vs) != 0 {
				s.t.Fatal("queue should be empty")
			}
		}
	}},
}

// TestOneFenceZeroPostFlush: both instantiations of the core, plain and
// acked, keep the paper's two optimal characteristics on every verb —
// the fence budget above, and not one access to a flushed line, however
// many lines an item spans.
func TestOneFenceZeroPostFlush(t *testing.T) {
	for _, inst := range []struct {
		name  string
		acked bool
		lines uint64 // cache lines flushed per enqueued item
		// stores is the Stores counted per enqueued item, and no other
		// verb stores: three by the core (linked cleared, index, linked
		// set), then the word itself, or the codec's two node words (tag
		// and length) and eight for each of a blob's three lines, however
		// they are issued.
		stores uint64
		mk     func(h *pmem.Heap) pinQ
	}{
		{"word", false, 1, 4, func(h *pmem.Heap) pinQ { return queues.NewOptUnlinkedQ(h, 1) }},
		{"word-acked", true, 1, 4, func(h *pmem.Heap) pinQ { return queues.NewOptUnlinkedQAcked(h, 1) }},
		{"blob", false, 4, 5 + 8*3, func(h *pmem.Heap) pinQ { return blobInfo(t, false).New(h, 1).(pinQ) }},
		{"blob-acked", true, 4, 5 + 8*3, func(h *pmem.Heap) pinQ { return blobInfo(t, true).New(h, 1).(pinQ) }},
	} {
		t.Run(inst.name, func(t *testing.T) {
			h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 2})
			s := &pinState{t: t, q: inst.mk(h)}
			for i := 0; i < 300; i++ { // warm the pools past area creation
				s.q.Enqueue(0, s.fresh(1)[0])
				v, _ := s.q.Dequeue(0)
				s.got([]uint64{v}, 1)
			}
			for _, pin := range persistPins {
				if pin.acked && !inst.acked {
					continue
				}
				t.Run(pin.verb, func(t *testing.T) {
					s.t = t
					for _, v := range s.fresh(pin.prep) {
						s.q.Enqueue(0, v)
					}
					before := h.TotalStats()
					pin.op(s)
					d := h.TotalStats().Sub(before)
					if d.Fences != pin.fences || d.NTStores != pin.ntstores || d.Flushes != pin.items*inst.lines {
						t.Errorf("issued fences=%d ntstores=%d flushes=%d, want %d/%d/%d",
							d.Fences, d.NTStores, d.Flushes, pin.fences, pin.ntstores, pin.items*inst.lines)
					}
					if d.Stores != pin.items*inst.stores {
						t.Errorf("stores = %d, want %d", d.Stores, pin.items*inst.stores)
					}
					if d.PostFlushAccesses != 0 {
						t.Errorf("post-flush accesses = %d, want 0", d.PostFlushAccesses)
					}
				})
			}
		})
	}
}

// TestRecycledBlobRewriteZeroPostFlush: the blob1k-acked round run past
// one area's 1024 slots, so most blobs written back land on a slot whose
// lines the previous owner's write-back left flushed. The allocator's
// ClearLineState makes that rewrite an allocation miss, not an access to
// flushed content: zero post-flush accesses, whether or not a flush
// invalidates the line. The first round, which creates the pool's
// area, is not counted.
func TestRecycledBlobRewriteZeroPostFlush(t *testing.T) {
	for _, retain := range []bool{false, true} {
		h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 1, FlushRetainsLine: retain})
		cfg := Config{Threads: 1, MaxPayload: 1024, Acked: true}
		q := New(h, cfg)
		batch := make([][]byte, 8)
		const rounds = 300
		for i := 0; i < rounds; i++ {
			for j := range batch {
				batch[j] = payloadFor(uint64(i*8+j), 1024)
			}
			before := h.TotalStats()
			q.EnqueueBatch(0, batch)
			ps, idxs := q.DequeueLeased(0, 8)
			if len(ps) != 8 || !bytes.Equal(ps[7], batch[7]) {
				t.Fatalf("retain=%v round %d: leased %d payloads, or the last is not the one published", retain, i, len(ps))
			}
			q.AckTo(0, idxs[7])
			if d := h.TotalStats().Sub(before); i > 0 && (d.PostFlushAccesses != 0 || d.Flushes != 8*uint64(q.lines+1)) {
				t.Fatalf("retain=%v round %d: %d post-flush accesses and %d flushes, want 0 and %d",
					retain, i, d.PostFlushAccesses, d.Flushes, 8*(q.lines+1))
			}
		}
		if st := q.PoolStats(); st.Areas != 1 || st.ThreadFree+st.DepotFree+st.Limbo >= rounds*8 {
			t.Fatalf("retain=%v: %d areas with %d free slots for %d messages: the rounds no longer recycle slots",
				retain, st.Areas, st.ThreadFree+st.DepotFree+st.Limbo, rounds*8)
		}
	}
}

// TestDequeueBatchCrash: a crash mid-DequeueBatch may cost at most the
// unacknowledged window; acknowledged payloads never reappear and
// whatever recovery resurrects is an intact FIFO suffix. Kept beside
// the word queue's twin for what only multi-line nodes can show: a
// blob's lines are retired with its node line, never ahead of the
// covering fence, or a redelivered payload would come back overwritten.
func TestDequeueBatchCrash(t *testing.T) {
	const n, window = 60, 6
	for seed := int64(1); seed <= 5; seed++ {
		h := newHeap(pmem.ModeCrash)
		cfg := Config{Threads: 1}
		q := New(h, cfg)
		for i := 1; i <= n; i++ {
			q.Enqueue(0, encodedPayload(uint64(i)))
		}
		rng := rand.New(rand.NewSource(seed))
		h.ScheduleCrashAtAccess(h.AccessCount() + int64(rng.Intn(600)) + 1)
		acked := map[uint64]bool{}
		nAcked := 0
		for {
			var ps [][]byte
			if pmem.Protect(func() { ps = q.DequeueBatch(0, window) }) {
				break
			}
			for _, p := range ps {
				v, err := decodePayload(p)
				if err != nil {
					t.Fatalf("seed %d: delivered payload corrupt: %v", seed, err)
				}
				acked[v] = true
				nAcked++
			}
			if len(ps) == 0 {
				h.CrashNow()
				break
			}
		}
		h.FinalizeCrash(rand.New(rand.NewSource(seed * 17)))
		h.Restart()
		recovered := qtest.Drain(wordQ{Recover(h, cfg), t}, 0)
		for i, v := range recovered {
			if acked[v] {
				t.Fatalf("seed %d: acknowledged payload %d recovered again", seed, v)
			}
			if want := n - len(recovered) + i + 1; v != uint64(want) {
				t.Fatalf("seed %d: recovered[%d] = %d, want %d (suffix broken)", seed, i, v, want)
			}
		}
		if lost := n - nAcked - len(recovered); lost < 0 || lost > window {
			t.Fatalf("seed %d: %d payloads lost, allowance %d", seed, lost, window)
		}
	}
}

// TestExhaustiveCrashPoints cuts a short script at every other memory
// access; the adapter checks the integrity of every payload recovery
// resurrects.
func TestExhaustiveCrashPoints(t *testing.T) {
	stride := int64(2)
	if testing.Short() {
		stride = 9
	}
	script := []qtest.ScriptOp{{Enq: true, V: 1}, {Enq: true, V: 2}, {}, {}, {Enq: true, V: 3}, {Enq: true, V: 4}, {}, {Enq: true, V: 5}, {}, {}}
	qtest.RunCrashSweep(t, blobInfo(t, false), script, stride, 1)
}

// TestCrashSweepRecycledSlots cuts enqueues that write into slots
// another tid freed, so a whole stale blob — every seal of its previous
// life intact — is on media under each half-written one.
func TestCrashSweepRecycledSlots(t *testing.T) {
	stride := int64(5)
	if testing.Short() {
		stride = 23
	}
	for _, acked := range []bool{false, true} {
		t.Run(fmt.Sprintf("acked=%v", acked), func(t *testing.T) {
			qtest.RunRecycledCrashSweep(t, blobInfo(t, acked), stride)
		})
	}
}

// TestRecycledSlotStaleSealsRefused builds the torn rewrite the boot
// epoch in a blob's tag exists for, by construction rather than by an
// eviction draw. A blob is written and consumed, and the heap loses
// power at quiescence; after recovery the same tid's first enqueue —
// the same tag sequence number — lands in the same slot. That slot's
// payload lines are then put back to their previous-boot image, as if
// only its node line had reached media before a crash. Only the epoch
// tells those stale seals from the new tag's, and recovery must refuse
// the node instead of delivering the old payload under it.
func TestRecycledSlotStaleSealsRefused(t *testing.T) {
	h := newHeap(pmem.ModeCrash)
	cfg := Config{Threads: 1, MaxPayload: 112}
	crash := func(seed int64) {
		h.CrashNow()
		h.FinalizeCrash(rand.New(rand.NewSource(seed)))
		h.Restart()
	}
	q := New(h, cfg)
	q.Enqueue(0, payloadFor(1, 100))
	if _, ok := q.Dequeue(0); !ok {
		t.Fatal("first boot delivered nothing")
	}
	crash(1)
	cfg.norm()
	lines := 1 + cfg.blobLines()
	area := nodeArea(h, lines)
	slotWords := lines * pmem.WordsPerLine
	image := func() []uint64 {
		img := make([]uint64, area.Slots*slotWords)
		for i := range img {
			img[i] = h.RawImg(area.Base + pmem.Addr(i*pmem.WordBytes))
		}
		return img
	}
	prev := image()

	q = Recover(h, cfg)
	q.Enqueue(0, payloadFor(2, 100))
	crash(2)
	rewritten := -1
	for i, w := range image() {
		if w == prev[i] {
			continue
		}
		if rewritten >= 0 && i/slotWords != rewritten {
			t.Fatalf("the second boot's one enqueue rewrote slots %d and %d", rewritten, i/slotWords)
		}
		rewritten = i / slotWords
		if i%slotWords < pmem.WordsPerLine {
			continue // the node line keeps the new tag
		}
		a := area.Base + pmem.Addr(i*pmem.WordBytes)
		h.Store(0, a, prev[i])
		h.Persist(0, a)
	}
	if rewritten < 0 || prev[rewritten*slotWords+int((pnBlob+sealOff)/pmem.WordBytes)] == 0 {
		t.Fatalf("the second boot's enqueue did not recycle a slot sealed in the first (slot %d)", rewritten)
	}
	crash(3)

	q = Recover(h, cfg)
	if p, ok := q.Dequeue(0); ok {
		t.Fatalf("recovery delivered %d bytes from a blob whose seals are a previous boot's", len(p))
	}
}

// TestBlobNodeIsOneSlot: a blob node is one slot of the core's one
// pool, its node line and its blob together. Root slot 6, where the
// blob lines once had a pool of their own, stays zero after New and
// after Recover; the pool's footprint grows by exactly one slot per
// enqueued blob; and a recovery over recycled slots in which one line
// of one blob is torn drops exactly that node.
func TestBlobNodeIsOneSlot(t *testing.T) {
	const backlog, torn = 20, 9
	h := newHeap(pmem.ModeCrash)
	cfg := Config{Threads: 1, MaxPayload: 112}
	cfg.norm()
	lines := 1 + cfg.blobLines()
	rootSlot6 := func(when string) {
		t.Helper()
		if v := h.Load(0, h.RootAddr(6)); v != 0 {
			t.Fatalf("after %s, root slot 6 holds %#x, want 0", when, v)
		}
	}
	held := func(q *Queue) int {
		st := q.PoolStats()
		return st.Areas*1024 - st.ThreadFree - st.DepotFree - st.Limbo
	}
	q := New(h, cfg)
	rootSlot6("New")
	for i := 0; i < 200; i++ { // 1 600 blobs through one area of 1 024 slots
		for j := 0; j < 8; j++ {
			q.Enqueue(0, payloadFor(uint64(i*8+j), 100))
		}
		if got := q.DequeueBatch(0, 8); len(got) != 8 {
			t.Fatalf("round %d dequeued %d blobs, want 8", i, len(got))
		}
	}
	if st := q.PoolStats(); st.Areas != 1 {
		t.Fatalf("%d areas after 1 600 blobs: the rounds no longer recycle slots", st.Areas)
	}
	before := held(q)
	for i := uint64(0); i < backlog; i++ {
		q.Enqueue(0, payloadFor(1<<20+i, 100))
	}
	if grew := held(q) - before; grew != backlog {
		t.Fatalf("%d enqueued blobs took %d slots of the pool, want one each", backlog, grew)
	}
	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(5)))
	h.Restart()

	// The backlog is the linked slots with the largest indices; tear
	// the second blob line of its torn'th node.
	area := nodeArea(h, lines)
	type linked struct {
		index uint64
		pn    pmem.Addr
	}
	var nodes []linked
	for s := 0; s < area.Slots; s++ {
		pn := area.Base + pmem.Addr(s*lines*pmem.CacheLineBytes)
		if h.Load(0, pn+queues.NodePayload-8) == 1 {
			nodes = append(nodes, linked{h.Load(0, pn+queues.NodePayload-16), pn})
		}
	}
	slices.SortFunc(nodes, func(a, b linked) int { return cmp.Compare(a.index, b.index) })
	if len(nodes) < backlog {
		t.Fatalf("%d linked slots on media, want at least the backlog's %d", len(nodes), backlog)
	}
	seal := nodes[len(nodes)-backlog+torn].pn + pnBlob + pmem.CacheLineBytes + sealOff
	h.Store(0, seal, h.Load(0, seal)^1<<8) // another tag's seal: a line of the slot's previous life
	h.Persist(0, seal)

	q = Recover(h, cfg)
	rootSlot6("Recover")
	if got := held(q); got != backlog {
		t.Fatalf("recovery holds %d slots, want the %d surviving blobs and the dummy", got, backlog)
	}
	for i := uint64(0); i < backlog; i++ {
		if i == torn {
			continue
		}
		if p, ok := q.Dequeue(0); !ok || !bytes.Equal(p, payloadFor(1<<20+i, 100)) {
			t.Fatalf("recovered blob %d missing or not the one published (ok=%v)", i, ok)
		}
	}
	if _, ok := q.Dequeue(0); ok {
		t.Fatal("recovery delivered more than the backlog without its torn node")
	}
}

// TestMultiCrashWithBlobReuse drives several crash/recover cycles so
// recovered free lists hand out blobs that were sealed in earlier
// incarnations; TestQuiescentCrashRecovery runs the same cycles on the
// acked queue.
func TestMultiCrashWithBlobReuse(t *testing.T) { qtest.RunCrashRecovery(t, blobInfo(t, false), 5) }

// TestAckedLeaseRedelivery pins the ack-mode contract for byte
// payloads: leased-but-unacknowledged payloads are redelivered by
// recovery byte-for-byte exactly once (their blobs stay allocated until
// the covering ack), acknowledged ones never reappear, and Config.Acked
// must match the heap.
func TestAckedLeaseRedelivery(t *testing.T) {
	h := newHeap(pmem.ModeCrash)
	cfg := Config{Threads: 2, MaxPayload: 120, Acked: true}
	q := New(h, cfg)
	for i := uint64(1); i <= 20; i++ {
		q.Enqueue(0, payloadFor(i, 9+int(i%100)))
	}
	ps, idxs := q.DequeueLeased(1, 10)
	if len(ps) != 10 {
		t.Fatalf("leased %d payloads, want 10", len(ps))
	}
	q.AckTo(1, idxs[5])
	if got := q.AckedTo(); got != 6 {
		t.Fatalf("AckedTo = %d, want 6", got)
	}

	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(21)))
	h.Restart()
	if !func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		Recover(h, Config{Threads: 2, MaxPayload: 120})
		return
	}() {
		t.Fatal("Recover with Acked=false on an acked queue did not panic")
	}
	rq := Recover(h, cfg)

	// Payloads 7..20 come back in order and intact; 1..6 are gone.
	for want := uint64(7); want <= 20; want++ {
		p, ok := rq.Dequeue(0)
		if !ok || !bytes.Equal(p, payloadFor(want, 9+int(want%100))) {
			t.Fatalf("recovered payload %d missing or corrupted (ok=%v)", want, ok)
		}
	}
	if _, ok := rq.Dequeue(0); ok {
		t.Fatal("recovered queue should be empty")
	}
}

// TestRecoverRefusesDuplicateIndex forges live nodes that share one
// index — a state the protocol cannot produce (indices are assigned under
// the link CAS) and recovery cannot order. The one recovery body refuses
// it for both instantiations; blobq's own recovery used to chain both
// nodes silently.
func TestRecoverRefusesDuplicateIndex(t *testing.T) {
	const nodeIndex = queues.NodePayload - 16 // the core's index word opens the node line
	for _, inst := range []struct {
		in    queues.Info
		lines int // the node slot's lines
	}{{mustLookup(t, "opt-unlinked"), 1}, {blobInfo(t, false), 4}} {
		in := inst.in
		t.Run(in.Name, func(t *testing.T) {
			// Recovery places the nodes by index, and the forged
			// duplicate is refused where the scan meets the indices in
			// order (item 3 takes the index of item 2: 1, 2, 2) and out
			// of order (item 1 takes the index of item 3: 3, 2, 3). A
			// span of indices far wider than the nodes is sorted
			// instead, and refused there (items 1 and 3 both take index
			// 2^40: 2^40, 2, 2^40).
			for _, forge := range []struct {
				slots []uint64
				index uint64
			}{{[]uint64{3}, 2}, {[]uint64{1}, 3}, {[]uint64{1, 3}, 1 << 40}} {
				name := ""
				for _, s := range forge.slots {
					name += fmt.Sprintf("slot%d=", s)
				}
				t.Run(fmt.Sprintf("%sindex%d", name, forge.index), func(t *testing.T) {
					h := newHeap(pmem.ModeCrash)
					q := in.New(h, 1)
					for v := uint64(1); v <= 3; v++ {
						q.Enqueue(0, v)
					}
					h.CrashNow()
					h.FinalizeCrash(rand.New(rand.NewSource(1)))
					h.Restart()
					// Slot 0 of the first area is the dummy; slots 1..3
					// hold the items at indices 1..3.
					nodes := nodeArea(h, inst.lines).Base
					for _, slot := range forge.slots {
						a := nodes + pmem.Addr(slot*uint64(inst.lines))*pmem.CacheLineBytes + nodeIndex
						if got := h.Load(0, a); got != slot {
							t.Fatalf("node layout moved: slot %d carries index %d", slot, got)
						}
						h.Store(0, a, forge.index)
						h.Persist(0, a)
					}
					want := fmt.Sprintf("two live nodes with index %d", forge.index)
					defer func() {
						r := recover()
						if err, _ := r.(error); !errors.Is(err, pmem.ErrCorrupt) || !strings.Contains(err.Error(), want) {
							t.Fatalf("recovery over a duplicate index: got %v, want an error wrapping pmem.ErrCorrupt that refuses %s", r, want)
						}
					}()
					in.Recover(h, 1)
				})
			}
		})
	}
}

// nodeArea is the first area of the core's node pool on h, for a queue
// whose node slots span lines cache lines: package queues anchors the
// pool's registry at root slot 2, with 4096 slots an area for one-line
// nodes and 1024 for larger ones.
func nodeArea(h *pmem.Heap, lines int) ssmem.Area {
	cfg := ssmem.Config{SlotBytes: lines * pmem.CacheLineBytes, SlotsPerArea: 1024, Threads: 1, RootSlot: 2}
	if lines == 1 {
		cfg.SlotsPerArea = 4096
	}
	return ssmem.Areas(h, cfg)[0]
}

func mustLookup(t *testing.T, name string) queues.Info {
	t.Helper()
	in, ok := queues.Lookup(name)
	if !ok {
		t.Fatalf("queue %q not registered", name)
	}
	return in
}

// TestBatchAllocs pins the Go allocations of one EnqueueBatch(8) +
// DequeueBatch(8) round at 1 KiB: the payload copy of each enqueue and
// the dequeue's result slice, made once at its final size — 9. It was
// 20 while every volatile node was an allocation of its own (each is
// now its slot's entry in the core's node mirror) and the result slice
// grew to 8 in four steps. A ceiling, so data-plane work can only lower
// it.
func TestBatchAllocs(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 2})
	q := New(h, Config{Threads: 1, MaxPayload: 1024})
	batch := make([][]byte, 8)
	for i := range batch {
		batch[i] = payloadFor(uint64(i), 1024)
	}
	round := func() {
		q.EnqueueBatch(0, batch)
		q.DequeueBatch(0, 8)
	}
	for i := 0; i < 1000; i++ { // past pool and slice growth
		round()
	}
	if got := testing.AllocsPerRun(500, round); got > 9 {
		t.Fatalf("EnqueueBatch(8)+DequeueBatch(8) at 1 KiB = %v allocs, want <= 9", got)
	}
}

// TestConsumedBlobRetainsNothing pins that a consumed payload leaves
// the queue with its message: 3 000 1 KiB payloads enqueued and then
// consumed — dequeued, or leased and acknowledged — leave the Go heap
// where it was, though their slots, and the slots' entries in the
// core's node mirror, wait unreused in the pool.
func TestConsumedBlobRetainsNothing(t *testing.T) {
	const n, batchN = 3000, 60
	for _, acked := range []bool{false, true} {
		h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 1})
		q := New(h, Config{Threads: 1, MaxPayload: 1024, Acked: acked})
		batch := make([][]byte, batchN)
		for i := range batch {
			batch[i] = payloadFor(uint64(i), 1024)
		}
		consume := func() {
			if !acked {
				q.DequeueBatch(0, batchN)
			} else if _, idxs := q.DequeueLeased(0, batchN); len(idxs) > 0 {
				q.AckTo(0, idxs[len(idxs)-1])
			}
		}
		q.EnqueueBatch(0, batch[:1]) // the pool's first area, the mirror's first array
		consume()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i += batchN {
			q.EnqueueBatch(0, batch)
		}
		for i := 0; i < n; i += batchN {
			consume()
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(q)
		if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
			t.Fatalf("acked=%v: Go heap grew %d bytes over %d consumed 1 KiB payloads, want < 1 MiB", acked, grew, n)
		}
	}
}

// BenchmarkBlob1kBatch8 is one round of the blob1k-acked shape on the
// queue alone — EnqueueBatch of eight 1 KiB payloads, DequeueLeased(8),
// AckTo — under the default prices: 160 flushed lines and three fences
// a round, the twin of the broker's BenchmarkPublishPollSingle and the
// profile target for what a multi-line publish pays beside its
// persists. What a profile of it leaves since a blob is one
// pmem.WriteBack (400 k rounds, 11.4 µs a round, 2 vCPUs): codec.Write
// 61 % cumulative, of which WriteBack 35 % (24 % the one spin of its
// nineteen FlushNs, 6 % its own flag loop, 3 % queueLine), the volatile
// copy 28 % (growslice and memmove), the staging 5 % and the node
// Stores 2 %; ssmem.clearSlotState 3 %, nineteen plain flag stores per
// recycled blob; spinKernel, the model, 26 % in all.
func BenchmarkBlob1kBatch8(b *testing.B) {
	h := pmem.New(pmem.Config{Bytes: 256 << 20, MaxThreads: 1, Latency: pmem.DefaultLatency()})
	q := New(h, Config{Threads: 1, MaxPayload: 1024, Acked: true})
	batch := make([][]byte, 8)
	for i := range batch {
		batch[i] = payloadFor(uint64(i+1), 1024)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.EnqueueBatch(0, batch)
		ps, idxs := q.DequeueLeased(0, 8)
		if len(ps) != 8 {
			b.Fatalf("leased %d of 8", len(ps))
		}
		q.AckTo(0, idxs[7])
	}
}

// BenchmarkRecoverRecycled is package queues' benchmark of that name
// for the shape of crash-recover's acked blob topics: Recover over a
// 100k backlog of 64 B payloads in ack mode, whose nodes are slots of
// three lines and whose Check reads two seals each. Two tids enqueue
// and consume random batches while the backlog is filled, drained and
// filled again, so the slots follow the indices in neither direction.
// Recovery is idempotent but for the boot epoch it bumps, so every
// iteration recovers the same backlog.
func BenchmarkRecoverRecycled(b *testing.B) {
	const backlog = 100_000
	h := pmem.New(pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 3})
	cfg := Config{Threads: 2, MaxPayload: 64, Acked: true}
	q := New(h, cfg)
	r := rand.New(rand.NewSource(1))
	p := payloadFor(1, 64)
	batch := make([][]byte, 16)
	for i := range batch {
		batch[i] = p
	}
	n := 0
	for _, fill := range []bool{true, false, true} {
		for fill && n < backlog || !fill && n > 0 {
			if tid := r.Intn(2); r.Intn(4) > 0 == fill {
				k := min(1+r.Intn(16), backlog-n)
				if err := q.EnqueueBatch(tid, batch[:k]); err != nil {
					b.Fatal(err)
				}
				n += k
			} else if _, idxs := q.DequeueLeased(tid, 1+r.Intn(16)); len(idxs) > 0 {
				q.AckTo(tid, idxs[len(idxs)-1])
				n -= len(idxs)
			}
		}
	}
	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(1)))
	h.Restart()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Recover(h, cfg)
	}
}
