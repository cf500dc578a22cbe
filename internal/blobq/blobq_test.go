package blobq

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
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

func (w wordQ) Enqueue(tid int, v uint64)          { w.Queue.Enqueue(tid, encodedPayload(v)) }
func (w wordQ) EnqueueBatch(tid int, vs []uint64)  { w.Queue.EnqueueBatch(tid, payloadsOf(vs)) }
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

// The generic audits of package queues, one body for every queue.
func TestFIFOAndModel(t *testing.T) { qtest.RunSemantics(t, blobInfo(t, false)) }
func TestConcurrentPayloadIntegrity(t *testing.T) {
	qtest.RunConcurrent(t, blobInfo(t, false), 4, 1500)
}
func TestQuiescentCrashRecovery(t *testing.T) {
	qtest.RunCrashRecovery(t, blobInfo(t, false), 3)
	qtest.RunCrashRecovery(t, blobInfo(t, true), 3)
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
	EnqueueBatch(tid int, vs []uint64)
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
		// set), then the word itself, or the codec's three node words and
		// eight for each of a blob's three lines, however they are issued.
		stores uint64
		mk     func(h *pmem.Heap) pinQ
	}{
		{"word", false, 1, 4, func(h *pmem.Heap) pinQ { return queues.NewOptUnlinkedQ(h, 1) }},
		{"word-acked", true, 1, 4, func(h *pmem.Heap) pinQ { return queues.NewOptUnlinkedQAcked(h, 1) }},
		{"blob", false, 4, 6 + 8*3, func(h *pmem.Heap) pinQ { return blobInfo(t, false).New(h, 1).(pinQ) }},
		{"blob-acked", true, 4, 6 + 8*3, func(h *pmem.Heap) pinQ { return blobInfo(t, true).New(h, 1).(pinQ) }},
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
// invalidates the line. The first round, which creates the pools'
// areas, is not counted.
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
		cfg.norm()
		if areas := ssmem.Areas(h, *cfg.blobPool()); len(areas) != 1 || areas[0].Slots >= rounds*8 {
			t.Fatalf("retain=%v: %d blob areas for %d messages: the rounds no longer recycle slots", retain, len(areas), rounds*8)
		}
	}
}

// TestDequeueBatchCrash: a crash mid-DequeueBatch may cost at most the
// unacknowledged window; acknowledged payloads never reappear and
// whatever recovery resurrects is an intact FIFO suffix. Kept beside
// the word queue's twin for what only an aux pool can show: blobs are
// retired with their node, never ahead of the covering fence, or a
// redelivered payload would come back overwritten.
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
		rq := Recover(h, cfg)
		var recovered []uint64
		for {
			p, ok := rq.Dequeue(0)
			if !ok {
				break
			}
			v, err := decodePayload(p)
			if err != nil {
				t.Fatalf("seed %d: recovered payload corrupt: %v", seed, err)
			}
			if acked[v] {
				t.Fatalf("seed %d: acknowledged payload %d recovered again", seed, v)
			}
			recovered = append(recovered, v)
		}
		for i, v := range recovered {
			if want := n - len(recovered) + i + 1; v != uint64(want) {
				t.Fatalf("seed %d: recovered[%d] = %d, want %d (suffix broken)", seed, i, v, want)
			}
		}
		if lost := n - nAcked - len(recovered); lost < 0 || lost > window {
			t.Fatalf("seed %d: %d payloads lost, allowance %d", seed, lost, window)
		}
	}
}

// TestExhaustiveCrashPoints sweeps every memory access of a script
// that recycles blobs across an earlier crash (exercising the
// boot-epoch tag salting) and validates payload integrity of whatever
// recovery resurrects.
func TestExhaustiveCrashPoints(t *testing.T) {
	script := []bool{true, true, false, false, true, true, false, true, false, false}
	// First measure the access count.
	{
		h := newHeap(pmem.ModeCrash)
		q := New(h, Config{Threads: 1})
		h.ScheduleCrashAtAccess(1 << 60)
		runScript(q, script, nil)
		total := h.AccessCount()
		stride := int64(2)
		if testing.Short() {
			stride = 9
		}
		for k := int64(1); k <= total; k += stride {
			testOneCrashPoint(t, script, k)
		}
	}
}

// TestCrashSweepRecycledSlots cuts enqueues that write into node and
// blob slots another tid freed, so a whole stale blob — every seal of
// its previous life intact — is on media under each half-written one.
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

func runScript(q *Queue, script []bool, model *[]uint64) {
	next := uint64(1)
	for _, enq := range script {
		if enq {
			q.Enqueue(0, encodedPayload(next))
			if model != nil {
				*model = append(*model, next)
			}
			next++
		} else {
			if _, ok := q.Dequeue(0); ok && model != nil {
				*model = (*model)[1:]
			}
		}
	}
}

func testOneCrashPoint(t *testing.T, script []bool, k int64) {
	t.Helper()
	h := newHeap(pmem.ModeCrash)
	cfg := Config{Threads: 1}
	q := New(h, cfg)
	h.ScheduleCrashAtAccess(k)
	var model []uint64
	var pendingEnq *uint64
	pendingDeq := false
	next := uint64(1)
	for _, enq := range script {
		enq := enq
		v := next
		crashed := pmem.Protect(func() {
			if enq {
				q.Enqueue(0, encodedPayload(v))
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
	h.FinalizeCrash(rand.New(rand.NewSource(k)))
	h.Restart()
	rq := Recover(h, cfg)
	var got []uint64
	for {
		p, ok := rq.Dequeue(0)
		if !ok {
			break
		}
		v, err := decodePayload(p)
		if err != nil {
			t.Fatalf("crash %d: corrupt recovered payload: %v", k, err)
		}
		got = append(got, v)
	}
	if eq(got, model) {
		return
	}
	alt := append([]uint64(nil), model...)
	if pendingEnq != nil {
		alt = append(alt, *pendingEnq)
	} else if pendingDeq && len(alt) > 0 {
		alt = alt[1:]
	}
	if (pendingEnq != nil || pendingDeq) && eq(got, alt) {
		return
	}
	t.Fatalf("crash %d: recovered %v, want %v or %v", k, got, model, alt)
}

func eq(a, b []uint64) bool {
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

// TestMultiCrashWithBlobReuse drives several crash/recover cycles so
// recovered free lists hand out blobs that were sealed in earlier
// incarnations.
func TestMultiCrashWithBlobReuse(t *testing.T) {
	h := newHeap(pmem.ModeCrash)
	cfg := Config{Threads: 2}
	q := New(h, cfg)
	var model []uint64
	next := uint64(1)
	rng := rand.New(rand.NewSource(8))
	for cycle := 0; cycle < 5; cycle++ {
		for op := 0; op < 150; op++ {
			if rng.Intn(2) == 0 {
				q.Enqueue(op%2, encodedPayload(next))
				model = append(model, next)
				next++
			} else if _, ok := q.Dequeue(op % 2); ok {
				model = model[1:]
			}
		}
		h.CrashNow()
		h.FinalizeCrash(rand.New(rand.NewSource(int64(cycle))))
		h.Restart()
		q = Recover(h, cfg)
	}
	for i, want := range model {
		p, ok := q.Dequeue(0)
		if !ok {
			t.Fatalf("ended at %d of %d", i, len(model))
		}
		v, err := decodePayload(p)
		if err != nil || v != want {
			t.Fatalf("item %d: got %d (%v), want %d", i, v, err, want)
		}
	}
}

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

// TestRecoverRefusesDuplicateIndex forges two live nodes with one index
// — a state the protocol cannot produce (indices are assigned under the
// link CAS) and recovery cannot order. The one recovery body refuses it
// for both instantiations; blobq's own recovery used to chain both
// nodes silently.
func TestRecoverRefusesDuplicateIndex(t *testing.T) {
	const (
		poolSlot  = 2                       // the node pool's registry anchor (package queues' root-slot convention)
		nodeIndex = queues.NodePayload - 16 // the core's index word opens the node line
	)
	for _, in := range []queues.Info{mustLookup(t, "opt-unlinked"), blobInfo(t, false)} {
		t.Run(in.Name, func(t *testing.T) {
			// The forged duplicate is refused where the scan meets the
			// indices in order (item 3 takes the index of item 2: 1, 2,
			// 2) and where it has to sort them first (item 1 takes the
			// index of item 3: 3, 2, 3).
			for _, forge := range []struct{ slot, index uint64 }{{3, 2}, {1, 3}} {
				t.Run(fmt.Sprintf("slot%d=index%d", forge.slot, forge.index), func(t *testing.T) {
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
					nodes := ssmem.Areas(h, ssmem.Config{SlotBytes: pmem.CacheLineBytes, Threads: 1, RootSlot: poolSlot})[0].Base
					a := nodes + pmem.Addr(forge.slot)*pmem.CacheLineBytes + nodeIndex
					if got := h.Load(0, a); got != forge.slot {
						t.Fatalf("node layout moved: slot %d carries index %d", forge.slot, got)
					}
					h.Store(0, a, forge.index)
					h.Persist(0, a)
					want := fmt.Sprintf("two live nodes with index %d", forge.index)
					defer func() {
						if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
							t.Fatalf("recovery over a duplicate index: got %v, want the refusal of %s", r, want)
						}
					}()
					in.Recover(h, 1)
				})
			}
		})
	}
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
// core's node mirror, wait unreused in the pools.
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
		q.EnqueueBatch(0, batch[:1]) // the pools' first areas, the mirror's first array
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
// copy 28 % (growslice and memmove), the staging 5 % and the three node
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
