// Package dheap is a durable priority queue over simulated NVRAM,
// extending the paper's discipline — per-thread non-temporal stores
// plus one blocking fence, with order reconstructed at recovery —
// from FIFO order to heap order.
//
// The durable state is deliberately NOT a heap. It is a checksummed
// *entry log*: a fixed pool of entry slots inside one pmem region,
// shared by every thread. A publish claims free slots from the pool,
// NT-stores each entry (seq, key, payload, checksum) with one
// pmem.NTStoreLine per cache line, so each line of it reaches the
// write-pending queue once, and issues a single fence —
// one fence per batch when batched, exactly like the queues'
// EnqueueBatch. A batch reserves its seqs with its slots, in the one
// critical section of the index mutex that claims them: consecutive
// seqs in the batch's order from a plain counter, not one atomic
// increment per entry. A pop-min marks the
// entry consumed with one NTStore of the entry's own seq into the
// entry's state word and covers a whole ready batch with one fence.
// The comparator order lives purely in DRAM — a flat 4-ary min-heap of
// pointer-free {key, seq, slot, len} items beside a slot-indexed mirror
// of the payload bytes, both rebuilt at recovery from the live entries
// (one O(n) heapify) — so sifts cost zero persist instructions and
// pop-min stays O(1) fences. A pop copies payloads out of the mirror:
// a consumer never reads content that was written around the cache.
//
// Soundness of the intent-log scheme:
//
//   - A publish is visible (inserted into the volatile heap) only
//     after its fence, so any entry a consumer can observe is already
//     durable: delivered messages survive the crash as consumed, not
//     as duplicates.
//   - The entry checksum covers seq, key, len and every payload word
//     but NOT the state word. A crash between the publish NTStores
//     and the fence leaves a torn entry whose checksum cannot match;
//     recovery treats it as dead and truncates it from the log —
//     the same torn-tail discipline as the broker's catalog log.
//   - The state word is written only by pop, and only ever with the
//     entry's own seq. Recovery classifies a checksum-valid entry as
//     consumed iff state == seq. Because seqs are globally unique and
//     monotone (recovery resumes from max over every seq AND state
//     word observed, +1), a stale state word left by a previous
//     occupant of the slot can never equal the new occupant's seq —
//     consumed entries cannot resurrect, and live entries cannot be
//     silently swallowed.
//   - Pop returns payloads only after the consume fence, so a
//     returned message is durably consumed. A crash between the
//     consume NTStore and its fence may lose that message (consumed
//     durably, never returned) — bounded by the pop batch size, the
//     same loss window the broker's DequeueBatch already documents.
//
// Delay topics and priority topics are the same structure with
// different keys: a deadline gates readiness (a pop delivers only
// key <= now), a priority is always ready (now = ^uint64(0)).
package dheap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/pmem"
)

const (
	dheapMagic    uint64 = 0x4448656170_31    // "DHeap1": brands the region header, salts entry checksums
	inlinePayload        = 3 * pmem.WordBytes // payload bytes carried in the entry's header line
	slotRegion           = 0                  // root slot anchoring the region base address
)

// ErrFull reports that the entry pool has too few free slots for the
// batch: the caller must drain (pop) or retry — backpressure, not data
// loss. ErrPayloadTooLarge and ErrBatchShape refuse a batch
// with a payload over MaxPayload or with keys and payloads differing
// in number, before any slot is taken or word stored.
var (
	ErrFull            = errors.New("dheap: entry pool full")
	ErrPayloadTooLarge = errors.New("dheap: payload exceeds MaxPayload")
	ErrBatchShape      = errors.New("dheap: keys and payloads differ in length")
)

// Config sizes a new durable heap.
type Config struct {
	// Threads is the number of worker tids: calls pass tids below it.
	Threads int
	// MaxPayload is the largest payload in bytes. 0 means 8 (one word).
	MaxPayload int
	// Capacity is the entry slots per thread id: the pool every tid
	// draws on holds Threads × Capacity. 0 means 1024.
	Capacity int
	// InitTid is the thread id used for initialization persists.
	InitTid int
}

func (c *Config) norm() {
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.MaxPayload <= 0 {
		c.MaxPayload = 8
	}
	if c.Capacity <= 0 {
		c.Capacity = 1024
	}
}

// item is one live entry in the volatile min-heap: 24 bytes and no
// pointer, so the GC never scans the index. slot names the durable
// entry and the payload's maxPayload bytes in the mirror.
type item struct {
	key, seq uint64
	slot     uint32
	len      uint32
}

// scratch is one tid's reusable buffers, touched by that tid only.
type scratch struct {
	words  []uint64 // one entry's checksummed payload words
	staged []item   // a publish batch between its stores and its insert
	popped []item   // a pop batch between its removal and its recycling
}

// Q is a durable priority queue. All methods are safe for concurrent
// use; the volatile index and the free pool are guarded by one mutex
// (the durable writes themselves go to slots the writer owns and need
// no locking).
type Q struct {
	h      *pmem.Heap
	region pmem.Addr

	slots      int // entry slots in the region
	stride     int // lines per entry
	maxPayload int

	mirror  []byte    // DRAM payload copy, maxPayload bytes per slot
	scratch []scratch // per tid

	mu   sync.Mutex
	seq  uint64   // last issued seq: takeSlots reserves a batch's past it
	heap []item   // volatile 4-ary min-heap on (key, seq)
	free []uint32 // free slots, taken from the end
}

// strideFor returns the number of cache lines one entry occupies.
func strideFor(maxPayload int) int {
	extra := max(maxPayload-inlinePayload, 0)
	return 1 + (extra+pmem.CacheLineBytes-1)/pmem.CacheLineBytes
}

// New formats a durable heap in view's region and anchors it at root
// slot 0 under the ordered-persist discipline: the region is
// initialized and its header made durable before the anchor store, so
// a crash mid-format recovers as "never existed" (the caller's
// catalog record is what commits the topic).
func New(view *pmem.Heap, cfg Config) *Q {
	cfg.norm()
	q := &Q{
		h:          view,
		slots:      cfg.Threads * cfg.Capacity,
		stride:     strideFor(cfg.MaxPayload),
		maxPayload: cfg.MaxPayload,
	}
	tid := cfg.InitTid
	size := int64(1+q.slots*q.stride) * pmem.CacheLineBytes
	q.region = view.AllocRaw(tid, size, pmem.CacheLineBytes)
	view.InitRange(tid, q.region, size)

	hw := [8]uint64{dheapMagic, uint64(cfg.Threads), uint64(cfg.Capacity), uint64(q.stride), uint64(q.maxPayload), 0, 0, 0}
	hw[7] = headerSum(hw)
	view.NTStoreLine(tid, q.region, &hw, 0xff)
	view.Fence(tid)
	view.Store(tid, view.RootAddr(slotRegion), uint64(q.region))
	view.Persist(tid, view.RootAddr(slotRegion))

	// Fresh format: every slot is free, appended in reverse so slot 0
	// is taken first.
	q.initVolatile(cfg.Threads)
	for slot := q.slots - 1; slot >= 0; slot-- {
		q.free = append(q.free, uint32(slot))
	}
	return q
}

// Recover rebuilds a durable heap from view's region after a crash:
// it replays every entry slot, classifies each as live (checksum
// valid, state != seq), consumed (checksum valid, state == seq) or
// dead (torn or virgin — truncated from the log), copies live
// payloads into a fresh mirror, heapifies the live items once, and
// resumes the seq counter past every seq and state word ever observed.
// threads bounds the tids callers pass, as Config.Threads does. The
// region's anchor and header are read through a pmem.Reader, so a
// region that is missing, runs off the heap or carries a header New
// did not write is an error wrapping pmem.ErrCorrupt.
func Recover(view *pmem.Heap, threads int) (*Q, error) {
	const tid = 0
	r := pmem.NewReader(view)
	region := r.Ptr(view.RootAddr(slotRegion), pmem.CacheLineBytes)
	if r.Err() != nil {
		return nil, r.Err()
	}
	if region == 0 {
		return nil, r.Errorf("dheap: recover: no region anchored")
	}
	var hw [8]uint64
	for i := range hw {
		hw[i] = r.Word(region + pmem.Addr(i*pmem.WordBytes))
	}
	if hw[0] != dheapMagic || hw[7] != headerSum(hw) {
		return nil, r.Errorf("dheap: recover: bad region header at %#x", uint64(region))
	}
	q := &Q{
		h:          view,
		region:     region,
		stride:     int(hw[3]),
		maxPayload: int(hw[4]),
	}
	// Divided, not multiplied, so no product of the three can wrap: the
	// entries must fit the heap before Range checks where they lie.
	maxLines := uint64(view.Bytes() / pmem.CacheLineBytes)
	hwThreads, hwCap := int(hw[1]), int(hw[2])
	if hwThreads <= 0 || hwCap <= 0 || q.maxPayload < 0 || q.stride != strideFor(q.maxPayload) ||
		uint64(hwCap) > maxLines/uint64(hwThreads)/uint64(q.stride) ||
		!r.Range(region, int64(1+hwThreads*hwCap*q.stride)*pmem.CacheLineBytes) {
		return nil, r.Errorf("dheap: recover: inconsistent region header at %#x", uint64(region))
	}
	q.slots = hwThreads * hwCap
	// The pool starts EMPTY: only slots the scan below classifies as
	// dead or consumed are freed. Pre-filling (as New does) would let a
	// later PushBatch silently overwrite a durably-published live entry.
	q.initVolatile(max(threads, hwThreads))

	var maxSeq uint64
	words := q.scratch[tid].words
	// In slot order: live entries join the index.
	for slot := 0; slot < q.slots; slot++ {
		base := q.entryAddr(uint32(slot))
		seq := view.Load(tid, base)
		key := view.Load(tid, base+1*pmem.WordBytes)
		length := view.Load(tid, base+2*pmem.WordBytes)
		state := view.Load(tid, base+3*pmem.WordBytes)
		sum := view.Load(tid, base+7*pmem.WordBytes)
		maxSeq = max(maxSeq, seq, state)
		for i := range words {
			words[i] = view.Load(tid, base+payloadOff(i))
		}
		valid := seq != 0 && length <= uint64(q.maxPayload) &&
			sum == entrySum(seq, key, length, words)
		if !valid || state == seq {
			// Torn, virgin or durably consumed: the slot is free.
			q.free = append(q.free, uint32(slot))
			continue
		}
		wordsToBytes(words, q.mirror[slot*q.maxPayload:][:length])
		q.heap = append(q.heap, item{key: key, seq: seq, slot: uint32(slot), len: uint32(length)})
	}
	// Heapify once, O(n): (key, seq) is total, so order equals n pushes'.
	for i := (len(q.heap) - 2) / heapArity; i >= 0 && len(q.heap) > 1; i-- {
		q.siftDown(i, q.heap[i])
	}
	q.seq = maxSeq
	return q, nil
}

// initVolatile allocates the DRAM side: payload mirror, scratch (one
// entry's checksummed words) for each of threads tids and an empty
// free pool.
func (q *Q) initVolatile(threads int) {
	q.mirror = make([]byte, q.slots*q.maxPayload)
	q.scratch = make([]scratch, threads)
	for t := range q.scratch {
		q.scratch[t].words = make([]uint64, 3+pmem.WordsPerLine*(q.stride-1))
	}
	q.free = make([]uint32, 0, q.slots)
}

// entryAddr returns the address of slot's header line.
func (q *Q) entryAddr(slot uint32) pmem.Addr {
	return q.region + pmem.Addr((1+int(slot)*q.stride)*pmem.CacheLineBytes)
}

// payloadOff is the entry-relative offset of payload word i: words
// 4..6 of the header line, then (past the checksum) the overflow lines.
func payloadOff(i int) pmem.Addr {
	if i >= 3 {
		i++
	}
	return pmem.Addr((4 + i) * pmem.WordBytes)
}

// PushBatch publishes len(keys) entries under a single fence
// (durability amortized like EnqueueBatch). The batch is
// all-or-nothing: on ErrFull, ErrBatchShape or ErrPayloadTooLarge
// nothing is published. Entries become visible to a pop only after
// the fence, so anything observable is durable. Payloads are copied;
// the caller may reuse its buffers as soon as PushBatch returns.
func (q *Q) PushBatch(tid int, keys []uint64, payloads [][]byte) error {
	if len(keys) != len(payloads) {
		return fmt.Errorf("%w: %d keys, %d payloads", ErrBatchShape, len(keys), len(payloads))
	}
	for _, p := range payloads {
		if len(p) > q.maxPayload {
			return fmt.Errorf("%w: %d bytes, MaxPayload %d", ErrPayloadTooLarge, len(p), q.maxPayload)
		}
	}
	if len(keys) == 0 {
		return nil
	}
	if err := q.takeSlots(tid, len(keys)); err != nil {
		return err
	}
	sc := &q.scratch[tid]
	for i := range sc.staged {
		it, p := &sc.staged[i], payloads[i]
		it.key = keys[i]
		it.len = uint32(len(p))
		// The slot is this tid's alone until the insert under mu below.
		copy(q.mirror[int(it.slot)*q.maxPayload:], p)
		q.writeEntry(tid, sc.words, it, p)
	}
	q.h.Fence(tid) // one blocking persist for the whole batch
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, it := range sc.staged {
		q.heap = append(q.heap, it)
		q.siftUp(len(q.heap)-1, it)
	}
	return nil
}

// takeSlots stages n free slots for tid, all-or-nothing, and reserves
// the batch's n seqs with them: consecutive, past every seq issued
// before, in the batch's order.
func (q *Q) takeSlots(tid, n int) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	fl := q.free
	if len(fl) < n {
		return fmt.Errorf("%w: %d slots needed, %d of %d free", ErrFull, n, len(fl), q.slots)
	}
	sc := &q.scratch[tid]
	sc.staged = sc.staged[:0]
	for _, slot := range fl[len(fl)-n:] {
		q.seq++
		sc.staged = append(sc.staged, item{seq: q.seq, slot: slot})
	}
	q.free = fl[:len(fl)-n]
	return nil
}

// headerMask selects every word of an entry's header line but word 3,
// the state word.
const headerMask = 0xff &^ (1 << 3)

// writeEntry NT-stores one entry without fencing, one NTStoreLine per
// line: each line enters the write-pending queue once, as a thread's
// back-to-back stores to one line do on hardware that combines them.
// The full payload capacity is written (zero-padded) so the checksum
// always covers a deterministic word set; the state word (w3) is
// skipped — it belongs to pop, and excluding it from both write and
// checksum is what lets a consume mark survive independently of the
// entry body.
func (q *Q) writeEntry(tid int, words []uint64, it *item, payload []byte) {
	base := q.entryAddr(it.slot)
	bytesToWords(payload, words)
	// Overflow payload lines first, then the header line with the
	// checksum as its last word: NTStoreLine stores in word order and
	// the simulator crash-truncates each line to a prefix of its stores,
	// so a header line whose checksum landed implies the whole header
	// landed.
	for l, ws := 1, words[3:]; len(ws) > 0; l, ws = l+1, ws[pmem.WordsPerLine:] {
		q.h.NTStoreLine(tid, base+pmem.Addr(l*pmem.CacheLineBytes), (*[pmem.WordsPerLine]uint64)(ws), 0xff)
	}
	hdr := [pmem.WordsPerLine]uint64{it.seq, it.key, uint64(it.len), 0, words[0], words[1], words[2],
		entrySum(it.seq, it.key, uint64(it.len), words)}
	q.h.NTStoreLine(tid, base, &hdr, headerMask)
}

// PopReadyBatch is PopReadyBatchAppend into a new slice, with the key of
// each payload returned beside it.
func (q *Q) PopReadyBatch(tid int, maxKey uint64, max int) (payloads [][]byte, keys []uint64) {
	payloads = q.PopReadyBatchAppend(tid, maxKey, max, nil)
	if len(payloads) == 0 {
		return nil, nil
	}
	keys = make([]uint64, len(payloads))
	for i, it := range q.scratch[tid].popped {
		keys[i] = it.key
	}
	return payloads, keys
}

// PopReadyBatchAppend pops up to max entries in (key, seq) order, all
// with key <= maxKey, marking each consumed with one NTStore and
// covering the whole batch with a single fence, and appends their
// payloads to dst. Payloads are returned only after that fence — a
// returned message is durably consumed — and slots are recycled only
// after it too, so a torn consume can lose at most one in-flight batch,
// never duplicate it. An empty pop performs zero persist instructions
// and returns dst as it was. The payloads are the caller's: capped
// views of one buffer per batch, copied out of the mirror before the
// slots can be reused.
func (q *Q) PopReadyBatchAppend(tid int, maxKey uint64, max int, dst [][]byte) [][]byte {
	sc := &q.scratch[tid]
	popped := sc.popped[:0]
	q.mu.Lock()
	for len(popped) < max && len(q.heap) > 0 && q.heap[0].key <= maxKey {
		popped = append(popped, q.heapPop())
	}
	q.mu.Unlock()
	sc.popped = popped
	if len(popped) == 0 {
		return dst
	}
	size := 0
	for _, it := range popped {
		// Consume mark: the entry's own seq into its state word.
		q.h.NTStore(tid, q.entryAddr(it.slot)+3*pmem.WordBytes, it.seq)
		size += int(it.len)
	}
	q.h.Fence(tid) // one blocking persist for the whole ready batch
	buf := make([]byte, size)
	if cap(dst)-len(dst) < len(popped) {
		// Not slices.Grow: the race detector's build allocates twice in it.
		dst = append(make([][]byte, 0, len(dst)+len(popped)), dst...)
	}
	for _, it := range popped {
		n := copy(buf, q.mirror[int(it.slot)*q.maxPayload:][:it.len])
		dst = append(dst, buf[:n:n])
		buf = buf[n:]
	}
	q.mu.Lock()
	for _, it := range popped {
		q.free = append(q.free, it.slot)
	}
	q.mu.Unlock()
	return dst
}

// Depth returns the number of live (published, unconsumed) entries.
func (q *Q) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.heap)
}

// MinKey returns the smallest live key (the next deadline for a delay
// topic) and whether the heap is non-empty.
func (q *Q) MinKey() (uint64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].key, true
}

// --- volatile 4-ary min-heap on (key, seq); zero persists by
// construction. Half a binary heap's levels, and both sifts move a
// hole instead of swapping: one item written per level. Every compare
// is lt. siftDown picks the smallest of a full group of four children
// by a tournament of three lts, with no branch on the keys: a delay
// topic's deadlines arrive nearly sorted, so each pop sinks a
// near-largest leaf from the root through every level, and which child
// is smallest at each level is a coin toss a branch predictor loses
// half the time. ---

const heapArity = 4

// lt is 1 if a orders before b on (key, seq) and 0 otherwise: the
// borrow out of the 128-bit subtraction (a.key, a.seq) − (b.key, b.seq).
func lt(a, b *item) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(a.key, b.key, borrow)
	return int(borrow)
}

// siftUp places it at or above the hole at i.
func (q *Q) siftUp(i int, it item) {
	h := q.heap
	for i > 0 {
		parent := (i - 1) / heapArity
		if lt(&it, &h[parent]) == 0 {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = it
}

// siftDown places it at or below the hole at i.
func (q *Q) siftDown(i int, it item) {
	h := q.heap
	for first := heapArity*i + 1; first < len(h); first = heapArity*i + 1 {
		small := first
		if first+heapArity <= len(h) {
			// Children 0 against 1 and 2 against 3, then the winners: the
			// mask -lt is all ones iff the right winner r is smaller (&3
			// only spares the bounds checks).
			c := (*[heapArity]item)(h[first:])
			l, r := lt(&c[1], &c[0]), 2+lt(&c[3], &c[2])
			small += l ^ (l^r)&-lt(&c[r&3], &c[l&3])
		} else { // the last, partial group
			for c := first + 1; c < len(h); c++ {
				if lt(&h[c], &h[small]) != 0 {
					small = c
				}
			}
		}
		if lt(&h[small], &it) == 0 {
			break
		}
		h[i] = h[small]
		i = small
	}
	h[i] = it
}

func (q *Q) heapPop() item {
	top := q.heap[0]
	last := len(q.heap) - 1
	it := q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.siftDown(0, it)
	}
	return top
}

// --- checksums and byte/word packing ---

func mix(s, w uint64) uint64 {
	s ^= w
	s *= 0x9e3779b97f4a7c15
	s ^= s >> 29
	return s
}

// fold mixes words into s; the result is never 0, a virgin word's value.
func fold(s uint64, words []uint64) uint64 {
	for _, w := range words {
		s = mix(s, w)
	}
	if s == 0 {
		s = dheapMagic
	}
	return s
}

func headerSum(hw [8]uint64) uint64 { return fold(dheapMagic, hw[:7]) }

// entrySum covers seq, key, len and every payload word — but not the
// state word, which pop owns.
func entrySum(seq, key, length uint64, payload []uint64) uint64 {
	return fold(mix(mix(mix(dheapMagic, seq), key), length), payload)
}

// bytesToWords packs b little-endian into dst, zero-padded.
func bytesToWords(b []byte, dst []uint64) {
	clear(dst)
	i := 0
	for ; len(b) >= pmem.WordBytes; i, b = i+1, b[pmem.WordBytes:] {
		dst[i] = binary.LittleEndian.Uint64(b)
	}
	for j, c := range b {
		dst[i] |= uint64(c) << (8 * j)
	}
}

// wordsToBytes is the inverse: it fills dst from the packed words.
func wordsToBytes(words []uint64, dst []byte) {
	i := 0
	for ; len(dst) >= pmem.WordBytes; i, dst = i+1, dst[pmem.WordBytes:] {
		binary.LittleEndian.PutUint64(dst, words[i])
	}
	for j := range dst {
		dst[j] = byte(words[i] >> (8 * j))
	}
}
