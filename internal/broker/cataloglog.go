package broker

import (
	"fmt"

	"repro/internal/pmem"
)

// The catalog is an append-only durable *log* of administrative
// records, which is what makes topics and ack-group lease regions
// creatable on a live broker.
// Every creation follows the second amendment's own ordered-persist
// discipline, the same append → fence → anchor pattern the queues use
// for nodes:
//
//  1. allocate — the shard windows are claimed in the durable per-heap
//     high-water slot allocator and the marks fenced, so a window
//     handed out before a crash is never handed out again;
//  2. initialize — the shard queues (or the lease region) are built on
//     their member heaps, each persisting its own state;
//  3. append — a checksummed record describing the creation is written
//     into the log's free tail and fenced;
//  4. anchor — a single commit word (the count of committed records)
//     is stamped and persisted, making the creation visible.
//
// A crash before step 4 recovers as "the create never happened": the
// commit word still counts the old records, so replay never looks at
// the torn tail, and the next append simply overwrites it — detected,
// truncated, never mis-scanned. A crash after step 4 recovers the
// topic fully, because everything the record references was durable
// before the anchor moved. Replay is record-by-record, so a broker
// whose topics were created across many sessions recovers identically
// to one that made them all at once.
//
// Retirement rides the same discipline in reverse. DeleteTopic
// appends a checksummed *tombstone* record naming the topic and
// anchors it exactly like a creation; only after the anchor persist
// completes are the topic's shard windows handed to the volatile
// free-list allocator (and their pmem view claims released), so a
// crash anywhere mid-delete recovers as "the topic still exists" and
// a window is never reusable before its tombstone is durable. The
// free list is durable *by derivation*: replay simulates the
// allocator record by record — a creation claims its windows, a
// tombstone frees them — so recovery rebuilds the identical free list
// from the log alone, and a committed creation whose windows overlap
// a still-live structure is a hard recovery error instead of silent
// aliasing. The high-water marks never move backward; freed windows
// live below them and are handed out again by exact width.
//
// Tombstone debris is reclaimed by compaction (CompactCatalog): the
// live records are rewritten, re-sequenced, into a freshly allocated
// next-generation region — same magic, same set stamp, generation
// word bumped — whose records carry explicit global shard bases so
// dropping dead records never renumbers the survivors. The whole new
// generation is fenced first and then the root-slot anchor is flipped
// to it with a single-word store + persist, so a crash on either side
// of the flip recovers exactly one complete generation. Compaction is
// also the log's resize path: the new generation's record capacity is
// chosen independently of the old.
//
// Log region layout (heap 0, anchored at root slot 0):
//
//	line 0 (header):  [magicV4, threads, heapCount, setStamp,
//	                   totalLines, allocLines, generation,
//	                   checksum(w0..w6)]
//	line 1 (commit):  [committedRecords, ordinalFloor, 0...] — the
//	                   anchor stamp, rewritten once per creation
//	                   (single-word store, so it is old or new after a
//	                   crash, never torn); ordinalFloor is the global
//	                   shard ordinal the generation starts issuing at
//	                   (written once at generation creation), so
//	                   ordinals of compacted-away topics are never
//	                   reissued
//	lines 2..:        allocLines lines of per-heap high-water slot
//	                   marks, one word per member heap
//	records:          appended from line 2+allocLines
//
// Topic record (header line + name line + placement lines):
//
//	line 0: [recTopicMagic, seq, shards, maxPayload | ackedBit,
//	         nameLen, bodyLines, 1+globalBase, checksum]
//	line 1: name words 0..3, 0...
//	line 2+: one placement word per shard, heapID<<32 | baseSlot
//
// (word 6 = 0 in records written before topic retirement existed:
// replay then assigns the global base sequentially, which is exactly
// what those brokers did.)
//
// Ack-group record (header line only):
//
//	line 0: [recAckMagic, seq, capacity, heapID<<32 | anchorSlot,
//	         0, bodyLines=0, 0, checksum]
//
// Tombstone record (header line + name line):
//
//	line 0: [recTombMagic, seq, nameLen, 0, 0, bodyLines=1, 0,
//	         checksum]
//	line 1: name words 0..3, 0...
//
// The checksum of a record covers its header words 0..6 and every
// body word, so a torn record — some lines landed, others not — fails
// validation. A *committed* record that fails validation is a hard
// recovery error (the catalog is corrupt); an uncommitted one is
// expected debris. Membership stamps on heaps 1.. are described in
// catalog.go.

const (
	catMagicV4    = 0x42726f6b657234 // "Broker4": append-only catalog log
	recTopicMagic = 0x546f7043726531 // "TopCre1": topic-creation record
	recAckMagic   = 0x416b4743726531 // "AkGCre1": ack-group-creation record
	recTombMagic  = 0x546f7044656c31 // "TopDel1": topic tombstone record

	logHeaderLines = 2 // header line + commit line
	tombstoneLines = 2 // tombstone header line + name line

	// maxCatGenerations caps the header's generation word, like the
	// other catalog sanity caps.
	maxCatGenerations = 1 << 32

	// defaultCatalogLines is the record-space capacity (in cache lines)
	// of a fresh catalog log when Options.CatalogLines is zero: room
	// for a few hundred typical topic records.
	defaultCatalogLines = 1024
	// maxCatalogLines caps the recorded capacity, like the other
	// catalog sanity caps: a corrupted count is rejected before it is
	// used to compute addresses.
	maxCatalogLines = 1 << 20
)

// catChecksum mixes an arbitrary word sequence into a guard word; it
// only needs to catch torn records and random corruption, not
// adversaries (the same contract as leaseChecksum).
func catChecksum(ws []uint64) uint64 {
	s := uint64(catMagicV4)
	for i, x := range ws {
		s ^= x + 0x9e3779b97f4a7c15*uint64(i+1)
		s = s<<13 | s>>51
	}
	return s
}

// testHookAfterAppend, when non-nil, runs between a catalog record's
// append fence and its commit stamp — the window in which a crash must
// recover as "the create never happened". Tests only.
var testHookAfterAppend func()

// testHookBeforeFlip, when non-nil, runs between a compaction's
// generation fence and its anchor flip — the window in which a crash
// must recover the *old* generation intact. Tests only.
var testHookBeforeFlip func()

// catalogLog is the volatile handle of the durable v4 catalog log.
// All mutation happens under the broker's admin mutex.
type catalogLog struct {
	h          *pmem.Heap // anchor heap (member 0 of the set)
	heaps      int        // set size
	base       pmem.Addr  // log region base (header line)
	totalLines int        // region capacity in cache lines
	allocLines int        // high-water mark lines after the commit line
	stamp      uint64     // membership set stamp (carried across generations)
	gen        uint64     // log generation (bumped by compaction)

	records int   // committed records
	next    int   // next free line (replayed cursor / append position)
	marks   []int // per-heap high-water root-slot marks (volatile mirror)

	// free is the size-bucketed free-list allocator layered under the
	// high-water marks: per heap, window width -> LIFO of window base
	// slots retired by committed tombstones. It is volatile but durable
	// by derivation — replay rebuilds it from the record sequence — so
	// it is only ever fed *after* a tombstone's anchor persist.
	free []map[int][]int

	// deadLines counts record lines that replay would skip over:
	// tombstoned topic records plus the tombstones themselves. It is
	// the debris measure that triggers compaction.
	deadLines int

	// spareBase/spareLines remember the previous generation's region
	// after a compaction so the next compaction can ping-pong into it
	// instead of allocating; a resize strands the smaller region
	// (AllocRaw has no free), and a crash forgets the spare — both are
	// bounded leaks, not correctness issues.
	spareBase  pmem.Addr
	spareLines int
}

func (cl *catalogLog) lineAddr(i int) pmem.Addr {
	return cl.base + pmem.Addr(i)*pmem.CacheLineBytes
}

func (cl *catalogLog) recStart() int { return logHeaderLines + cl.allocLines }

func allocLinesFor(heaps int) int {
	return (heaps + pmem.WordsPerLine - 1) / pmem.WordsPerLine
}

// createCatalogLog stamps every non-anchor member, then writes and
// anchors an empty catalog log on heap 0: header, commit line at zero
// records, and every heap's high-water mark at slot 1 (slot 0 is the
// anchor). The anchor is persisted last, so a crash inside leaves no
// broker. capacityLines is the record space to reserve.
func createCatalogLog(hs *pmem.HeapSet, tid, threads, capacityLines int) *catalogLog {
	stamp := nextSetStamp()
	for i := 1; i < hs.Len(); i++ {
		h := hs.Heap(i)
		reg := h.AllocRaw(tid, pmem.CacheLineBytes, pmem.CacheLineBytes)
		h.InitRange(tid, reg, pmem.CacheLineBytes)
		h.Store(tid, reg, stampMagic)
		h.Store(tid, reg+8, stamp)
		h.Store(tid, reg+16, uint64(i))
		h.Store(tid, reg+24, uint64(hs.Len()))
		h.Persist(tid, reg)
		h.Store(tid, h.RootAddr(slotAnchor), uint64(reg))
		h.Persist(tid, h.RootAddr(slotAnchor))
	}

	h := hs.Heap(0)
	cl := &catalogLog{
		h:          h,
		heaps:      hs.Len(),
		allocLines: allocLinesFor(hs.Len()),
		stamp:      stamp,
		marks:      make([]int, hs.Len()),
		free:       make([]map[int][]int, hs.Len()),
	}
	cl.totalLines = logHeaderLines + cl.allocLines + capacityLines
	cl.next = cl.recStart()
	bytes := int64(cl.totalLines) * pmem.CacheLineBytes
	cl.base = h.AllocRaw(tid, bytes, pmem.CacheLineBytes)
	h.InitRange(tid, cl.base, bytes)

	hdr := []uint64{catMagicV4, uint64(threads), uint64(hs.Len()), stamp,
		uint64(cl.totalLines), uint64(cl.allocLines), cl.gen}
	for i, w := range hdr {
		h.Store(tid, cl.base+pmem.Addr(i*pmem.WordBytes), w)
	}
	h.Store(tid, cl.base+7*pmem.WordBytes, catChecksum(hdr))
	h.Flush(tid, cl.base)
	for i := range cl.marks {
		cl.marks[i] = 1 // slot 0 is the anchor
		h.Store(tid, cl.markAddr(i), 1)
	}
	for l := 0; l < cl.allocLines; l++ {
		h.Flush(tid, cl.lineAddr(logHeaderLines+l))
	}
	h.Fence(tid) // header, marks and the zero commit line durable first

	h.Store(tid, h.RootAddr(slotAnchor), uint64(cl.base))
	h.Persist(tid, h.RootAddr(slotAnchor))
	return cl
}

func (cl *catalogLog) markAddr(heap int) pmem.Addr {
	return cl.lineAddr(logHeaderLines+heap/pmem.WordsPerLine) +
		pmem.Addr((heap%pmem.WordsPerLine)*pmem.WordBytes)
}

// takeFree pops a width-wide window from the heap's free list, if one
// is there. Exact-fit buckets are preferred; otherwise the smallest
// wider bucket with stock is split — the request takes the window's
// head and the remainder goes back as a smaller free window (heap
// topics, whose windows are narrower than FIFO shards', are the first
// to split retired FIFO windows this way). No durable write happens:
// the high-water mark already covers every freed window, and the
// tombstone that freed it is already anchored, so reuse is purely a
// volatile pop (replay reaches the same window by simulating the same
// records, splits included).
func (cl *catalogLog) takeFree(heap, width int) (int, bool) {
	fl := cl.free[heap]
	if bases := fl[width]; len(bases) > 0 {
		base := bases[len(bases)-1]
		fl[width] = bases[:len(bases)-1]
		return base, true
	}
	best := 0
	for w, bases := range fl {
		if w > width && len(bases) > 0 && (best == 0 || w < best) {
			best = w
		}
	}
	if best == 0 {
		return 0, false
	}
	bases := fl[best]
	base := bases[len(bases)-1]
	fl[best] = bases[:len(bases)-1]
	cl.releaseSlots(heap, base+width, best-width)
	return base, true
}

// releaseSlots returns a window to the free list. Callers must have
// persisted the tombstone that retires the window first — a window on
// the free list is reusable immediately.
func (cl *catalogLog) releaseSlots(heap, base, width int) {
	if cl.free[heap] == nil {
		cl.free[heap] = make(map[int][]int)
	}
	cl.free[heap][width] = append(cl.free[heap][width], base)
}

// freeSlots reports the total number of root slots sitting on free
// lists across the set — the reclaimed-but-unreused footprint.
func (cl *catalogLog) freeSlots() int {
	total := 0
	for _, fl := range cl.free {
		for width, bases := range fl {
			total += width * len(bases)
		}
	}
	return total
}

// allocSlots claims a width-slot root-slot window on the given member
// heap: first from the free list (windows retired by tombstones, no
// durable write needed — the mark already covers them), else from the
// durable high-water allocator, where the new mark is stored, flushed
// and fenced before the caller initializes anything inside the window,
// so a window handed out before a crash is never handed out again —
// exactly AllocRaw's contract, lifted to root slots.
func (cl *catalogLog) allocSlots(tid, heap, width int, hs *pmem.HeapSet, what string) (shardLoc, error) {
	if base, ok := cl.takeFree(heap, width); ok {
		return shardLoc{heap: heap, base: base}, nil
	}
	base := cl.marks[heap]
	if base+width > hs.Heap(heap).RootSlots() {
		return shardLoc{}, fmt.Errorf("broker: heap %d out of root slots (%s needs %d, %d left)",
			heap, what, width, hs.Heap(heap).RootSlots()-base)
	}
	cl.marks[heap] = base + width
	cl.h.Store(tid, cl.markAddr(heap), uint64(cl.marks[heap]))
	return shardLoc{heap: heap, base: base}, nil
}

// persistMarks flushes every high-water line and fences: one blocking
// persist covers all the windows one creation claimed.
func (cl *catalogLog) persistMarks(tid int) {
	for l := 0; l < cl.allocLines; l++ {
		cl.h.Flush(tid, cl.lineAddr(logHeaderLines+l))
	}
	cl.h.Fence(tid)
}

// writeRecordAt stores one record — header words 0..6, the checksum,
// and the body lines — at line `at` of the region based at `base`, and
// flushes every line it wrote. No fence: callers order their own (one
// fence per append, one per whole compaction). Returns the record's
// line count.
func (cl *catalogLog) writeRecordAt(tid int, base pmem.Addr, at int, hdr [7]uint64, body [][8]uint64) int {
	h := cl.h
	sum := make([]uint64, 0, 7+len(body)*8)
	sum = append(sum, hdr[:]...)
	for _, line := range body {
		sum = append(sum, line[:]...)
	}
	hdrAddr := base + pmem.Addr(at)*pmem.CacheLineBytes
	for bi, line := range body {
		a := base + pmem.Addr(at+1+bi)*pmem.CacheLineBytes
		for w, x := range line {
			h.Store(tid, a+pmem.Addr(w*pmem.WordBytes), x)
		}
		h.Flush(tid, a)
	}
	for w, x := range hdr {
		h.Store(tid, hdrAddr+pmem.Addr(w*pmem.WordBytes), x)
	}
	h.Store(tid, hdrAddr+7*pmem.WordBytes, catChecksum(sum))
	h.Flush(tid, hdrAddr)
	return 1 + len(body)
}

// appendRecord writes a record — header words 0..6 plus body lines —
// at the log's free tail, fences it, then stamps and persists the
// commit word. The record is visible (replayed by recovery) only after
// the commit persist completes; a crash in between leaves debris that
// the next append overwrites.
func (cl *catalogLog) appendRecord(tid int, hdr [7]uint64, body [][8]uint64) error {
	recLines := 1 + len(body)
	if cl.next+recLines > cl.totalLines {
		return fmt.Errorf("broker: catalog log full (%d of %d lines used; reopen with a larger CatalogLines)",
			cl.next, cl.totalLines)
	}
	h := cl.h
	cl.writeRecordAt(tid, cl.base, cl.next, hdr, body)
	h.Fence(tid) // the record is durable, but not yet visible

	if testHookAfterAppend != nil {
		testHookAfterAppend()
	}

	cl.records++
	cl.next += recLines
	h.Store(tid, cl.lineAddr(1), uint64(cl.records))
	h.Persist(tid, cl.lineAddr(1)) // the anchor stamp: now it exists
	return nil
}

// packName packs a topic name into one body line, catNameBytes packed
// little-endian, zero-padded.
func packName(s string) [8]uint64 {
	var line [8]uint64
	name := make([]byte, catNameBytes)
	copy(name, s)
	for w := 0; w < catNameBytes/pmem.WordBytes; w++ {
		var word uint64
		for b := 0; b < 8; b++ {
			word |= uint64(name[w*8+b]) << (8 * b)
		}
		line[w] = word
	}
	return line
}

func topicRecord(seq int, tc TopicConfig, locs []shardLoc, base int) ([7]uint64, [][8]uint64) {
	placeLines := (len(locs) + pmem.WordsPerLine - 1) / pmem.WordsPerLine
	payloadWord := uint64(tc.MaxPayload) | uint64(tc.Kind)<<catKindShift
	if tc.Acked {
		payloadWord |= catAckedBit
	}
	hdr := [7]uint64{recTopicMagic, uint64(seq), uint64(tc.Shards), payloadWord,
		uint64(len(tc.Name)), uint64(1 + placeLines), uint64(1 + base)}
	body := make([][8]uint64, 1+placeLines)
	body[0] = packName(tc.Name)
	for i, loc := range locs {
		body[1+i/pmem.WordsPerLine][i%pmem.WordsPerLine] = packLoc(loc)
	}
	return hdr, body
}

func ackGroupRecord(seq, capacity int, loc shardLoc) [7]uint64 {
	return [7]uint64{recAckMagic, uint64(seq), uint64(capacity), packLoc(loc), 0, 0, 0}
}

func tombstoneRecord(seq int, name string) ([7]uint64, [][8]uint64) {
	hdr := [7]uint64{recTombMagic, uint64(seq), uint64(len(name)), 0, 0, 1, 0}
	return hdr, [][8]uint64{packName(name)}
}

// topicRecLines is the log footprint of a topic-creation record:
// header line, name line, placement lines.
func topicRecLines(shards int) int {
	return 2 + (shards+pmem.WordsPerLine-1)/pmem.WordsPerLine
}

// liveTopic is one surviving topic handed to compact: its config, its
// shard placements, and the global shard-ordinal base its lease lines
// live at (which compaction must preserve verbatim — re-basing would
// repoint every durable lease at the wrong topic).
type liveTopic struct {
	tc   TopicConfig
	locs []shardLoc
	base int
}

// compact rewrites the live records into a next-generation log region
// and flips the root-slot anchor to it: the debris-reclamation and
// resize path. capacityLines is the new record capacity (0 keeps the
// current capacity); floor is the global shard ordinal the new
// generation starts issuing at, recorded in its commit line so the
// ordinals of compacted-away topics are never reissued.
//
// The whole new generation — header, commit line at the live record
// count, high-water marks, records — is written and fenced before the
// anchor flips, so recovery on either side of the flip reads exactly
// one complete generation. Cost: one fence plus one anchor persist,
// regardless of how many dead records are dropped.
func (cl *catalogLog) compact(tid, threads, capacityLines int,
	topics []liveTopic, leaseLocs []shardLoc, leaseCaps []int, floor int) error {
	if capacityLines == 0 {
		capacityLines = cl.totalLines - cl.recStart()
	}
	need := 0
	for _, t := range topics {
		need += topicRecLines(len(t.locs))
	}
	need += len(leaseLocs)
	if need > capacityLines {
		return fmt.Errorf("broker: catalog capacity %d lines cannot hold %d live record lines",
			capacityLines, need)
	}
	if cl.gen+1 >= maxCatGenerations {
		return fmt.Errorf("broker: catalog generation limit reached")
	}

	h := cl.h
	newTotal := logHeaderLines + cl.allocLines + capacityLines
	var newBase pmem.Addr
	if cl.spareBase != 0 && cl.spareLines >= newTotal {
		// Ping-pong into the previous generation's region; it is already
		// initialized and nothing reads past the commit prefix we are
		// about to write.
		newBase, cl.spareBase, cl.spareLines = cl.spareBase, 0, 0
	} else {
		bytes := int64(newTotal) * pmem.CacheLineBytes
		newBase = h.AllocRaw(tid, bytes, pmem.CacheLineBytes)
		h.InitRange(tid, newBase, bytes)
	}
	la := func(i int) pmem.Addr { return newBase + pmem.Addr(i)*pmem.CacheLineBytes }

	hdr := []uint64{catMagicV4, uint64(threads), uint64(cl.heaps), cl.stamp,
		uint64(newTotal), uint64(cl.allocLines), cl.gen + 1}
	for i, w := range hdr {
		h.Store(tid, la(0)+pmem.Addr(i*pmem.WordBytes), w)
	}
	h.Store(tid, la(0)+7*pmem.WordBytes, catChecksum(hdr))
	h.Flush(tid, la(0))
	h.Store(tid, la(1), uint64(len(topics)+len(leaseLocs)))
	h.Store(tid, la(1)+pmem.WordBytes, uint64(floor))
	h.Flush(tid, la(1))
	for i, m := range cl.marks {
		h.Store(tid, la(logHeaderLines+i/pmem.WordsPerLine)+
			pmem.Addr((i%pmem.WordsPerLine)*pmem.WordBytes), uint64(m))
	}
	for l := 0; l < cl.allocLines; l++ {
		h.Flush(tid, la(logHeaderLines+l))
	}
	next := logHeaderLines + cl.allocLines
	seq := 0
	for _, t := range topics {
		seq++
		rh, body := topicRecord(seq, t.tc, t.locs, t.base)
		next += cl.writeRecordAt(tid, newBase, next, rh, body)
	}
	for g, loc := range leaseLocs {
		seq++
		rh := ackGroupRecord(seq, leaseCaps[g], loc)
		next += cl.writeRecordAt(tid, newBase, next, rh, nil)
	}
	h.Fence(tid) // the whole generation is durable, but not yet visible

	if testHookBeforeFlip != nil {
		testHookBeforeFlip()
	}

	h.Store(tid, h.RootAddr(slotAnchor), uint64(newBase))
	h.Persist(tid, h.RootAddr(slotAnchor)) // the flip: now this is the catalog

	cl.spareBase, cl.spareLines = cl.base, cl.totalLines
	cl.base = newBase
	cl.totalLines = newTotal
	cl.records = seq
	cl.next = next
	cl.gen++
	cl.deadLines = 0
	return nil
}

// readCatalogV4 replays the catalog log record by record: exactly the
// committed prefix is applied, every committed record is re-validated
// (checksum, bounds, field sanity) and anything beyond the commit
// point — the torn tail of a creation that crashed before its anchor
// stamp — is ignored and will be overwritten by the next append. The
// returned layout's catalogLog is positioned to continue appending.
//
// Replay is also an allocator simulation: each creation record claims
// its root-slot windows, each tombstone retires its topic's windows,
// and a committed creation whose windows overlap a still-live
// structure — or partially overlap a retired window instead of reusing
// it exactly — is a hard recovery error. What is retired and never
// reclaimed at the end of the log becomes the rebuilt free list.
func readCatalogV4(r *catReader, hs *pmem.HeapSet, reg pmem.Addr) (layoutInfo, int, uint64, error) {
	var hdr [7]uint64
	for i := range hdr {
		hdr[i] = r.word(reg + pmem.Addr(i*pmem.WordBytes))
	}
	gotSum := r.word(reg + 7*pmem.WordBytes)
	if r.err != nil {
		return layoutInfo{}, 0, 0, r.err
	}
	if gotSum != catChecksum(hdr[:]) {
		return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log header corrupt (checksum mismatch)")
	}
	threads := hdr[1]
	heapCount := hdr[2]
	stamp := hdr[3]
	totalLines := hdr[4]
	allocLines := hdr[5]
	gen := hdr[6]
	if heapCount == 0 || heapCount > maxCatHeaps {
		return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog heap count %d invalid", heapCount)
	}
	if totalLines == 0 || totalLines > maxCatalogLines {
		return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log capacity %d lines invalid", totalLines)
	}
	if allocLines != uint64(allocLinesFor(int(heapCount))) {
		return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log records %d allocator lines for %d heaps, want %d",
			allocLines, heapCount, allocLinesFor(int(heapCount)))
	}
	if gen >= maxCatGenerations {
		return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log generation %d invalid", gen)
	}
	cl := &catalogLog{
		h:          r.h,
		heaps:      int(heapCount),
		base:       reg,
		totalLines: int(totalLines),
		allocLines: int(allocLines),
		stamp:      stamp,
		gen:        gen,
		marks:      make([]int, heapCount),
		free:       make([]map[int][]int, heapCount),
	}
	records := r.word(cl.lineAddr(1))
	floor := r.word(cl.lineAddr(1) + pmem.WordBytes)
	if records > uint64(cl.totalLines) { // each record spans >= 1 line
		return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log commit count %d absurd (capacity %d lines)",
			records, cl.totalLines)
	}
	if floor > maxCatShards {
		return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log ordinal floor %d invalid", floor)
	}

	lay := layoutInfo{threads: int(threads), nextGlobal: int(floor), cat: cl}
	replayMarks := make([]int, heapCount)
	for i := range replayMarks {
		replayMarks[i] = 1
	}

	// The allocator simulation: per heap, windows claimed by live
	// structures and windows retired by tombstones.
	type repWin struct{ base, width int }
	liveWins := make([][]repWin, heapCount)
	freedWins := make([][]repWin, heapCount)
	claimWin := func(rec int, what string, loc shardLoc, width int) error {
		if loc.heap < 0 || loc.heap >= int(heapCount) {
			return fmt.Errorf("broker: catalog log record %d places %s on heap %d of %d",
				rec, what, loc.heap, heapCount)
		}
		if loc.base < 1 || (loc.heap < hs.Len() && loc.base+width > hs.Heap(loc.heap).RootSlots()) {
			return fmt.Errorf("broker: catalog log record %d places %s at slots [%d,%d) outside heap %d",
				rec, what, loc.base, loc.base+width, loc.heap)
		}
		for _, w := range liveWins[loc.heap] {
			if loc.base < w.base+w.width && w.base < loc.base+width {
				return fmt.Errorf("broker: catalog log record %d claims slots [%d,%d) on heap %d overlapping live window [%d,%d)",
					rec, loc.base, loc.base+width, loc.heap, w.base, w.base+w.width)
			}
		}
		for i, w := range freedWins[loc.heap] {
			if loc.base < w.base+w.width && w.base < loc.base+width {
				if loc.base < w.base || loc.base+width > w.base+w.width {
					return fmt.Errorf("broker: catalog log record %d claims slots [%d,%d) on heap %d straddling retired window [%d,%d)",
						rec, loc.base, loc.base+width, loc.heap, w.base, w.base+w.width)
				}
				// Reuse of a retired window: exact, or a sub-range when a
				// narrower creation split a wider window (takeFree's
				// split-bucket path takes the head, so a committed claim
				// always nests). The remainder fragments stay retired.
				freedWins[loc.heap] = append(freedWins[loc.heap][:i], freedWins[loc.heap][i+1:]...)
				if loc.base > w.base {
					freedWins[loc.heap] = append(freedWins[loc.heap], repWin{w.base, loc.base - w.base})
				}
				if end, wend := loc.base+width, w.base+w.width; end < wend {
					freedWins[loc.heap] = append(freedWins[loc.heap], repWin{end, wend - end})
				}
				break
			}
		}
		liveWins[loc.heap] = append(liveWins[loc.heap], repWin{loc.base, width})
		if end := loc.base + width; end > replayMarks[loc.heap] {
			replayMarks[loc.heap] = end
		}
		return nil
	}

	// Topics accumulate with a liveness flag so tombstones can retire
	// them; the surviving ones compact into lay at the end.
	type repTopic struct {
		tc   TopicConfig
		locs []shardLoc
		base int
		dead bool
	}
	var reps []*repTopic
	byName := map[string]*repTopic{}
	cursor := cl.recStart()
	topics, ackGroups := 0, 0
	for rec := 0; rec < int(records); rec++ {
		if cursor >= cl.totalLines {
			return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log record %d starts beyond capacity", rec)
		}
		hdrAddr := cl.lineAddr(cursor)
		var rh [7]uint64
		for i := range rh {
			rh[i] = r.word(hdrAddr + pmem.Addr(i*pmem.WordBytes))
		}
		recSum := r.word(hdrAddr + 7*pmem.WordBytes)
		bodyLines := rh[5]
		if r.err != nil {
			return layoutInfo{}, 0, 0, r.err
		}
		if bodyLines > uint64(cl.totalLines) || cursor+1+int(bodyLines) > cl.totalLines {
			return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log record %d overruns capacity", rec)
		}
		sum := make([]uint64, 0, 7+int(bodyLines)*8)
		sum = append(sum, rh[:]...)
		body := make([][8]uint64, bodyLines)
		for bi := range body {
			a := cl.lineAddr(cursor + 1 + bi)
			for w := range body[bi] {
				body[bi][w] = r.word(a + pmem.Addr(w*pmem.WordBytes))
			}
			sum = append(sum, body[bi][:]...)
		}
		if r.err != nil {
			return layoutInfo{}, 0, 0, r.err
		}
		if recSum != catChecksum(sum) {
			return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log record %d corrupt (checksum mismatch)", rec)
		}
		if rh[1] != uint64(rec+1) {
			return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log record %d carries sequence %d", rec, rh[1])
		}
		switch rh[0] {
		case recTopicMagic:
			shards := rh[2]
			payloadWord := rh[3]
			nameLen := rh[4]
			baseWord := rh[6]
			if shards == 0 || shards > maxCatShards {
				return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log record %d has invalid shard count %d", rec, shards)
			}
			if nameLen == 0 || nameLen > catNameBytes {
				return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log record %d has invalid name length %d", rec, nameLen)
			}
			if want := 1 + (int(shards)+pmem.WordsPerLine-1)/pmem.WordsPerLine; int(bodyLines) != want {
				return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log record %d has %d body lines for %d shards, want %d",
					rec, bodyLines, shards, want)
			}
			if baseWord > maxCatShards {
				return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log record %d has invalid ordinal base %d", rec, baseWord)
			}
			if topics++; topics > maxCatTopics {
				return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log exceeds %d topics", maxCatTopics)
			}
			nameBytes := make([]byte, catNameBytes)
			for w := 0; w < catNameBytes/pmem.WordBytes; w++ {
				for b := 0; b < 8; b++ {
					nameBytes[w*8+b] = byte(body[0][w] >> (8 * b))
				}
			}
			name := string(nameBytes[:nameLen])
			if byName[name] != nil {
				return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log records topic %q twice", name)
			}
			// Word 6 is 1+base for records written since topic retirement
			// existed; 0 means sequential assignment, exactly what the
			// broker that wrote the record did.
			base := lay.nextGlobal
			if baseWord > 0 {
				base = int(baseWord) - 1
			}
			if end := base + int(shards); end > lay.nextGlobal {
				lay.nextGlobal = end
			}
			kind := TopicKind((payloadWord & catKindMask) >> catKindShift)
			tc := TopicConfig{
				Name:       name,
				Shards:     int(shards),
				MaxPayload: int(payloadWord &^ (catAckedBit | catKindMask)),
				Acked:      payloadWord&catAckedBit != 0,
				Kind:       kind,
			}
			// The same standard CreateTopic held the config to before it
			// wrote the record (kind range, heap kinds single-shard and
			// unacked): a checksummed record that fails it was never
			// written by this code.
			if err := validateTopic(tc); err != nil {
				return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log record %d: %w", rec, err)
			}
			locs := make([]shardLoc, shards)
			for s := range locs {
				locs[s] = unpackLoc(body[1+s/pmem.WordsPerLine][s%pmem.WordsPerLine])
				if err := claimWin(rec, fmt.Sprintf("topic %q shard %d", name, s), locs[s], slotsForKind(kind)); err != nil {
					return layoutInfo{}, 0, 0, err
				}
			}
			rt := &repTopic{tc: tc, locs: locs, base: base}
			reps = append(reps, rt)
			byName[name] = rt
		case recAckMagic:
			capacity := rh[2]
			loc := unpackLoc(rh[3])
			if capacity == 0 || capacity > maxCatShards {
				return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log record %d has invalid lease capacity %d", rec, capacity)
			}
			if ackGroups++; ackGroups > maxCatAckGroups {
				return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log exceeds %d ack groups", maxCatAckGroups)
			}
			if err := claimWin(rec, fmt.Sprintf("lease region %d", ackGroups-1), loc, 1); err != nil {
				return layoutInfo{}, 0, 0, err
			}
			lay.leaseLocs = append(lay.leaseLocs, loc)
			lay.leaseCaps = append(lay.leaseCaps, int(capacity))
		case recTombMagic:
			nameLen := rh[2]
			if nameLen == 0 || nameLen > catNameBytes {
				return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log record %d has invalid name length %d", rec, nameLen)
			}
			if bodyLines != 1 {
				return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log tombstone %d has %d body lines, want 1", rec, bodyLines)
			}
			nameBytes := make([]byte, catNameBytes)
			for w := 0; w < catNameBytes/pmem.WordBytes; w++ {
				for b := 0; b < 8; b++ {
					nameBytes[w*8+b] = byte(body[0][w] >> (8 * b))
				}
			}
			name := string(nameBytes[:nameLen])
			rt := byName[name]
			if rt == nil {
				return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log tombstone %d names no live topic %q", rec, name)
			}
			rt.dead = true
			delete(byName, name)
			// Retire the topic's windows: out of the live set, onto the
			// freed set, in shard order (matching the live broker's
			// release order, so the rebuilt free list is identical).
			width := slotsForKind(rt.tc.Kind)
			for _, loc := range rt.locs {
				for i, w := range liveWins[loc.heap] {
					if w.base == loc.base && w.width == width {
						liveWins[loc.heap] = append(liveWins[loc.heap][:i], liveWins[loc.heap][i+1:]...)
						break
					}
				}
				freedWins[loc.heap] = append(freedWins[loc.heap], repWin{loc.base, width})
			}
			cl.deadLines += topicRecLines(len(rt.locs)) + tombstoneLines
		default:
			return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log record %d magic %#x invalid", rec, rh[0])
		}
		cursor += 1 + int(bodyLines)
	}
	for _, rt := range reps {
		if rt.dead {
			continue
		}
		lay.topics = append(lay.topics, rt.tc)
		lay.locs = append(lay.locs, rt.locs)
		lay.bases = append(lay.bases, rt.base)
	}
	for heap, wins := range freedWins {
		for _, w := range wins {
			cl.releaseSlots(heap, w.base, w.width)
		}
	}
	cl.records = int(records)
	cl.next = cursor

	// High-water marks: the durable line is authoritative (it may run
	// ahead of the replayed maxima — windows claimed by a creation that
	// crashed before its anchor stay retired forever), but it can never
	// durably lag a committed record, whose claim was fenced first.
	for i := 0; i < int(heapCount); i++ {
		m := int(r.word(cl.markAddr(i)))
		if r.err != nil {
			return layoutInfo{}, 0, 0, r.err
		}
		if m < replayMarks[i] {
			return layoutInfo{}, 0, 0, fmt.Errorf("broker: heap %d high-water mark %d lags committed windows (%d)",
				i, m, replayMarks[i])
		}
		if i < hs.Len() && m > hs.Heap(i).RootSlots() {
			return layoutInfo{}, 0, 0, fmt.Errorf("broker: heap %d high-water mark %d exceeds %d root slots",
				i, m, hs.Heap(i).RootSlots())
		}
		cl.marks[i] = m
	}
	return lay, int(heapCount), stamp, nil
}
