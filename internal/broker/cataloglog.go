package broker

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/pmem"
)

// The catalog is an append-only durable *log* of administrative
// records, which is what makes topics and ack-group lease regions
// creatable on a live broker.
// Every creation follows the second amendment's own ordered-persist
// discipline, the same append → fence → anchor pattern the queues use
// for nodes:
//
//  1. allocate — the shard windows are placed in the gaps the live
//     windows leave below the per-heap high-water marks, or at a mark;
//     a mark that moved is stored and fenced before anything is built
//     above it, so a window handed out before a crash is never live
//     twice;
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
// completes are the topic's shard windows released from the live
// table (and their pmem view claims dropped), so a crash anywhere
// mid-delete recovers as "the topic still exists" and a window is
// never reusable before its tombstone is durable.
//
// Free space is never stored. The volatile slot table holds, per heap,
// the live windows of every committed topic shard and lease region;
// a heap's free slots are whatever those leave below its high-water
// mark. Replay rebuilds the table with the same claim and release the
// live verbs use — a creation claims its windows, a tombstone releases
// them — so live and recovered free space are one function of the
// same inputs: the committed records and the marks, which compaction
// carries verbatim. A committed creation whose windows overlap a
// still-live structure is a hard recovery error instead of silent
// aliasing. The marks never move backward; windows a creation placed
// before crashing short of its anchor lie below them, owned by no
// record, and are free again.
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
// (word 6 is never 0: replay refuses it as corrupt.)
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

// ErrCatalogFull reports a catalog log without room for the record an
// administrative verb must append. The capacity is chosen when the
// broker is created (Options.CatalogLines, which recovery ignores);
// only CompactCatalog changes it, reclaiming tombstone debris on the
// way.
var ErrCatalogFull = errors.New("broker: catalog log full")

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

// testHookBeforeFlip, when non-nil, runs between a log generation's
// fence and its anchor flip — the window in which a crash during a
// compaction must recover the *old* generation intact. Tests only.
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

	// live is the slot table: per heap, the windows of every committed
	// topic shard and lease region, sorted by base. The free slots are
	// the complement below marks, derived on demand and never stored.
	live [][]window

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

// window is a root-slot range [base, base+width) on one member heap.
type window struct{ base, width int }

func (w window) end() int { return w.base + w.width }

func (cl *catalogLog) lineAddr(i int) pmem.Addr {
	return cl.base + pmem.Addr(i)*pmem.CacheLineBytes
}

func (cl *catalogLog) recStart() int { return logHeaderLines + cl.allocLines }

func allocLinesFor(heaps int) int {
	return (heaps + pmem.WordsPerLine - 1) / pmem.WordsPerLine
}

// markAddr is the address of heap's high-water mark word in the log
// generation whose region starts at base.
func markAddr(base pmem.Addr, heap int) pmem.Addr {
	return base + pmem.Addr(logHeaderLines+heap/pmem.WordsPerLine)*pmem.CacheLineBytes +
		pmem.Addr((heap%pmem.WordsPerLine)*pmem.WordBytes)
}

// createCatalogLog stamps every non-anchor member, then writes and
// anchors an empty catalog log generation on heap 0 with every heap's
// high-water mark at slot 1 (slot 0 is the anchor). The anchor is
// persisted last, so a crash inside leaves no broker. capacityLines is
// the record space to reserve.
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
		live:       make([][]window, hs.Len()),
	}
	for i := range cl.marks {
		cl.marks[i] = 1 // slot 0 is the anchor
	}
	total := logHeaderLines + cl.allocLines + capacityLines
	bytes := int64(total) * pmem.CacheLineBytes
	base := h.AllocRaw(tid, bytes, pmem.CacheLineBytes)
	h.InitRange(tid, base, bytes)
	cl.writeGeneration(tid, threads, base, total, 0, 0, nil)
	return cl
}

// fit returns the base at which a width-slot window goes on heap: the
// smallest gap between live windows below the high-water mark that
// holds it (the lowest base on ties), otherwise the mark itself.
func (cl *catalogLog) fit(heap, width int) int {
	best, bestWidth := cl.marks[heap], 0
	gap := func(lo, hi int) {
		if g := hi - lo; g >= width && (bestWidth == 0 || g < bestWidth) {
			best, bestWidth = lo, g
		}
	}
	prev := 1 // slot 0 is the anchor
	for _, w := range cl.live[heap] {
		gap(prev, w.base)
		prev = w.end()
	}
	gap(prev, cl.marks[heap])
	return best
}

// search finds the index of the first live window on heap based at or
// after base, and whether one starts exactly there.
func (cl *catalogLog) search(heap, base int) (int, bool) {
	return slices.BinarySearchFunc(cl.live[heap], base, func(w window, b int) int { return cmp.Compare(w.base, b) })
}

// claim adds a width-slot window at loc to the live table, or returns
// the live window it would overlap (ok false) and changes nothing.
func (cl *catalogLog) claim(loc shardLoc, width int) (clash window, ok bool) {
	w := window{loc.base, width}
	ws := cl.live[loc.heap]
	i, _ := cl.search(loc.heap, loc.base)
	if i > 0 && ws[i-1].end() > w.base {
		return ws[i-1], false
	}
	if i < len(ws) && ws[i].base < w.end() {
		return ws[i], false
	}
	cl.live[loc.heap] = slices.Insert(ws, i, w)
	return window{}, true
}

// release drops the window at loc from the live table: its slots are
// free from here on. Callers must have anchored whatever retires it.
func (cl *catalogLog) release(loc shardLoc, width int) {
	if i, ok := cl.search(loc.heap, loc.base); ok && cl.live[loc.heap][i].width == width {
		cl.live[loc.heap] = slices.Delete(cl.live[loc.heap], i, i+1)
	}
}

// freeSlots reports the reclaimed-but-unused footprint: the slots
// below the marks (anchor slots excluded) that no live window holds.
func (cl *catalogLog) freeSlots() int {
	n := 0
	for hi, m := range cl.marks {
		n += m - 1
		for _, w := range cl.live[hi] {
			n -= w.width
		}
	}
	return n
}

// place fits a width-slot window on heap and claims it, raising the
// volatile mark when the window lands there. Nothing durable happens:
// the caller stores the marks (storeMarks) before building inside any
// window, and on refusal hands its places back (unplace).
func (cl *catalogLog) place(hs *pmem.HeapSet, heap, width int, what string) (shardLoc, error) {
	loc := shardLoc{heap: heap, base: cl.fit(heap, width)}
	if slots := hs.Heap(heap).RootSlots(); loc.base+width > slots {
		return shardLoc{}, fmt.Errorf("broker: heap %d out of root slots (%s needs %d, %d left)",
			heap, what, width, slots-cl.marks[heap])
	}
	cl.claim(loc, width)
	cl.marks[heap] = max(cl.marks[heap], loc.base+width)
	return loc, nil
}

// unplace undoes the places of a creation refused before it stored the
// marks: the windows leave the table and the marks return to old.
func (cl *catalogLog) unplace(locs []shardLoc, width int, old []int) {
	for _, loc := range locs {
		cl.release(loc, width)
	}
	copy(cl.marks, old)
}

// storeMarks stores every mark that moved past old and, if any did,
// flushes the mark lines and fences: one blocking persist covers every
// window one creation placed at a mark, and a creation that fit into
// gaps alone pays none.
func (cl *catalogLog) storeMarks(tid int, old []int) {
	moved := false
	for hi, m := range cl.marks {
		if m != old[hi] {
			cl.h.Store(tid, markAddr(cl.base, hi), uint64(m))
			moved = true
		}
	}
	if !moved {
		return
	}
	for l := 0; l < cl.allocLines; l++ {
		cl.h.Flush(tid, cl.lineAddr(logHeaderLines+l))
	}
	cl.h.Fence(tid)
}

// room checks that the log's free tail holds a record of lines lines.
func (cl *catalogLog) room(lines int) error {
	if cl.next+lines > cl.totalLines {
		return fmt.Errorf("%w (%d of %d lines used, %d needed; CompactCatalog(tid, lines) reclaims tombstone debris and resizes the log)",
			ErrCatalogFull, cl.next, cl.totalLines, lines)
	}
	return nil
}

// catRecord is one catalog record: header words 0..6 (the checksum is
// computed as it is written) and its body lines.
type catRecord struct {
	hdr  [7]uint64
	body [][8]uint64
}

func (rec catRecord) lines() int { return 1 + len(rec.body) }

// writeRecordAt stores one record — header words 0..6, the checksum,
// and the body lines — at line `at` of the region based at `base`, and
// flushes every line it wrote. No fence: callers order their own (one
// fence per append, one per whole generation).
func (cl *catalogLog) writeRecordAt(tid int, base pmem.Addr, at int, rec catRecord) {
	h := cl.h
	sum := make([]uint64, 0, 7+len(rec.body)*8)
	sum = append(sum, rec.hdr[:]...)
	for _, line := range rec.body {
		sum = append(sum, line[:]...)
	}
	hdrAddr := base + pmem.Addr(at)*pmem.CacheLineBytes
	for bi, line := range rec.body {
		a := base + pmem.Addr(at+1+bi)*pmem.CacheLineBytes
		for w, x := range line {
			h.Store(tid, a+pmem.Addr(w*pmem.WordBytes), x)
		}
		h.Flush(tid, a)
	}
	for w, x := range rec.hdr {
		h.Store(tid, hdrAddr+pmem.Addr(w*pmem.WordBytes), x)
	}
	h.Store(tid, hdrAddr+7*pmem.WordBytes, catChecksum(sum))
	h.Flush(tid, hdrAddr)
}

// appendRecord writes a record at the log's free tail, fences it, then
// stamps and persists the commit word. The record is visible (replayed
// by recovery) only after the commit persist completes; a crash in
// between leaves debris that the next append overwrites. The caller
// has checked room before doing anything durable.
func (cl *catalogLog) appendRecord(tid int, rec catRecord) {
	h := cl.h
	cl.writeRecordAt(tid, cl.base, cl.next, rec)
	h.Fence(tid) // the record is durable, but not yet visible

	if testHookAfterAppend != nil {
		testHookAfterAppend()
	}

	cl.records++
	cl.next += rec.lines()
	h.Store(tid, cl.lineAddr(1), uint64(cl.records))
	h.Persist(tid, cl.lineAddr(1)) // the anchor stamp: now it exists
}

// writeGeneration writes a complete log generation into the region at
// base — header, commit line (record count, ordinal floor), the
// high-water marks, the records — fences it once, and only then names
// it in heap 0's anchor slot with a single-word persist, so a crash on
// either side of the anchor store recovers exactly one complete
// generation. The handle then adopts the region.
func (cl *catalogLog) writeGeneration(tid, threads int, base pmem.Addr, totalLines int, gen uint64, floor int, recs []catRecord) {
	h := cl.h
	line := func(i int) pmem.Addr { return base + pmem.Addr(i)*pmem.CacheLineBytes }
	hdr := []uint64{catMagicV4, uint64(threads), uint64(cl.heaps), cl.stamp,
		uint64(totalLines), uint64(cl.allocLines), gen}
	for i, w := range hdr {
		h.Store(tid, line(0)+pmem.Addr(i*pmem.WordBytes), w)
	}
	h.Store(tid, line(0)+7*pmem.WordBytes, catChecksum(hdr))
	h.Flush(tid, line(0))
	h.Store(tid, line(1), uint64(len(recs)))
	h.Store(tid, line(1)+pmem.WordBytes, uint64(floor))
	h.Flush(tid, line(1))
	for i, m := range cl.marks {
		h.Store(tid, markAddr(base, i), uint64(m))
	}
	for l := 0; l < cl.allocLines; l++ {
		h.Flush(tid, line(logHeaderLines+l))
	}
	next := logHeaderLines + cl.allocLines
	for _, rec := range recs {
		cl.writeRecordAt(tid, base, next, rec)
		next += rec.lines()
	}
	h.Fence(tid) // the whole generation is durable, but not yet visible

	if testHookBeforeFlip != nil {
		testHookBeforeFlip()
	}

	h.Store(tid, h.RootAddr(slotAnchor), uint64(base))
	h.Persist(tid, h.RootAddr(slotAnchor)) // the flip: now this is the catalog
	cl.base, cl.totalLines, cl.gen = base, totalLines, gen
	cl.records, cl.next = len(recs), next
}

// packName packs a topic name into one body line, catNameBytes packed
// little-endian, zero-padded.
func packName(s string) [8]uint64 {
	var line [8]uint64
	name := make([]byte, catNameBytes)
	copy(name, s)
	for w := 0; w < catNameBytes/pmem.WordBytes; w++ {
		line[w] = binary.LittleEndian.Uint64(name[w*8:])
	}
	return line
}

// unpackName decodes the name line of a topic or tombstone record
// whose header gives the name's length as n.
func unpackName(rec int, line [8]uint64, n uint64) (string, error) {
	if n == 0 || n > catNameBytes {
		return "", fmt.Errorf("broker: catalog log record %d has invalid name length %d", rec, n)
	}
	name := make([]byte, catNameBytes)
	for w := 0; w < catNameBytes/pmem.WordBytes; w++ {
		binary.LittleEndian.PutUint64(name[w*8:], line[w])
	}
	return string(name[:n]), nil
}

func topicRecord(seq int, tc TopicConfig, locs []shardLoc, base int) catRecord {
	placeLines := (len(locs) + pmem.WordsPerLine - 1) / pmem.WordsPerLine
	payloadWord := uint64(tc.MaxPayload) | uint64(tc.Kind)<<catKindShift
	if tc.Acked {
		payloadWord |= catAckedBit
	}
	rec := catRecord{
		hdr: [7]uint64{recTopicMagic, uint64(seq), uint64(tc.Shards), payloadWord,
			uint64(len(tc.Name)), uint64(1 + placeLines), uint64(1 + base)},
		body: make([][8]uint64, 1+placeLines),
	}
	rec.body[0] = packName(tc.Name)
	for i, loc := range locs {
		rec.body[1+i/pmem.WordsPerLine][i%pmem.WordsPerLine] = packLoc(loc)
	}
	return rec
}

func ackGroupRecord(seq, capacity int, loc shardLoc) catRecord {
	return catRecord{hdr: [7]uint64{recAckMagic, uint64(seq), uint64(capacity), packLoc(loc), 0, 0, 0}}
}

func tombstoneRecord(seq int, name string) catRecord {
	return catRecord{
		hdr:  [7]uint64{recTombMagic, uint64(seq), uint64(len(name)), 0, 0, 1, 0},
		body: [][8]uint64{packName(name)},
	}
}

// topicRecLines is the log footprint of a topic-creation record:
// header line, name line, placement lines.
func topicRecLines(shards int) int {
	return 2 + (shards+pmem.WordsPerLine-1)/pmem.WordsPerLine
}

// compact rewrites the live records into a next-generation log region
// and flips the root-slot anchor to it: the debris-reclamation and
// resize path. capacityLines is the new record capacity (0 keeps the
// current capacity); floor is the global shard ordinal the new
// generation starts issuing at, recorded in its commit line so the
// ordinals of compacted-away topics are never reissued. The marks go
// along verbatim, so the new generation leaves the same free slots as
// the old. Cost: one fence plus one anchor persist, regardless of how
// many dead records are dropped.
func (cl *catalogLog) compact(tid, threads, capacityLines int, recs []catRecord, floor int) error {
	if capacityLines == 0 {
		capacityLines = cl.totalLines - cl.recStart()
	}
	need := 0
	for _, rec := range recs {
		need += rec.lines()
	}
	if need > capacityLines {
		return fmt.Errorf("broker: catalog capacity %d lines cannot hold %d live record lines",
			capacityLines, need)
	}
	if cl.gen+1 >= maxCatGenerations {
		return fmt.Errorf("broker: catalog generation limit reached")
	}

	newTotal := logHeaderLines + cl.allocLines + capacityLines
	var newBase pmem.Addr
	if cl.spareBase != 0 && cl.spareLines >= newTotal {
		// Ping-pong into the previous generation's region; it is already
		// initialized and nothing reads past the commit prefix we are
		// about to write.
		newBase, cl.spareBase, cl.spareLines = cl.spareBase, 0, 0
	} else if err := catchOutOfSpace(func() {
		// Nothing durable has changed yet: a heap too full for the new
		// region refuses the compaction and leaves the log as it was.
		bytes := int64(newTotal) * pmem.CacheLineBytes
		newBase = cl.h.AllocRaw(tid, bytes, pmem.CacheLineBytes)
		cl.h.InitRange(tid, newBase, bytes)
	}); err != nil {
		return fmt.Errorf("broker: catalog generation of %d lines: %w", newTotal, err)
	}
	oldBase, oldLines := cl.base, cl.totalLines
	cl.writeGeneration(tid, threads, newBase, newTotal, cl.gen+1, floor, recs)
	cl.spareBase, cl.spareLines = oldBase, oldLines
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
// Replay rebuilds the slot table with the live verbs' own claim and
// release: each creation record claims its root-slot windows, each
// tombstone releases its topic's. A committed window that overlaps a
// live one, or reaches past its heap's durable mark (whose store was
// fenced before the record was written), is a hard recovery error.
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
		live:       make([][]window, heapCount),
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
	// The marks are authoritative: they may run ahead of every committed
	// window (windows a creation placed before crashing short of its
	// anchor are free), but never lag one.
	for i := range cl.marks {
		m := int(r.word(markAddr(reg, i)))
		if r.err != nil {
			return layoutInfo{}, 0, 0, r.err
		}
		if m < 1 || i < hs.Len() && m > hs.Heap(i).RootSlots() {
			return layoutInfo{}, 0, 0, fmt.Errorf("broker: heap %d high-water mark %d outside its root slots", i, m)
		}
		cl.marks[i] = m
	}

	lay := layoutInfo{threads: int(threads), nextGlobal: int(floor), cat: cl}
	claim := func(rec int, what string, loc shardLoc, width int) error {
		switch {
		case loc.heap >= int(heapCount):
			return fmt.Errorf("broker: catalog log record %d places %s on heap %d of %d",
				rec, what, loc.heap, heapCount)
		case loc.base < 1:
			return fmt.Errorf("broker: catalog log record %d places %s over heap %d's anchor slot",
				rec, what, loc.heap)
		case loc.base+width > cl.marks[loc.heap]:
			return fmt.Errorf("broker: heap %d high-water mark %d lags committed windows (record %d places %s at slots [%d,%d))",
				loc.heap, cl.marks[loc.heap], rec, what, loc.base, loc.base+width)
		}
		if w, ok := cl.claim(loc, width); !ok {
			return fmt.Errorf("broker: catalog log record %d claims slots [%d,%d) on heap %d overlapping live window [%d,%d)",
				rec, loc.base, loc.base+width, loc.heap, w.base, w.end())
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
			baseWord := rh[6]
			if shards == 0 || shards > maxCatShards {
				return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log record %d has invalid shard count %d", rec, shards)
			}
			if want := 1 + (int(shards)+pmem.WordsPerLine-1)/pmem.WordsPerLine; int(bodyLines) != want {
				return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log record %d has %d body lines for %d shards, want %d",
					rec, bodyLines, shards, want)
			}
			// Word 6 is 1+base: topicRecord never writes 0.
			if baseWord == 0 || baseWord > maxCatShards {
				return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log record %d has invalid ordinal base word %d", rec, baseWord)
			}
			if topics++; topics > maxCatTopics {
				return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log exceeds %d topics", maxCatTopics)
			}
			name, err := unpackName(rec, body[0], rh[4])
			if err != nil {
				return layoutInfo{}, 0, 0, err
			}
			if byName[name] != nil {
				return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log records topic %q twice", name)
			}
			base := int(baseWord) - 1
			lay.nextGlobal = max(lay.nextGlobal, base+int(shards))
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
				if err := claim(rec, fmt.Sprintf("topic %q shard %d", name, s), locs[s], slotsForKind(kind)); err != nil {
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
			if err := claim(rec, fmt.Sprintf("lease region %d", ackGroups-1), loc, 1); err != nil {
				return layoutInfo{}, 0, 0, err
			}
			lay.leaseLocs = append(lay.leaseLocs, loc)
			lay.leaseCaps = append(lay.leaseCaps, int(capacity))
		case recTombMagic:
			if bodyLines != 1 {
				return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log tombstone %d has %d body lines, want 1", rec, bodyLines)
			}
			name, err := unpackName(rec, body[0], rh[2])
			if err != nil {
				return layoutInfo{}, 0, 0, err
			}
			rt := byName[name]
			if rt == nil {
				return layoutInfo{}, 0, 0, fmt.Errorf("broker: catalog log tombstone %d names no live topic %q", rec, name)
			}
			rt.dead = true
			delete(byName, name)
			for _, loc := range rt.locs {
				cl.release(loc, slotsForKind(rt.tc.Kind))
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
	cl.records = int(records)
	cl.next = cursor
	return lay, int(heapCount), stamp, nil
}
