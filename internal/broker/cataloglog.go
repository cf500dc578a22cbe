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
//  1. allocate — each window is placed in the smallest gap between its
//     heap's live windows, or just past the last of them; nothing
//     durable happens;
//  2. initialize — a topic's windows are scrubbed (an NTStore of 0 into
//     word 0 of each root slot), then the shard queues (or the lease
//     region) are built on their member heaps, each persisting its own
//     state, and the constructor's fence makes the scrub durable too;
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
// a heap's free slots are the gaps between them, and everything past
// the last one. Replay rebuilds the table with the same claim and
// release the live verbs use — a creation claims its windows, a
// tombstone releases them — so live and recovered free space are one
// function of the committed records, which compaction carries. A
// committed creation whose windows overlap a still-live structure, or
// run past its heap's root slots, is a hard recovery error instead of
// silent aliasing. Windows a creation placed before crashing short of
// its anchor are owned by no record, so they are free again; whatever
// its constructors wrote there is scrubbed by the creation that reuses
// them.
//
// Tombstone debris is reclaimed by compaction (CompactCatalog): the
// live records are rewritten, re-sequenced, into a freshly allocated
// next-generation region — same magic, same set stamp, generation
// word bumped — whose records carry explicit global shard bases so
// dropping dead records never renumbers the survivors. The whole new
// generation is fenced first and then the root-slot anchor is flipped
// to it with a single-word NTStore and a fence, so a crash on either side
// of the flip recovers exactly one complete generation. Compaction is
// also the log's resize path: the new generation's record capacity is
// chosen independently of the old.
//
// Log region layout (heap 0, anchored at root slot 0):
//
//	line 0 (header):  [magicV4, threads, heapCount, setStamp,
//	                   totalLines, generation, 0,
//	                   checksum(w0..w6)]
//	line 1 (commit):  [committedRecords, ordinalFloor, 0...] — the
//	                   anchor stamp, rewritten once per creation
//	                   (single-word NTStore, so it is old or new after a
//	                   crash, never torn); ordinalFloor is the global
//	                   shard ordinal the generation starts issuing at
//	                   (written once at generation creation), so
//	                   ordinals of compacted-away topics are never
//	                   reissued
//	records:          appended from line 2
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
	// of every fresh catalog log: room for a few hundred typical topic
	// records (a topic record spans 2 + shards/8 lines).
	defaultCatalogLines = 1024
	// maxCatalogLines caps the recorded capacity, like the other
	// catalog sanity caps: a corrupted count is rejected before it is
	// used to compute addresses.
	maxCatalogLines = 1 << 20
)

// ErrCatalogFull reports a catalog log without room for the record an
// administrative verb must append. A fresh broker's log holds
// defaultCatalogLines lines of records; only CompactCatalog changes
// that, reclaiming tombstone debris on the way.
var ErrCatalogFull = errors.New("broker: catalog log full")

// lineSum mixes a word sequence into the guard word of a catalog or
// lease line, starting from the line kind's seed (catMagicV4,
// leaseMagic). It only needs to catch torn lines and random
// corruption, not adversaries.
func lineSum(seed uint64, ws []uint64) uint64 {
	s := seed
	for i, x := range ws {
		s ^= x + 0x9e3779b97f4a7c15*uint64(i+1)
		s = s<<13 | s>>51
	}
	return s
}

// catalogLog is the volatile handle of the durable v4 catalog log.
// All mutation happens under the broker's admin mutex.
type catalogLog struct {
	h          *pmem.Heap // anchor heap (member 0 of the set)
	heaps      int        // set size
	base       pmem.Addr  // log region base (header line)
	totalLines int        // region capacity in cache lines
	stamp      uint64     // membership set stamp (carried across generations)
	gen        uint64     // log generation (bumped by compaction)

	records int // committed records
	next    int // next free line (replayed cursor / append position)

	// live is the slot table: per heap, the windows of every committed
	// topic shard and lease region, sorted by base. The free slots are
	// the gaps between them, derived on demand and never stored.
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

// createCatalogLog writes an empty catalog log generation on heap 0,
// stamps every non-anchor member with its set stamp, then anchors the
// log. The log is durable before any stamp and the anchor is persisted
// last, so a crash inside leaves no broker, and every stamp it leaves
// names a log Open finds (checkNoCommittedLog).
func createCatalogLog(hs *pmem.HeapSet, tid, threads int) *catalogLog {
	h := hs.Heap(0)
	cl := &catalogLog{
		h:     h,
		heaps: hs.Len(),
		stamp: nextSetStamp(),
		live:  make([][]window, hs.Len()),
	}
	const total = logHeaderLines + defaultCatalogLines
	base := h.AllocRaw(tid, total*pmem.CacheLineBytes, pmem.CacheLineBytes)
	h.InitRange(tid, base, total*pmem.CacheLineBytes)
	cl.writeGeneration(tid, threads, base, total, 0, 0, nil)
	for i := 1; i < hs.Len(); i++ {
		m := hs.Heap(i)
		reg := m.AllocRaw(tid, pmem.CacheLineBytes, pmem.CacheLineBytes)
		m.InitRange(tid, reg, pmem.CacheLineBytes)
		m.Store(tid, reg, stampMagic)
		m.Store(tid, reg+8, cl.stamp)
		m.Store(tid, reg+16, uint64(i))
		m.Store(tid, reg+24, uint64(hs.Len()))
		m.Persist(tid, reg)
		m.Store(tid, m.RootAddr(slotAnchor), uint64(reg))
		m.Persist(tid, m.RootAddr(slotAnchor))
	}
	cl.flip(tid)
	return cl
}

// fit returns the base at which a width-slot window goes on heap: the
// smallest gap between live windows that holds it (the lowest base on
// ties), otherwise the heap's top.
func (cl *catalogLog) fit(heap, width int) int {
	best, bestWidth := cl.top(heap), 0
	prev := 1 // slot 0 is the anchor
	for _, w := range cl.live[heap] {
		if g := w.base - prev; g >= width && (bestWidth == 0 || g < bestWidth) {
			best, bestWidth = prev, g
		}
		prev = w.end()
	}
	return best
}

// top is one past heap's last live window: 1 on an empty heap, whose
// slot 0 is the anchor.
func (cl *catalogLog) top(heap int) int {
	if ws := cl.live[heap]; len(ws) > 0 {
		return ws[len(ws)-1].end()
	}
	return 1
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

// footprint reports, summed over the heaps, the slots below each top
// (anchor slots excluded) and how many of those no live window holds.
func (cl *catalogLog) footprint() (used, free int) {
	for hi, ws := range cl.live {
		below := cl.top(hi) - 1
		used, free = used+below, free+below
		for _, w := range ws {
			free -= w.width
		}
	}
	return used, free
}

// place fits a width-slot window on heap and claims it. Nothing durable
// happens: a creation refused later releases what it placed.
func (cl *catalogLog) place(hs *pmem.HeapSet, heap, width int, what string) (shardLoc, error) {
	loc := shardLoc{heap: heap, base: cl.fit(heap, width)}
	if slots := hs.Heap(heap).RootSlots(); loc.base+width > slots {
		return shardLoc{}, fmt.Errorf("broker: heap %d out of root slots (%s needs %d, %d left)",
			heap, what, width, slots-cl.top(heap))
	}
	cl.claim(loc, width)
	return loc, nil
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

// writeRecordAt writes one record — the body lines, then the header
// line with the checksum as its word 7 — at line `at` of the region
// based at `base`, one NTStoreLine a line. No flush, so rewriting a
// line an earlier generation wrote touches no flushed content, and no
// fence: callers order their own (one fence per append, one per whole
// generation). Every catalog write holds the broker's admin mutex,
// which is NTStoreLine's ownership rule.
func (cl *catalogLog) writeRecordAt(tid int, base pmem.Addr, at int, rec catRecord) {
	h := cl.h
	sum := make([]uint64, 0, 7+len(rec.body)*8)
	sum = append(sum, rec.hdr[:]...)
	for _, line := range rec.body {
		sum = append(sum, line[:]...)
	}
	for bi := range rec.body {
		h.NTStoreLine(tid, base+pmem.Addr(at+1+bi)*pmem.CacheLineBytes, &rec.body[bi], 0xff)
	}
	var hdr [pmem.WordsPerLine]uint64
	copy(hdr[:], rec.hdr[:])
	hdr[7] = lineSum(catMagicV4, sum)
	h.NTStoreLine(tid, base+pmem.Addr(at)*pmem.CacheLineBytes, &hdr, 0xff)
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
	cl.records++
	cl.next += rec.lines()
	h.NTStore(tid, cl.lineAddr(1), uint64(cl.records))
	h.Fence(tid) // the anchor stamp: now it exists
}

// writeGeneration writes a complete log generation into the region at
// base — header, commit line (record count, ordinal floor), the
// records — fences it once, and adopts it into the handle. Nothing on
// the media names it yet: flip does.
func (cl *catalogLog) writeGeneration(tid, threads int, base pmem.Addr, totalLines int, gen uint64, floor int, recs []catRecord) {
	h := cl.h
	line := func(i int) pmem.Addr { return base + pmem.Addr(i)*pmem.CacheLineBytes }
	hdr := [pmem.WordsPerLine]uint64{catMagicV4, uint64(threads), uint64(cl.heaps), cl.stamp,
		uint64(totalLines), gen}
	hdr[7] = lineSum(catMagicV4, hdr[:7])
	h.NTStoreLine(tid, line(0), &hdr, 0xff)
	commit := [pmem.WordsPerLine]uint64{uint64(len(recs)), uint64(floor)}
	h.NTStoreLine(tid, line(1), &commit, 0xff)
	next := logHeaderLines
	for _, rec := range recs {
		cl.writeRecordAt(tid, base, next, rec)
		next += rec.lines()
	}
	h.Fence(tid) // the whole generation is durable, but not yet visible
	cl.base, cl.totalLines, cl.gen = base, totalLines, gen
	cl.records, cl.next = len(recs), next
}

// flip names the handle's generation in heap 0's anchor slot with a
// single-word persist, so a crash on either side of the anchor store
// recovers exactly one complete generation.
func (cl *catalogLog) flip(tid int) {
	cl.h.NTStore(tid, cl.h.RootAddr(slotAnchor), uint64(cl.base))
	cl.h.Fence(tid) // the flip: now this is the catalog
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
// whose header gives the name's length as n; a length no record could
// carry fails r.
func unpackName(r *pmem.Reader, rec int, line [8]uint64, n uint64) (string, error) {
	if n == 0 || n > catNameBytes {
		return "", r.Errorf("broker: catalog log record %d has invalid name length %d", rec, n)
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
// ordinals of compacted-away topics are never reissued. The live
// records carry every live window, so the new generation leaves the
// same free slots as the old. Cost: one fence plus one anchor persist,
// regardless of how many dead records are dropped.
func (cl *catalogLog) compact(tid, threads, capacityLines int, recs []catRecord, floor int) error {
	if capacityLines == 0 {
		capacityLines = cl.totalLines - logHeaderLines
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

	newTotal := logHeaderLines + capacityLines
	var newBase pmem.Addr
	if cl.spareBase != 0 && cl.spareLines >= newTotal {
		// Ping-pong into the previous generation's region; it is already
		// initialized and nothing reads past the commit prefix we are
		// about to write.
		newBase, cl.spareBase, cl.spareLines = cl.spareBase, 0, 0
	} else if err := catch(pmem.ErrOutOfSpace, func() {
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
	cl.flip(tid)
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
// live one, or reaches past its heap's root slots, is a hard recovery
// error.
func readCatalogV4(r *pmem.Reader, hs *pmem.HeapSet, reg pmem.Addr) (layoutInfo, int, uint64, error) {
	var hdr [7]uint64
	for i := range hdr {
		hdr[i] = r.Word(reg + pmem.Addr(i*pmem.WordBytes))
	}
	gotSum := r.Word(reg + 7*pmem.WordBytes)
	if r.Err() != nil {
		return layoutInfo{}, 0, 0, r.Err()
	}
	if gotSum != lineSum(catMagicV4, hdr[:]) {
		return layoutInfo{}, 0, 0, r.Errorf("broker: catalog log header corrupt (checksum mismatch)")
	}
	threads := hdr[1]
	heapCount := hdr[2]
	stamp := hdr[3]
	totalLines := hdr[4]
	gen := hdr[5]
	if heapCount == 0 || heapCount > maxCatHeaps {
		return layoutInfo{}, 0, 0, r.Errorf("broker: catalog heap count %d invalid", heapCount)
	}
	if totalLines == 0 || totalLines > maxCatalogLines {
		return layoutInfo{}, 0, 0, r.Errorf("broker: catalog log capacity %d lines invalid", totalLines)
	}
	if gen >= maxCatGenerations {
		return layoutInfo{}, 0, 0, r.Errorf("broker: catalog log generation %d invalid", gen)
	}
	cl := &catalogLog{
		h:          hs.Heap(0),
		heaps:      int(heapCount),
		base:       reg,
		totalLines: int(totalLines),
		stamp:      stamp,
		gen:        gen,
		live:       make([][]window, heapCount),
	}
	records := r.Word(cl.lineAddr(1))
	floor := r.Word(cl.lineAddr(1) + pmem.WordBytes)
	switch {
	case r.Err() != nil:
		return layoutInfo{}, 0, 0, r.Err()
	case records > uint64(cl.totalLines): // each record spans >= 1 line
		return layoutInfo{}, 0, 0, r.Errorf("broker: catalog log commit count %d absurd (capacity %d lines)",
			records, cl.totalLines)
	case floor > maxCatShards:
		return layoutInfo{}, 0, 0, r.Errorf("broker: catalog log ordinal floor %d invalid", floor)
	}

	lay := layoutInfo{threads: int(threads), nextGlobal: int(floor), cat: cl}
	// A heap the catalog counts but the set lacks is left to
	// readCatalog's heap-count check, which runs after replay.
	claim := func(rec int, what string, loc shardLoc, width int) error {
		switch {
		case loc.heap >= int(heapCount):
			return r.Errorf("broker: catalog log record %d places %s on heap %d of %d",
				rec, what, loc.heap, heapCount)
		case loc.base < 1:
			return r.Errorf("broker: catalog log record %d places %s over heap %d's anchor slot",
				rec, what, loc.heap)
		case loc.heap < hs.Len() && loc.base+width > hs.Heap(loc.heap).RootSlots():
			return r.Errorf("broker: catalog log record %d places %s at slots [%d,%d), past heap %d's %d root slots",
				rec, what, loc.base, loc.base+width, loc.heap, hs.Heap(loc.heap).RootSlots())
		}
		if w, ok := cl.claim(loc, width); !ok {
			return r.Errorf("broker: catalog log record %d claims slots [%d,%d) on heap %d overlapping live window [%d,%d)",
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
	cursor := logHeaderLines
	topics, ackGroups := 0, 0
	for rec := 0; rec < int(records); rec++ {
		if cursor >= cl.totalLines {
			return layoutInfo{}, 0, 0, r.Errorf("broker: catalog log record %d starts beyond capacity", rec)
		}
		hdrAddr := cl.lineAddr(cursor)
		var rh [7]uint64
		for i := range rh {
			rh[i] = r.Word(hdrAddr + pmem.Addr(i*pmem.WordBytes))
		}
		recSum := r.Word(hdrAddr + 7*pmem.WordBytes)
		bodyLines := rh[5]
		if r.Err() != nil {
			return layoutInfo{}, 0, 0, r.Err()
		}
		if bodyLines > uint64(cl.totalLines) || cursor+1+int(bodyLines) > cl.totalLines {
			return layoutInfo{}, 0, 0, r.Errorf("broker: catalog log record %d overruns capacity", rec)
		}
		sum := make([]uint64, 0, 7+int(bodyLines)*8)
		sum = append(sum, rh[:]...)
		body := make([][8]uint64, bodyLines)
		for bi := range body {
			a := cl.lineAddr(cursor + 1 + bi)
			for w := range body[bi] {
				body[bi][w] = r.Word(a + pmem.Addr(w*pmem.WordBytes))
			}
			sum = append(sum, body[bi][:]...)
		}
		if r.Err() != nil {
			return layoutInfo{}, 0, 0, r.Err()
		}
		if recSum != lineSum(catMagicV4, sum) {
			return layoutInfo{}, 0, 0, r.Errorf("broker: catalog log record %d corrupt (checksum mismatch)", rec)
		}
		if rh[1] != uint64(rec+1) {
			return layoutInfo{}, 0, 0, r.Errorf("broker: catalog log record %d carries sequence %d", rec, rh[1])
		}
		switch rh[0] {
		case recTopicMagic:
			shards := rh[2]
			payloadWord := rh[3]
			baseWord := rh[6]
			if shards == 0 || shards > maxCatShards {
				return layoutInfo{}, 0, 0, r.Errorf("broker: catalog log record %d has invalid shard count %d", rec, shards)
			}
			if want := 1 + (int(shards)+pmem.WordsPerLine-1)/pmem.WordsPerLine; int(bodyLines) != want {
				return layoutInfo{}, 0, 0, r.Errorf("broker: catalog log record %d has %d body lines for %d shards, want %d",
					rec, bodyLines, shards, want)
			}
			// Word 6 is 1+base: topicRecord never writes 0.
			if baseWord == 0 || baseWord > maxCatShards {
				return layoutInfo{}, 0, 0, r.Errorf("broker: catalog log record %d has invalid ordinal base word %d", rec, baseWord)
			}
			if topics++; topics > maxCatTopics {
				return layoutInfo{}, 0, 0, r.Errorf("broker: catalog log exceeds %d topics", maxCatTopics)
			}
			name, err := unpackName(r, rec, body[0], rh[4])
			if err != nil {
				return layoutInfo{}, 0, 0, err
			}
			if byName[name] != nil {
				return layoutInfo{}, 0, 0, r.Errorf("broker: catalog log records topic %q twice", name)
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
				return layoutInfo{}, 0, 0, r.Errorf("broker: catalog log record %d: %w", rec, err)
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
				return layoutInfo{}, 0, 0, r.Errorf("broker: catalog log record %d has invalid lease capacity %d", rec, capacity)
			}
			if ackGroups++; ackGroups > maxCatAckGroups {
				return layoutInfo{}, 0, 0, r.Errorf("broker: catalog log exceeds %d ack groups", maxCatAckGroups)
			}
			if err := claim(rec, fmt.Sprintf("lease region %d", ackGroups-1), loc, 1); err != nil {
				return layoutInfo{}, 0, 0, err
			}
			lay.leaseLocs = append(lay.leaseLocs, loc)
			lay.leaseCaps = append(lay.leaseCaps, int(capacity))
		case recTombMagic:
			if bodyLines != 1 {
				return layoutInfo{}, 0, 0, r.Errorf("broker: catalog log tombstone %d has %d body lines, want 1", rec, bodyLines)
			}
			name, err := unpackName(r, rec, body[0], rh[2])
			if err != nil {
				return layoutInfo{}, 0, 0, err
			}
			rt := byName[name]
			if rt == nil {
				return layoutInfo{}, 0, 0, r.Errorf("broker: catalog log tombstone %d names no live topic %q", rec, name)
			}
			rt.dead = true
			delete(byName, name)
			for _, loc := range rt.locs {
				cl.release(loc, slotsForKind(rt.tc.Kind))
			}
			cl.deadLines += topicRecLines(len(rt.locs)) + tombstoneLines
		default:
			return layoutInfo{}, 0, 0, r.Errorf("broker: catalog log record %d magic %#x invalid", rec, rh[0])
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
