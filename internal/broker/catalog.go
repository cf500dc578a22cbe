package broker

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/pmem"
)

// The durable catalog is what makes the broker recoverable as a
// whole: an append-only log of administrative records on heap 0,
// anchored at root slot 0 (format, protocol and replay are in
// cataloglog.go). This file keeps the plumbing around the log — the
// anchor dispatch and the membership stamps. Every word recovery takes
// from the image goes through a pmem.Reader, so a corrupt image is an
// error wrapping pmem.ErrCorrupt.
//
// Every member heap other than heap 0 carries a membership stamp line
// anchored at its own root slot 0:
//
//	[stampMagic, setStamp, heapIndex, heapCount]
//
// setStamp is minted fresh per broker creation, so Open on a heap set
// that is missing a catalogued heap, has a blank or foreign heap
// spliced in, or presents the heaps in the wrong order fails with an
// error instead of mis-scanning another broker's (or nobody's) root
// slots.

const (
	stampMagic   = 0x48705374616d70 // "HpStamp"
	catNameBytes = 32

	// retiredMagicLo..Hi are the magics of the three write-once catalog
	// layouts ("Broker1".."Broker3") that preceded the log. Nothing
	// reads them any more; they are named only so that such an image is
	// refused as an unsupported format rather than as garbage.
	retiredMagicLo = 0x42726f6b657231
	retiredMagicHi = 0x42726f6b657233

	// catAckedBit marks an acked topic in the payload word of a topic
	// record (payload capacities are far below 2^62).
	catAckedBit = uint64(1) << 62

	// catKindShift places the topic kind (2 bits) in the payload word
	// of a topic record, below the acked bit; validateTopic bounds
	// MaxPayload under 2^60 so the fields never collide.
	catKindShift = 60
	catKindMask  = uint64(3) << catKindShift

	// Sanity caps for catalog fields, so a corrupted or truncated
	// catalog is rejected with an error before its counts are used to
	// compute out-of-range addresses.
	maxCatTopics = 1 << 12
	maxCatShards = 1 << 20
	maxCatHeaps  = 1 << 10
)

// setStampSeq mints process-unique membership stamps; uniqueness per
// broker creation is all that is needed to tell one set's heaps from
// another's (heaps are in-memory simulations, not shared files).
var setStampSeq atomic.Uint64

func nextSetStamp() uint64 {
	return uint64(0x53)<<56 | setStampSeq.Add(1)
}

// shardLoc places one shard: which member heap it lives on and the
// base of its slotsPerShard-wide root-slot window there.
type shardLoc struct {
	heap, base int
}

// layoutInfo is everything readCatalog recovers about a broker's
// durable shape.
type layoutInfo struct {
	topics    []TopicConfig
	locs      [][]shardLoc // per topic, per shard
	bases     []int        // per topic: global shard-ordinal base (lease-line index of shard 0)
	leaseLocs []shardLoc   // per ack group: (heap, anchor slot) of its lease region
	leaseCaps []int        // per ack group: shard-ordinal capacity of the region
	threads   int
	// nextGlobal is where the broker continues issuing global shard
	// ordinals: past every ordinal any topic — live, deleted, or
	// compacted away — ever held, so a retired topic's lease lines are
	// never adopted by a new one.
	nextGlobal int
	cat        *catalogLog // positioned to continue appending
}

func packLoc(l shardLoc) uint64   { return uint64(l.heap)<<32 | uint64(l.base) }
func unpackLoc(w uint64) shardLoc { return shardLoc{heap: int(w >> 32), base: int(w & 0xffffffff)} }

// readCatalog replays, through r, the catalog log that heap 0's anchor
// slot names (reg, nonzero) and verifies the membership stamp of every
// non-anchor heap. It returns an error — never panics — when the anchor names
// anything but a catalog log, or when the set does not match the
// catalog: fewer or more heaps than recorded, a blank heap where a
// stamped member should be, a stamp from another broker, or heaps
// presented in the wrong order. Placements need no second pass here:
// replay's claims have already checked every window against the set's
// root slots and against each other.
func readCatalog(r *pmem.Reader, hs *pmem.HeapSet, reg pmem.Addr) (layoutInfo, error) {
	magic := r.Word(reg)
	switch {
	case r.Err() != nil:
		return layoutInfo{}, r.Err()
	case magic >= retiredMagicLo && magic <= retiredMagicHi:
		return layoutInfo{}, fmt.Errorf("broker: catalog format \"Broker%d\" is unsupported (the write-once layouts are retired; only the \"Broker4\" log is read)",
			1+magic-retiredMagicLo)
	case magic != catMagicV4:
		return layoutInfo{}, r.Errorf("broker: catalog magic %#x invalid", magic)
	}
	lay, heapCount, stamp, err := readCatalogV4(r, hs, reg)
	if err != nil {
		return layoutInfo{}, err
	}
	if heapCount != hs.Len() {
		return layoutInfo{}, fmt.Errorf("broker: catalog records %d heaps, the given set has %d",
			heapCount, hs.Len())
	}
	for i := 1; i < heapCount; i++ {
		if err := checkStamp(hs.Heap(i), i, heapCount, stamp); err != nil {
			return layoutInfo{}, err
		}
	}
	return lay, nil
}

// checkMemberEmpty rejects a member heap whose anchor slot already
// names durable state other than debris: creating a broker over it
// would destroy another broker's catalog, stamp or shard state, and a
// set whose heap 0 anchors no catalog while a member holds state is no
// set a broker left behind, so the refusal wraps pmem.ErrCorrupt. A
// membership stamp carrying one of the debris set stamps is what a
// creation that crashed on this set left, and is no refusal.
func checkMemberEmpty(h *pmem.Heap, i int, debris []uint64) error {
	r := pmem.NewReader(h)
	reg := r.Ptr(h.RootAddr(slotAnchor), pmem.CacheLineBytes)
	if r.Err() == nil && reg == 0 {
		return nil
	}
	// A dangling anchor has failed r already; every refusal below then
	// returns that first failure.
	switch r.Word(reg) {
	case catMagicV4:
		return r.Errorf("broker: heap %d of the set already hosts a broker catalog (Open that set to recover it)", i)
	case stampMagic:
		if slices.Contains(debris, r.Word(reg+8)) {
			return nil
		}
		return r.Errorf("broker: heap %d of the set carries a membership stamp (member of another broker)", i)
	default:
		return r.Errorf("broker: heap %d of the set has a nonzero anchor slot (hosts unknown durable state)", i)
	}
}

// checkNoCommittedLog walks heap 0, whose anchor slot is zero, where
// creations place their catalog logs: from the first allocation, at
// the stride of a fresh log. Creation persists the anchor last, so a
// crash short of it leaves there a blank or torn header, or a valid,
// checksummed one over a commit line with no record, and the next
// creation places its own log at the next stride. The walk returns the
// set stamps of those valid headers: the stamps a crashed creation may
// have left on the members. A valid header whose commit line counts
// records ends it with a refusal wrapping pmem.ErrCorrupt: a committed
// record means a broker anchored the log once, and only corruption
// zeroes an anchor.
func checkNoCommittedLog(h *pmem.Heap) (debris []uint64, err error) {
	const stride = (logHeaderLines + defaultCatalogLines) * pmem.CacheLineBytes
	r := pmem.NewReader(h)
	for base := r.FirstAlloc(logHeaderLines * pmem.CacheLineBytes); base != 0; base = r.AllocAt(base+stride, logHeaderLines*pmem.CacheLineBytes) {
		var hdr [pmem.WordsPerLine]uint64
		for i := range hdr {
			hdr[i] = r.Word(base + pmem.Addr(i*pmem.WordBytes))
		}
		if hdr[0] != catMagicV4 || hdr[7] != lineSum(catMagicV4, hdr[:7]) {
			continue
		}
		if n := r.Word(base + pmem.CacheLineBytes); n > 0 {
			return debris, r.Errorf("broker: heap 0's anchor slot is zero, but the catalog log at %#x commits %d records", uint64(base), n)
		}
		debris = append(debris, hdr[3]) // the set stamp
	}
	return debris, nil
}

// checkStamp verifies heap i's membership stamp against the catalog's
// expectation: present, from the same broker creation, and in the
// right position of the set. A set that fails it holds no broker, so
// every refusal wraps pmem.ErrCorrupt.
func checkStamp(h *pmem.Heap, i, heapCount int, stamp uint64) error {
	r := pmem.NewReader(h)
	reg := r.Ptr(h.RootAddr(slotAnchor), pmem.CacheLineBytes)
	if r.Err() != nil {
		return r.Err()
	}
	if reg == 0 {
		return r.Errorf("broker: heap %d of the set carries no membership stamp (missing or blank heap)", i)
	}
	magic := r.Word(reg)
	gotStamp := r.Word(reg + 8)
	gotIdx := r.Word(reg + 16)
	gotCount := r.Word(reg + 24)
	switch {
	case magic != stampMagic:
		return r.Errorf("broker: heap %d stamp magic %#x invalid", i, magic)
	case gotStamp != stamp:
		return r.Errorf("broker: heap %d carries stamp %#x, catalog expects %#x (heap from another broker?)",
			i, gotStamp, stamp)
	case gotIdx != uint64(i) || gotCount != uint64(heapCount):
		return r.Errorf("broker: heap %d stamped as member %d of %d (set order mismatch)",
			i, gotIdx, gotCount)
	}
	return nil
}
