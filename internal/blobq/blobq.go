// Package blobq generalizes the paper's queues to items that span
// multiple cache lines — the extension footnote 3 points at: "The
// method of [Cohen, Friedman, Larus] can be used to generalize the
// algorithms to nodes that span multiple cache lines without adding
// fence operations."
//
// Queue is the second-amendment queue (queues.Core, Section 6.1) whose
// items are byte payloads stored in persistent blobs; this package is
// only the payload codec. A node is one slot of the core's pool: the
// node line [index, linked, tag, len], then the blob, a fixed number of
// cache lines of which every one carries 56 payload bytes plus an
// 8-byte seal combining a globally unique blob tag with the line
// number. The enqueuer writes the payload lines (data before seal, per
// line) and issues asynchronous flushes for all of them before the
// core links the node, and they ride the operation's single fence — no
// additional blocking persist. Recovery accepts a node only if its
// blob's every seal matches the node's tag, so a node whose linked
// flag was evicted early while its payload was not cannot resurrect
// garbage: under durable linearizability such an enqueue was pending
// and is discarded.
//
// Normal-path reads never touch the flushed blob lines: the payload
// also lives in the node's Volatile half (a Go byte slice), so the
// queue retains the second amendment's zero-post-flush-access
// property.
package blobq

import (
	"encoding/binary"
	"fmt"

	"repro/internal/pmem"
	"repro/internal/queues"
)

// Blob geometry: per cache line, 56 payload bytes + one seal word.
const (
	lineData = pmem.CacheLineBytes - pmem.WordBytes
	sealOff  = pmem.Addr(lineData)
)

// MaxPayloadLimit is the largest MaxPayload a queue accepts: a seal's
// line field is eight bits, so it names one (tag, line) pair only while
// a blob has at most 255 lines.
const MaxPayloadLimit = 255 * lineData

// Codec words of the node line: [tag, len]. The blob is the lines
// after it.
const (
	pnTag  = queues.NodePayload
	pnLen  = queues.NodePayload + 8
	pnBlob = pmem.CacheLineBytes
)

// slotEpoch is the root slot the codec adds to the core's (a heap hosts
// one queue).
const slotEpoch = 7

// Config parameterizes a Queue.
type Config struct {
	// Threads is the number of thread ids that may operate.
	Threads int
	// MaxPayload is the largest payload in bytes (rounded up to whole
	// blob lines). Default 240.
	MaxPayload int
	// Acked selects acknowledgment mode: dequeues become leases
	// (DequeueLeased, zero persist instructions), payloads stay durable
	// until AckTo covers them, and recovery redelivers everything
	// beyond the maximum per-thread acked index instead of everything
	// beyond the dequeued frontier.
	Acked bool
	// InitTid is the thread id New charges its construction persists
	// to. Default 0 — fine for quiescent construction; a queue created
	// while other threads run (a broker topic created on a live system)
	// must use a tid owned by the constructing goroutine, because
	// fences are per-thread.
	InitTid int
}

func (c *Config) norm() {
	if c.MaxPayload == 0 {
		c.MaxPayload = 240
	}
	if c.MaxPayload > MaxPayloadLimit {
		panic(fmt.Sprintf("blobq: MaxPayload %d exceeds the seal's %d-byte bound", c.MaxPayload, MaxPayloadLimit))
	}
}

func (c Config) blobLines() int { return (c.MaxPayload + lineData - 1) / lineData }

// Queue is a durable lock-free FIFO of byte payloads with one blocking
// persist per operation and no access to flushed content: every verb
// is the core's.
type Queue struct {
	*queues.Core[[]byte]
	lines int
}

// MaxPayload reports the configured payload capacity in bytes.
func (q *Queue) MaxPayload() int { return q.lines * lineData }

// codec lays a payload out as sealed blob lines.
type codec struct {
	lines int
	epoch uint64 // persistent boot incarnation, salts blob tags
	per   []perTid
}

// perTid is one thread's codec state, on a cache line of its own: the
// tags it minted this incarnation, and the words of the blob it is
// writing, staged before one pmem.WriteBack (allocated on its first
// Write).
type perTid struct {
	tagSeq uint64
	stage  []uint64
	_      [32]byte
}

func newCodec(cfg Config, epoch uint64) *codec {
	return &codec{lines: cfg.blobLines(), epoch: epoch, per: make([]perTid, cfg.Threads)}
}

// New creates an empty payload queue.
func New(h *pmem.Heap, cfg Config) *Queue {
	cfg.norm()
	c := newCodec(cfg, 1)
	q := &Queue{queues.NewCore[[]byte](h, cfg.Threads, cfg.InitTid, cfg.Acked, c, 1+c.lines), c.lines}
	h.Store(cfg.InitTid, h.RootAddr(slotEpoch), c.epoch)
	h.Persist(cfg.InitTid, h.RootAddr(slotEpoch))
	return q
}

// Recover rebuilds the queue after a crash: a node is resurrected only
// if the core finds it linked beyond the recovered consumption frontier
// and its blob is fully sealed with the node's tag. cfg must match the
// configuration the queue was created with; an Acked mismatch is
// refused rather than silently mis-scanned.
func Recover(h *pmem.Heap, cfg Config) *Queue {
	cfg.norm()
	// Bump the boot incarnation first so tags minted after this
	// recovery can never collide with pre-crash seals.
	c := newCodec(cfg, h.Load(0, h.RootAddr(slotEpoch))+1)
	h.Store(0, h.RootAddr(slotEpoch), c.epoch)
	h.Persist(0, h.RootAddr(slotEpoch))
	return &Queue{queues.RecoverCore[[]byte](h, cfg.Threads, cfg.Acked, c, 1+c.lines), c.lines}
}

// Write records the blob's tag and length in the node line, then
// writes payload into the blob lines after it, data words before the
// sealing word of each line (Assumption 1 orders them in NVRAM), and
// issues their asynchronous flushes. The tag is unique across the
// heap's lifetime — boot incarnations never share tags — so a recycled
// slot's stale seals can never validate a half-written new payload.
func (c *codec) Write(h *pmem.Heap, tid int, pn pmem.Addr, payload []byte) []byte {
	if len(payload) > c.lines*lineData {
		panic(fmt.Sprintf("blobq: payload %d exceeds capacity %d", len(payload), c.lines*lineData))
	}
	me := &c.per[tid]
	me.tagSeq++
	tag := c.epoch<<40 | uint64(tid+1)<<32 | me.tagSeq&0xffffffff
	h.StoreOwned(tid, pn+pnTag, tag)
	h.StoreOwned(tid, pn+pnLen, uint64(len(payload)))
	// The slot is this thread's alone until the core links the node, so
	// the blob is staged whole and written back in one call.
	if me.stage == nil {
		me.stage = make([]uint64, c.lines*pmem.WordsPerLine)
	}
	for l, rest := 0, payload; l < c.lines; l++ {
		line := (*[pmem.WordsPerLine]uint64)(me.stage[l*pmem.WordsPerLine:])
		var data *[lineData]byte
		if len(rest) >= lineData {
			data = (*[lineData]byte)(rest)
		} else { // the last partial line, and any past the payload's end
			data = new([lineData]byte)
			copy(data[:], rest)
		}
		// Unrolled: as a loop its counter is spilled on every word.
		line[0] = binary.LittleEndian.Uint64(data[0:])
		line[1] = binary.LittleEndian.Uint64(data[8:])
		line[2] = binary.LittleEndian.Uint64(data[16:])
		line[3] = binary.LittleEndian.Uint64(data[24:])
		line[4] = binary.LittleEndian.Uint64(data[32:])
		line[5] = binary.LittleEndian.Uint64(data[40:])
		line[6] = binary.LittleEndian.Uint64(data[48:])
		line[sealOff/pmem.WordBytes] = seal(tag, l)
		rest = rest[min(lineData, len(rest)):]
	}
	h.WriteBack(tid, pn+pnBlob, me.stage)
	return append([]byte(nil), payload...)
}

// seal names one line of one blob: line < 255 (MaxPayloadLimit), so
// line+1 fits the low byte and never carries into the tag.
func seal(tag uint64, line int) uint64 { return tag<<8 | uint64(line) + 1 }

// Check accepts a node only if its length fits and every line of its
// blob carries the seal of the node's tag; anything else is a torn
// enqueue whose flag or index was evicted before the payload became
// durable.
func (c *codec) Check(h *pmem.Heap, pn pmem.Addr) bool {
	tag := h.Load(0, pn+pnTag)
	if h.Load(0, pn+pnLen) > uint64(c.lines*lineData) {
		return false
	}
	for l := 0; l < c.lines; l++ {
		if h.Load(0, pn+pnBlob+pmem.Addr(l*pmem.CacheLineBytes)+sealOff) != seal(tag, l) {
			return false
		}
	}
	return true
}

// Read copies out the payload of a node Check accepted.
func (c *codec) Read(h *pmem.Heap, pn pmem.Addr) []byte {
	blob := pn + pnBlob
	n := h.Load(0, pn+pnLen)
	out := make([]byte, n)
	// lineData is a multiple of the word size, so stepping a word at a
	// time never straddles a line boundary.
	for i := 0; i < int(n); i += pmem.WordBytes {
		w := h.Load(0, blob+pmem.Addr(i/lineData*pmem.CacheLineBytes+i%lineData))
		if i+8 <= int(n) {
			binary.LittleEndian.PutUint64(out[i:], w)
		} else {
			var tail [8]byte
			binary.LittleEndian.PutUint64(tail[:], w)
			copy(out[i:], tail[:])
		}
	}
	return out
}
