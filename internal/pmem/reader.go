package pmem

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrCorrupt is wrapped by every refusal of an image that no run of
// this repository's code could have left behind: an address outside
// the heap's allocated bytes or off its alignment, a count past what
// the structure can hold, a header or record that fails its own check.
// Recovery procedures raise nothing else about an image's contents.
var ErrCorrupt = errors.New("pmem: corrupt image")

// Reader is the one way recovery takes addresses, counts and ranges
// from an image. Every address it hands out lies inside the heap and is
// aligned, every count is capped, and every range is checked by
// arithmetic on the heap's size and persisted break, never by a load.
// The first failure sticks: later reads return zero and Err reports it,
// wrapping ErrCorrupt, so a recovery scan may read a whole header and
// check once. A recovery with an error result returns Err; a
// constructor without one raises it with Raise, as AllocRaw raises
// ErrOutOfSpace.
//
// A Reader checks once per root, region and area; the slots of a
// checked range are read with plain loads.
type Reader struct {
	h   *Heap
	err error
}

// NewReader returns a reader of h's image.
func NewReader(h *Heap) *Reader { return &Reader{h: h} }

// Word loads the word at a, which must lie inside the heap.
func (r *Reader) Word(a Addr) uint64 {
	if r.err != nil {
		return 0
	}
	// Phrased to survive addresses near 2^64: a+WordBytes could wrap to
	// a small value and dodge the check.
	if bytes := Addr(r.h.Bytes()); a >= bytes || bytes-a < WordBytes {
		r.Errorf("read at %#x beyond heap of %d bytes", uint64(a), r.h.Bytes())
		return 0
	}
	return r.h.Load(0, a)
}

// Ptr loads the address stored at at and checks that it names size
// bytes the heap has allocated: cache-line aligned, as AllocRaw hands
// out every range, and inside Range. Zero, the nil address, is returned
// unchecked; the caller decides whether nothing may be anchored there.
func (r *Reader) Ptr(at Addr, size int64) Addr {
	p := Addr(r.Word(at))
	switch {
	case p == 0 || r.err != nil:
		return 0
	case p%CacheLineBytes != 0:
		r.Errorf("address %#x stored at %#x is not line-aligned", uint64(p), uint64(at))
		return 0
	case !r.Range(p, size):
		return 0
	}
	return p
}

// Range reports whether [a, a+size) lies in the heap's allocated bytes:
// at or past the first allocatable byte, and below both the persisted
// break and the heap's end. A range outside them fails the reader.
func (r *Reader) Range(a Addr, size int64) bool {
	if r.err != nil {
		return false
	}
	end := r.end()
	if a < dataStart || a > end || size < 0 || uint64(end-a) < uint64(size) {
		r.Errorf("range [%#x, +%d) outside the allocated bytes [%#x, %#x)", uint64(a), size, uint64(dataStart), uint64(end))
		return false
	}
	return true
}

// end is the end of the heap's allocated bytes: its persisted break,
// capped at its size. The break is read without a touch, as a recovery
// that loads it costs no access the simulator would count.
func (r *Reader) end() Addr {
	return min(Addr(atomic.LoadUint64(&r.h.mem[brkAddr/WordBytes])), Addr(r.h.Bytes()))
}

// FirstAlloc returns the address AllocRaw hands out first on a fresh
// heap, if the heap has allocated size bytes there, and 0 if it has
// not. A recovery that finds nothing anchored asks it where a
// structure its creation allocates first would lie.
func (r *Reader) FirstAlloc(size int64) Addr { return r.AllocAt(dataStart, size) }

// AllocAt returns a if the heap has allocated the size bytes at a, and
// 0 if it has not. A range the heap has not allocated is no refusal
// here: the reader does not fail.
func (r *Reader) AllocAt(a Addr, size int64) Addr {
	end := r.end()
	if r.err != nil || size < 0 || a < dataStart || a > end || uint64(end-a) < uint64(size) {
		return 0
	}
	return a
}

// Count loads the count stored at at and checks it against limit, the
// most the structure holding it can record.
func (r *Reader) Count(at Addr, limit uint64) uint64 {
	n := r.Word(at)
	if n > limit {
		r.Errorf("count %d stored at %#x exceeds %d", n, uint64(at), limit)
		return 0
	}
	return n
}

// Errorf fails the reader with a refusal its caller found, unless it
// has failed already, and returns the reader's error.
func (r *Reader) Errorf(format string, args ...any) error {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %w", ErrCorrupt, fmt.Errorf(format, args...))
	}
	return r.err
}

// Err returns the reader's first failure, which wraps ErrCorrupt, or nil.
func (r *Reader) Err() error { return r.err }

// Raise panics with the reader's first failure, if it has one.
func (r *Reader) Raise() {
	if r.err != nil {
		panic(r.err)
	}
}
