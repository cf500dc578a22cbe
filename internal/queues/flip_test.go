package queues

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/pmem"
)

// flipCoreBytes is the part of the heap FuzzRecoverCore flips a word
// in: the header, the root slots, the node registry, the first area and
// the per-thread lines all lie below it.
const flipCoreBytes = 1 << 20

// recoverFlipped builds seed's image — an opt-unlinked queue, in ack
// mode for an odd seed, given 40 enqueues and up to 20 dequeues or
// acknowledgments drawn from seed before the power goes — flips bit
// (mod 64) of the word'th (mod the words below flipCoreBytes) word,
// zero or not, and recovers the queue in its own mode and drains it. It
// fails t on a panic that is not an error wrapping pmem.ErrCorrupt, and
// returns the refusal.
func recoverFlipped(t *testing.T, seed uint64, word uint32, bit uint8) (err error) {
	t.Helper()
	h := pmem.New(pmem.Config{Bytes: 2 << 20, Mode: pmem.ModeCrash, MaxThreads: 1})
	acked := seed%2 == 1
	rng := rand.New(rand.NewSource(int64(seed)))
	q := NewCore[uint64](h, 1, 0, acked, wordCodec{}, 1)
	for i := uint64(1); i <= 40; i++ {
		q.Enqueue(0, i)
	}
	for i := rng.Intn(20); i > 0; i-- {
		drainOne(q)
	}
	h.CrashNow()
	h.FinalizeCrash(rng)
	h.Restart()

	a := pmem.Addr(word%(flipCoreBytes/pmem.WordBytes)) * pmem.WordBytes
	h.Store(0, a, h.RawMem(a)^1<<(bit%64))
	where := fmt.Sprintf("flip (%d, %d, %d), bit %d of the word at %#x", seed, word, bit, bit%64, a)
	defer func() {
		if r := recover(); r != nil {
			if err, _ = r.(error); !errors.Is(err, pmem.ErrCorrupt) {
				t.Fatalf("%s: panicked: %v", where, r)
			}
		}
	}()
	q = RecoverCore[uint64](h, 1, acked, wordCodec{}, 1)
	for drainOne(q) {
	}
	return nil
}

// drainOne takes one item from q: a dequeue, or in ack mode a lease and
// its acknowledgment.
func drainOne(q *Core[uint64]) bool {
	if !q.Acked() {
		_, ok := q.Dequeue(0)
		return ok
	}
	_, idxs := q.DequeueLeased(0, 1)
	if len(idxs) == 0 {
		return false
	}
	q.AckTo(0, idxs[0])
	return true
}

// recoverPins are FuzzRecoverCore's seed corpus, each with the refusal
// it must draw and the check that draws it; deleting that check turns
// the pin red. Word 24 is the node registry's root slot, 32 the
// per-thread lines', 40 the ack lines'; the registry is the heap's
// first allocation, at 0x10000 (word 8192).
var recoverPins = []struct {
	seed uint64
	word uint32
	bit  uint8
	want string
}{
	{0, 24, 16, "RecoverPool on an empty root slot"},                 // ssmem.RecoverPool
	{0, 40, 16, "recovery with acked=false"},                         // RecoverCore, mode
	{0, 16408, 4, "two live nodes with index 17"},                    // inIndexOrder, placed by index
	{0, 8192, 12, "count 4097 stored at 0x10000 exceeds 4096"},       // pmem.Reader.Count
	{0, 8192, 1, "area 1 at 0x0 has 0 slots, not 4096"},              // ssmem.readAreas
	{0, 24, 0, "address 0x10001 stored at 0xc0 is not line-aligned"}, // pmem.Reader.Ptr, alignment
	{0, 24, 19, "range [0x90000, +65600) outside"},                   // pmem.Reader.Range, the registry
	{0, 32, 25, "range [0x2020040, +64) outside"},                    // pmem.Reader.Range, per-thread lines
	{1, 40, 25, "range [0x2020080, +64) outside"},                    // pmem.Reader.Range, ack lines
}

func FuzzRecoverCore(f *testing.F) {
	for _, p := range recoverPins {
		f.Add(p.seed, p.word, p.bit)
	}
	f.Fuzz(func(t *testing.T, seed uint64, word uint32, bit uint8) {
		err := recoverFlipped(t, seed, word, bit)
		for _, p := range recoverPins {
			if p.seed == seed && p.word == word && p.bit == bit && (err == nil || !strings.Contains(err.Error(), p.want)) {
				t.Fatalf("pinned flip (%d, %d, %d): recovery returned %v, want the refusal %q", seed, word, bit, err, p.want)
			}
		}
	})
}
