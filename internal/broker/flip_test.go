package broker

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/pmem"
)

// A flipped bit anywhere in a broker's image must give Open a typed
// refusal or a broker that drains: never a panic. FuzzOpenFlip flips one
// bit of one image and TestOpenFlipSweep flips one bit in each of many;
// both build their images in-process from the seed, so there is no
// corpus to fetch.

// flipImage builds the image a flip test corrupts: a ModeCrash set of
// 16 MiB heaps (two for an odd seed, one for an even one) holding
// "events" (4 shards, 8-byte payloads), "jobs" (4 shards, blob payloads
// of up to 100 bytes, acked, with one lease region) and "timers" (a
// delay topic). Each topic gets 300 publishes and 100 consumes drawn
// from seed, then the power goes.
func flipImage(t *testing.T, seed uint64) *pmem.HeapSet {
	t.Helper()
	hs := pmem.NewSet(1+int(seed%2), pmem.Config{Bytes: 16 << 20, Mode: pmem.ModeCrash, MaxThreads: 1})
	b, err := newBroker(hs, Options{Threads: 1}, []TopicConfig{
		{Name: "events", Shards: 4},
		{Name: "jobs", Shards: 4, MaxPayload: 100, Acked: true},
		{Name: "timers", Shards: 1, MaxPayload: 24, Kind: KindDelay},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	events, jobs, timers := b.Topic("events"), b.Topic("jobs"), b.Topic("timers")
	for i := uint64(0); i < 300; i++ {
		if events.Publish(0, U64(i)) != nil || jobs.Publish(0, blobPayload(i)) != nil ||
			timers.PublishAt(0, U64(i), rng.Uint64()>>1) != nil {
			t.Fatalf("seed %d: publish %d refused", seed, i)
		}
	}
	for i := 0; i < 100; i++ {
		events.DequeueShard(0, rng.Intn(4))
		jobs.DequeueShard(0, rng.Intn(4))
		if _, _, err := timers.DequeueReady(0, ^uint64(0)); err != nil {
			t.Fatal(err)
		}
	}
	hs.CrashNow()
	hs.FinalizeCrash(rng)
	hs.Restart()
	return hs
}

// flipLowBytes is the part of each heap a flip lands in: everything the
// image's structures were allocated in, and the root slots before it.
const flipLowBytes = 4 << 20

// openFlipped builds seed's image, flips bit (mod 64) of the word'th
// (mod their count) nonzero word in the low flipLowBytes of its heaps,
// in member order, then opens the set and, if Open succeeds, drains
// every topic. It fails t on a panic in either and on a refusal that
// does not wrap pmem.ErrCorrupt, and returns Open's error.
func openFlipped(t *testing.T, seed uint64, word uint32, bit uint8) (err error) {
	t.Helper()
	hs := flipImage(t, seed)
	type wordAt struct {
		h *pmem.Heap
		a pmem.Addr
	}
	var nonzero []wordAt
	for _, h := range hs.Heaps() {
		for a := pmem.Addr(0); a < flipLowBytes; a += pmem.WordBytes {
			if h.RawMem(a) != 0 {
				nonzero = append(nonzero, wordAt{h, a})
			}
		}
	}
	at := nonzero[int(word)%len(nonzero)]
	at.h.Store(0, at.a, at.h.RawMem(at.a)^1<<(bit%64))
	where := fmt.Sprintf("flip (%d, %d, %d), bit %d of the word at %#x", seed, word, bit, bit%64, at.a)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: panicked: %v", where, r)
		}
	}()
	b, err := Open(hs, Options{Threads: 1})
	if err != nil {
		if !errors.Is(err, pmem.ErrCorrupt) {
			t.Fatalf("%s: Open refused with an error that does not wrap pmem.ErrCorrupt: %v", where, err)
		}
		return err
	}
	for _, tp := range b.Topics() {
		if tp.Kind() == KindDelay {
			for {
				ps, err := tp.DequeueReadyBatch(0, ^uint64(0), 64)
				if err != nil {
					t.Fatalf("%s: drain of %q: %v", where, tp.Name(), err)
				}
				if len(ps) == 0 {
					break
				}
			}
			continue
		}
		for s := 0; s < tp.Shards(); s++ {
			for ok := true; ok; _, ok = tp.DequeueShard(0, s) {
			}
		}
	}
	return nil
}

// flipPins are the flips the seed corpus holds, each with the refusal
// it must draw and the check that draws it: deleting that check turns
// its pin red. The first six are flips Open panicked on while ssmem,
// the queue core and the catalog each guarded their own reads: a
// duplicate index, an area registry's slot count and area count, and
// an index out of range from an unchecked area base, registry root and
// per-thread line base.
var flipPins = []struct {
	seed uint64
	word uint32
	bit  uint8
	want string
}{
	{678, 181, 3, "two live nodes with index 43"},                             // queues.inIndexOrder, placed by index
	{32, 535, 29, "area 0 at 0xd0200 has 536875008 slots, not 4096"},          // ssmem.readAreas, slot count
	{1844, 991, 12, "count 4097 stored at 0x160280 exceeds 4096"},             // pmem.Reader.Count
	{342, 763, 39, "range [0x8000120280, +262144) outside"},                   // pmem.Reader.Range, an area
	{564, 19, 44, "range [0x1000001e0400, +65600) outside"},                   // pmem.Reader.Range, a registry
	{680, 21, 25, "range [0x21f0480, +64) outside"},                           // pmem.Reader.Range, per-thread lines
	{88, 11, 2, "address 0x160284 stored at 0x900 is not line-aligned"},       // pmem.Reader.Ptr, alignment
	{1, 1, 18, "outside the allocated bytes [0x10000, 0x1105c0)"},             // pmem.Reader.Range, the break
	{1, 2, 16, "heap 1 of the set carries a membership stamp"},                // checkMemberEmpty
	{0, 2, 16, "anchor slot is zero, but the catalog log at 0x10000 commits"}, // checkNoCommittedLog
	{1, 3975, 16, "heap 1 of the set carries no membership stamp"},            // checkStamp, anchor
	{1, 3975, 6, "heap 1 stamp magic 0x1 invalid"},                            // checkStamp, magic
	{1, 3989, 3, "heap 1 carries stamp"},                                      // checkStamp, stamp
	{1971, 3991, 22, "stamped as member 1 of 4194306"},                        // checkStamp, position
	{2865, 2366, 50, "dheap: recover: bad region header"},                     // dheap.Recover, header
	{1898, 6287, 35, "lease region 0 magic"},                                  // readLeaseRegion, magic
	{319, 2, 17, "catalog magic 0x0 invalid"},                                 // readCatalog, magic
	{426, 32, 2, "catalog log header corrupt"},                                // readCatalogV4, header
	{127, 47, 49, "catalog log record 1 corrupt"},                             // readCatalogV4, record
	{3292, 66, 32, "record 2 overruns capacity"},                              // readCatalogV4, record length
}

func FuzzOpenFlip(f *testing.F) {
	for _, p := range flipPins {
		f.Add(p.seed, p.word, p.bit)
	}
	f.Fuzz(func(t *testing.T, seed uint64, word uint32, bit uint8) {
		err := openFlipped(t, seed, word, bit)
		for _, p := range flipPins {
			if p.seed == seed && p.word == word && p.bit == bit && (err == nil || !strings.Contains(err.Error(), p.want)) {
				t.Fatalf("pinned flip (%d, %d, %d): Open returned %v, want the refusal %q", seed, word, bit, err, p.want)
			}
		}
	})
}

// TestOpenFlipSweep flips one bit in each of 1 000 one-heap images
// (even seeds) and 300 two-heap images (odd seeds); the word and bit
// come from the seed. OPENFLIP_SEEDS sets both counts.
func TestOpenFlipSweep(t *testing.T) {
	seeds := [2]int{1000, 300}
	if raceEnabled {
		seeds = [2]int{60, 20}
	}
	if s := os.Getenv("OPENFLIP_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("OPENFLIP_SEEDS=%q: %v", s, err)
		}
		seeds = [2]int{n, n}
	}
	for heaps, n := range seeds {
		refused := 0
		for i := 0; i < n; i++ {
			seed := uint64(2*i + heaps)
			rng := rand.New(rand.NewSource(-int64(seed)))
			if openFlipped(t, seed, rng.Uint32(), uint8(rng.Intn(64))) != nil {
				refused++
			}
		}
		t.Logf("%d heap(s): %d flips, %d refused with pmem.ErrCorrupt, %d recovered", heaps+1, n, refused, n-refused)
	}
}
