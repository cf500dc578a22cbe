package broker

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/pmem"
)

// TestCatalogCorruptionErrors: a corrupted or truncated catalog log,
// or an anchor naming anything else, must surface as an error from
// Open wrapping pmem.ErrCorrupt (a retired format as an unsupported
// one) — never a panic deep in the simulator, never a fresh broker
// created over the image. Offsets target the log's layout (header
// line, commit line, records).
func TestCatalogCorruptionErrors(t *testing.T) {
	newCrashed := func(t *testing.T) *pmem.Heap {
		h := pmem.New(pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4})
		b, err := newBroker(pmem.NewSetOf(h), Options{Threads: 2}, twoTopics(), 0)
		if err != nil {
			t.Fatal(err)
		}
		b.Topic("events").Publish(0, U64(1))
		h.CrashNow()
		h.FinalizeCrash(rand.New(rand.NewSource(3)))
		h.Restart()
		return h
	}
	refuse := func(t *testing.T, h *pmem.Heap, what string) error {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: Open panicked: %v", what, r)
			}
		}()
		anchor := h.Load(0, h.RootAddr(slotAnchor))
		_, err := Open(pmem.NewSetOf(h), Options{Threads: 2})
		if err == nil {
			t.Fatalf("%s: Open succeeded on a corrupted catalog", what)
		}
		if got := h.Load(0, h.RootAddr(slotAnchor)); got != anchor {
			t.Fatalf("%s: the refused Open moved the anchor %#x -> %#x", what, anchor, got)
		}
		return err
	}
	// expectErr is refuse for an image no run of the broker wrote: the
	// error wraps pmem.ErrCorrupt.
	expectErr := func(t *testing.T, h *pmem.Heap, what string) error {
		t.Helper()
		err := refuse(t, h, what)
		if !errors.Is(err, pmem.ErrCorrupt) {
			t.Fatalf("%s: want an error wrapping pmem.ErrCorrupt, got %v", what, err)
		}
		return err
	}
	// lastLine allocates the heap's bytes up to and including its last
	// line and returns that line: allocated, so the reader may load it,
	// with nothing of the heap past it.
	lastLine := func(h *pmem.Heap) pmem.Addr {
		brk := h.AllocRaw(0, 0, pmem.CacheLineBytes)
		h.AllocRaw(0, h.Bytes()-pmem.CacheLineBytes-int64(brk), pmem.CacheLineBytes)
		return h.AllocRaw(0, pmem.CacheLineBytes, pmem.CacheLineBytes)
	}
	// reseal recomputes the checksum of the record whose header line is
	// at hdrA, so an edited record still validates and the layer that
	// must catch the edit is the field check, not the checksum.
	reseal := func(h *pmem.Heap, hdrA pmem.Addr) {
		var sum []uint64
		for w := 0; w < 7; w++ {
			sum = append(sum, h.Load(0, hdrA+pmem.Addr(w*8)))
		}
		for l := 1; l <= int(sum[5]); l++ {
			for w := 0; w < 8; w++ {
				sum = append(sum, h.Load(0, hdrA+pmem.Addr(l*pmem.CacheLineBytes+w*8)))
			}
		}
		h.Store(0, hdrA+7*pmem.WordBytes, lineSum(catMagicV4, sum))
	}
	// The log is header (line 0), commit (line 1), then the records from
	// line 2.
	const recLine = logHeaderLines

	t.Run("bad magic", func(t *testing.T) {
		h := newCrashed(t)
		reg := pmem.Addr(h.Load(0, h.RootAddr(slotAnchor)))
		h.Store(0, reg, 0xdead)
		expectErr(t, h, "bad magic")
	})
	t.Run("header field corrupted", func(t *testing.T) {
		// Any flipped header word — here the thread bound — must fail
		// the header checksum.
		h := newCrashed(t)
		reg := pmem.Addr(h.Load(0, h.RootAddr(slotAnchor)))
		h.Store(0, reg+16, 1<<40)
		expectErr(t, h, "header field")
	})
	t.Run("absurd commit count", func(t *testing.T) {
		h := newCrashed(t)
		reg := pmem.Addr(h.Load(0, h.RootAddr(slotAnchor)))
		h.Store(0, reg+pmem.CacheLineBytes, 1<<40)
		expectErr(t, h, "absurd commit count")
	})
	t.Run("commit count past the written tail", func(t *testing.T) {
		// A commit word claiming one more record than was ever appended
		// points replay at virgin lines, which fail record validation.
		h := newCrashed(t)
		reg := pmem.Addr(h.Load(0, h.RootAddr(slotAnchor)))
		h.Store(0, reg+pmem.CacheLineBytes, h.Load(0, reg+pmem.CacheLineBytes)+1)
		expectErr(t, h, "commit past tail")
	})
	t.Run("committed record corrupted", func(t *testing.T) {
		// Flipping any word of a committed record — here topic 0's shard
		// count — must fail the record checksum.
		h := newCrashed(t)
		reg := pmem.Addr(h.Load(0, h.RootAddr(slotAnchor)))
		h.Store(0, reg+recLine*pmem.CacheLineBytes+16, 1)
		expectErr(t, h, "committed record")
	})
	// Replay holds every committed record to the standard CreateTopic
	// held the request to — names, duplicates, kinds, windows — so Open
	// needs no second pass over the recovered configs. Each row edits a
	// committed record and reseals it: the record validates,
	// the field check must refuse. Topic 0 ("events", 4 shards) is the
	// record at recLine: header, name line, one placement line; topic 1
	// ("jobs") follows it.
	const (
		rec0 = recLine * pmem.CacheLineBytes
		rec1 = (recLine + 3) * pmem.CacheLineBytes
	)
	type edit struct {
		off pmem.Addr // word, relative to the record header
		val uint64
	}
	for _, row := range []struct {
		name  string
		rec   pmem.Addr // record header, relative to the log base
		edits []edit
		want  string
	}{
		// Heap 7 of a 1-heap set.
		{"placement out of range", rec0, []edit{{2 * pmem.CacheLineBytes, packLoc(shardLoc{heap: 7, base: 1})}}, "on heap 7 of 1"},
		// jobs shard 0 on events shard 0's window.
		{"windows overlap", rec1, []edit{{2 * pmem.CacheLineBytes, packLoc(shardLoc{heap: 0, base: 1})}}, "overlapping live window"},
		// events shard 0's 8-slot window from the heap's last root slot.
		{"window past its heap's root slots", rec0, []edit{{2 * pmem.CacheLineBytes, packLoc(shardLoc{heap: 0, base: pmem.NumRootSlots - 1})}}, "past heap 0's"},
		{"invalid topic kind", rec0, []edit{{3 * pmem.WordBytes, 3 << catKindShift}}, "invalid kind"},
		{"heap kind with four shards", rec0, []edit{{3 * pmem.WordBytes, uint64(KindDelay) << catKindShift}}, "exactly 1 shard"},
		// jobs (blob topic, 100 bytes) claiming 358 blob lines: a seal
		// names a line only below 255.
		{"payload past the seal's line field", rec1, []edit{{3 * pmem.WordBytes, 20000}}, "exceeds the blob codec"},
		{"zero name length", rec0, []edit{{4 * pmem.WordBytes, 0}}, "name length"},
		// Word 6 is 1+base; no writer ever stored 0 there.
		{"ordinal base word zero", rec0, []edit{{6 * pmem.WordBytes, 0}}, "ordinal base"},
		// jobs renamed "events": name length, first name word.
		{"duplicate topic name", rec1, []edit{{4 * pmem.WordBytes, 6}, {pmem.CacheLineBytes, packName("events")[0]}}, "twice"},
	} {
		t.Run(row.name, func(t *testing.T) {
			h := newCrashed(t)
			reg := pmem.Addr(h.Load(0, h.RootAddr(slotAnchor)))
			for _, e := range row.edits {
				h.Store(0, reg+row.rec+e.off, e.val)
			}
			reseal(h, reg+row.rec)
			if err := expectErr(t, h, row.name); !strings.Contains(err.Error(), row.want) {
				t.Fatalf("want an error mentioning %q, got: %v", row.want, err)
			}
		})
	}
	t.Run("anchor near uint64 wraparound", func(t *testing.T) {
		// A corrupt anchor in [2^64-8, 2^64) must fail the reader, not
		// wrap past its bounds check into an index panic.
		h := newCrashed(t)
		h.Store(0, h.RootAddr(slotAnchor), ^uint64(0)-3)
		expectErr(t, h, "wraparound anchor")
	})
	// The three write-once layouts that preceded the log are retired:
	// an anchor naming one is refused as an unsupported format, and such
	// a heap is still no member of a new set.
	for v, magic := range []uint64{0x42726f6b657231, 0x42726f6b657232, 0x42726f6b657233} {
		t.Run("retired format Broker"+string(rune('1'+v)), func(t *testing.T) {
			h := newCrashed(t)
			reg := h.AllocRaw(0, pmem.CacheLineBytes, pmem.CacheLineBytes)
			h.InitRange(0, reg, pmem.CacheLineBytes)
			h.Store(0, reg, magic)
			h.Store(0, h.RootAddr(slotAnchor), uint64(reg))
			err := refuse(t, h, "retired format")
			if want := "\"Broker" + string(rune('1'+v)) + "\" is unsupported"; !strings.Contains(err.Error(), want) {
				t.Fatalf("want an error mentioning %s, got: %v", want, err)
			}
			blank := pmem.New(pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 4})
			_, err = Open(pmem.NewSetOf(blank, h), Options{Threads: 2})
			if err == nil || !strings.Contains(err.Error(), "unknown durable state") {
				t.Fatalf("a retired-format heap as member 1 of a new set: want the unknown-durable-state refusal, got %v", err)
			}
			if blank.Load(0, blank.RootAddr(slotAnchor)) != 0 {
				t.Fatal("the refused creation anchored a catalog on the blank heap")
			}
		})
	}
	t.Run("short legacy catalog near heap end", func(t *testing.T) {
		h := newCrashed(t)
		// A retired-format header on the last line of the heap, every row
		// it would describe out of bounds: refused by its magic alone,
		// nothing past the line is read.
		tail := lastLine(h)
		h.Store(0, tail, 0x42726f6b657232)
		h.Store(0, tail+8, 2) // what was its topic count
		h.Store(0, h.RootAddr(slotAnchor), uint64(tail))
		if err := refuse(t, h, "short catalog"); !strings.Contains(err.Error(), "unsupported") {
			t.Fatalf("want the unsupported-format refusal, got %v", err)
		}
	})
	t.Run("short v4 log near heap end", func(t *testing.T) {
		h := newCrashed(t)
		// A validly checksummed v4 header on the heap's last line, whose
		// body runs off the heap: the commit-line read must hit the
		// reader's bound.
		tail := lastLine(h)
		hdr := []uint64{catMagicV4, 2, 1, 1, 1024, 0, 0}
		for i, w := range hdr {
			h.Store(0, tail+pmem.Addr(i*8), w)
		}
		h.Store(0, tail+7*pmem.WordBytes, lineSum(catMagicV4, hdr))
		h.Store(0, h.RootAddr(slotAnchor), uint64(tail))
		if err := expectErr(t, h, "short v4 log"); !strings.Contains(err.Error(), "beyond heap") {
			t.Fatalf("want the reader's bound, got %v", err)
		}
	})
}
