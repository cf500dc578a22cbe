package queues

import (
	"testing"

	"repro/internal/pmem"
)

// TestPostFlushAttribution demonstrates the SetPostFlushHook
// observability facility and pins *where* the first-amendment queues
// violate the guideline: UnlinkedQ's violations land on the head line
// and on node lines (the tail's index read); OptUnlinkedQ produces no
// events at all.
func TestPostFlushAttribution(t *testing.T) {
	run := func(name string) map[string]int {
		h := pmem.New(pmem.Config{Bytes: 32 << 20, MaxThreads: 2})
		headLine := h.RootAddr(slotHead) / pmem.CacheLineBytes
		in, _ := Lookup(name)
		q := in.New(h, 1)
		// Attribute operation-path accesses only: construction-time
		// allocator bootstrap (heap break, area registry) also
		// touches flushed lines, but only O(1) times per area, not
		// per operation.
		regions := map[string]int{}
		h.SetPostFlushHook(func(tid int, a pmem.Addr) {
			if a/pmem.CacheLineBytes == headLine {
				regions["head"]++
			} else {
				regions["node"]++
			}
		})
		for i := uint64(1); i <= 100; i++ {
			q.Enqueue(0, i)
		}
		for i := 0; i < 100; i++ {
			q.Dequeue(0)
		}
		return regions
	}

	uq := run("unlinked")
	if uq["head"] == 0 {
		t.Error("unlinked: expected post-flush accesses on the head line (dequeues re-read the flushed head)")
	}
	if uq["node"] == 0 {
		t.Error("unlinked: expected post-flush accesses on node lines (enqueues read the flushed tail's index)")
	}
	ou := run("opt-unlinked")
	if len(ou) != 0 {
		t.Errorf("opt-unlinked: expected no post-flush events, got %v", ou)
	}
}
