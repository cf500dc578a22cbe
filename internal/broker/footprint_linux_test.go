//go:build linux && !race

package broker

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/pmem"
)

// vmRSS reads the process's resident set size in bytes.
func vmRSS(t *testing.T) int64 {
	t.Helper()
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skip("no /proc/self/status:", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb << 10
		}
	}
	t.Skip("no VmRSS line in /proc/self/status")
	return 0
}

// TestShardFootprint pins what an idle shard costs: 30 topics of four
// shards, created at runtime on a 1 GiB heap, each shard holding one
// message. The node areas, registries and head-index lines their
// creation initializes are zero already, and a shard's mirror holds one
// page, so the broker grows the live Go heap by at most 1.5 MB and the
// resident set by at most 8 MB. Zeroing both views of every area and a
// 4 096-node mirror per shard read 24 MB and 105 MB. Built without the
// race detector, whose shadow memory grows with every address it sees.
func TestShardFootprint(t *testing.T) {
	const topics, shards = 30, 4
	hs := pmem.NewSet(1, pmem.Config{Bytes: 1 << 30, MaxThreads: 2})
	b, err := Open(hs, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rss := vmRSS(t)
	for i := 0; i < topics; i++ {
		tp, err := b.CreateTopic(0, TopicConfig{Name: fmt.Sprintf("t%d", i), Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < shards; s++ {
			if err := tp.Publish(0, U64(uint64(s))); err != nil { // round-robin: one a shard
				t.Fatal(err)
			}
		}
	}
	grewRSS := vmRSS(t) - rss
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(b)
	grewHeap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d shards holding a message each: live Go heap +%.2f MB, VmRSS +%.2f MB",
		topics*shards, float64(grewHeap)/1e6, float64(grewRSS)/1e6)
	if grewHeap > 1_500_000 {
		t.Errorf("live Go heap grew %.2f MB, want <= 1.5", float64(grewHeap)/1e6)
	}
	if grewRSS > 8_000_000 {
		t.Errorf("VmRSS grew %.2f MB, want <= 8", float64(grewRSS)/1e6)
	}
}
