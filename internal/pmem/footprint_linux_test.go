//go:build linux && !race

package pmem

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
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

// TestInitRangeFootprint pins the content rule's point: InitRange over a
// fresh range only reads it, so the kernel keeps backing the range with
// the shared zero page. Writing zeros into it would make all 64 MiB
// resident, twice over where the heap kept an image. The race
// detector's shadow memory grows with every address it sees, read or
// written, so the pin is built without it.
func TestInitRangeFootprint(t *testing.T) {
	const size = 64 << 20
	h := New(Config{Bytes: size + 1<<20, MaxThreads: 1})
	a := h.AllocRaw(0, size, CacheLineBytes)
	before := vmRSS(t)
	h.InitRange(0, a, size)
	grew := vmRSS(t) - before
	runtime.KeepAlive(h)
	if grew >= 4<<20 {
		t.Fatalf("InitRange of a fresh %d MiB range grew VmRSS by %.1f MB, want < 4", size>>20, float64(grew)/1e6)
	}
}

// TestCrashHeapFootprint pins that a ModeCrash heap keeps one copy of
// memory: a line's image is its working view once a fence has persisted
// it, so writing and fencing 32 MiB of lines makes 32 MiB of the working
// view resident, with the cache flags and journal index of those lines,
// and nothing more. A second, image copy of memory would add 32 MiB.
func TestCrashHeapFootprint(t *testing.T) {
	const size, chunk = 32 << 20, 64 * CacheLineBytes
	h := New(Config{Bytes: 256 << 20, Mode: ModeCrash, MaxThreads: 1})
	a := h.AllocRaw(0, size, CacheLineBytes)
	words := make([]uint64, chunk/WordBytes)
	for i := range words {
		words[i] = uint64(i + 1)
	}
	before := vmRSS(t)
	for off := Addr(0); off < size; off += chunk {
		h.WriteBack(0, a+off, words)
		h.Fence(0)
	}
	grew := vmRSS(t) - before
	runtime.KeepAlive(h)
	if grew > 42e6 {
		t.Fatalf("writing and fencing %d MiB of a ModeCrash heap grew VmRSS by %.1f MB, want at most 42", size>>20, float64(grew)/1e6)
	}
}
