package pmem

import (
	"sync"
	"time"
)

// LatencyModel configures the delays injected by the simulator so that
// wall-clock throughput reflects the relative costs measured on real
// NVRAM platforms. All fields are in nanoseconds; a zero field injects
// no delay for that event (event counting is unaffected).
type LatencyModel struct {
	// NVMReadNs is charged when an ordinary access touches a line
	// that a previous flush invalidated (the paper's "access to
	// flushed content"): the line must be re-read from NVRAM, whose
	// read latency is roughly 3x DRAM.
	NVMReadNs int64
	// FenceNs is the fixed cost of an SFENCE that must wait for
	// earlier flushes to reach the persistence domain.
	FenceNs int64
	// FlushNs is the issue cost of an asynchronous CLWB.
	FlushNs int64
	// NTStoreNs is the issue cost of a movnti non-temporal store.
	NTStoreNs int64
	// DrainNsPerLine models write-pending-queue drain bandwidth. Every
	// flushed line (a CLWB) queues one line, and so does every NTStore,
	// a lone MOVNTI: eight NTStores filling one line queue eight. An
	// NTStoreLine queues one however many words it stores. It models a
	// thread's back-to-back MOVNTIs to one line, which the core
	// combines in one write-combining buffer and writes to the queue as
	// one line; each word still pays NTStoreNs to issue. Stats.DrainLines
	// counts the lines queued. A thread's queue drains in the
	// background, one line per DrainNsPerLine, from the issue of the
	// first line queued since its last Fence: a window of n lines whose
	// first was issued at instant first is durable at first + n·D, and
	// the Fence that closes it at instant now pays
	// FenceNs + max(0, first + n·D − now). Work performed between the
	// stores and the fence (issuing the next batch, application
	// processing) therefore genuinely overlaps the drain.
	//
	// What a line costs is its price, not a clock reading that takes
	// longer than the drain it would measure, so the window is kept in
	// modelled time. Every price a thread is charged (issue, fence, read
	// of flushed content, InitRange) advances its modelled clock, and
	// n·D minus the modelled time since the window's first line bounds
	// the residual from above, real time elapsed being never less than
	// time spun. Fence charges by that bound, in one of three ways:
	//
	//   - bound ≤ 0: the prices already charged have drained the window;
	//     Fence charges FenceNs and reads no clock.
	//   - bound > 0 and never above D while the window filled (one line,
	//     or lines whose issue prices nearly cover their drain): Fence
	//     charges the bound itself and reads no clock. A lone Flush+Fence
	//     is FlushNs + (D − FlushNs) + FenceNs, the model's price for a
	//     line that must drain before the fence returns.
	//   - bound above D at some line: that line takes the window's one
	//     reading, back-dated by the modelled time since the window
	//     opened (first = now − spun), and Fence takes a second to charge
	//     first + n·D − now: two readings however long the window.
	//
	// A window that read no clock is over-charged by at most
	// min(D, the Go time spent inside it): unmodelled time the thread
	// spent between its lines and its fence, which the drain would have
	// overlapped. A measured window is over-charged by at most the Go
	// time between its first line and its reading, and only if it is
	// fenced before it drains.
	//
	// The window equals a per-line model (each line durable DrainNsPerLine
	// after the previous one or after its own issue, whichever is
	// later) whenever the queue does not run empty between a window's
	// lines, which holds for stores issued back to back. A burst issued
	// into a window that is already open after the queue has idled is
	// under-charged, by at most that burst's own drain time.
	//
	// Zero disables drain modelling; fences then cost FenceNs alone and
	// no clock is read.
	DrainNsPerLine int64
}

// DefaultLatency returns the model used for the paper-shaped
// benchmarks. The constants follow published Optane DC measurements
// (random read ~300ns; persist ~100-200ns).
func DefaultLatency() LatencyModel {
	return LatencyModel{
		NVMReadNs:      300,
		FenceNs:        120,
		FlushNs:        20,
		NTStoreNs:      10,
		DrainNsPerLine: 25,
	}
}

// ZeroLatency returns a model that injects no delays. Counting of
// fences, flushes and post-flush accesses still happens; correctness
// tests use this model for speed.
func ZeroLatency() LatencyModel { return LatencyModel{} }

// SetLatency replaces the heap's latency model. Call only while the
// heap is quiescent (harnesses use it to prefill queues at full speed
// before switching the measured model on).
func (h *Heap) SetLatency(m LatencyModel) { h.lat = m }

// monotonicEpoch anchors the package clock used by the background
// write-pending-queue drain model. time.Since on a fixed anchor reads
// the runtime's monotonic clock, so the values are strictly
// non-decreasing and immune to wall-clock steps.
var monotonicEpoch = time.Now()

// monotonicNs returns nanoseconds since the package clock's epoch.
func monotonicNs() int64 { return int64(time.Since(monotonicEpoch)) }

var (
	calOnce        sync.Once
	spinItersPerNs float64
)

// spinKernel runs n xorshift64 steps. The generator never reaches
// zero from a nonzero seed, which the caller exploits to keep the
// loop from being optimized away without sharing a sink variable
// across threads.
//
//go:noinline
func spinKernel(n int64) uint64 {
	x := uint64(0x9E3779B97F4A7C15)
	for i := int64(0); i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

func calibrate() {
	const probe = 1 << 21
	best := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if spinKernel(probe) == 0 {
			panic("pmem: xorshift64 reached zero")
		}
		if el := time.Since(t0); el < best {
			best = el
		}
	}
	spinItersPerNs = float64(probe) / float64(best.Nanoseconds())
}

// spinFor busy-loops for approximately ns nanoseconds without any
// shared-memory traffic and without syscalls.
func spinFor(ns int64) {
	calOnce.Do(calibrate)
	n := int64(float64(ns) * spinItersPerNs)
	if n < 1 {
		n = 1
	}
	if spinKernel(n) == 0 {
		panic("pmem: xorshift64 reached zero")
	}
}
