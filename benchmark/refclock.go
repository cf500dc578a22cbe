package main

import (
	"repro/internal/pmem"
)

// Reference-speed time.
//
// The reference box runs its cores at one of two clock speeds, about
// 1.27x apart, for tens of seconds at a time, whichever the host's
// other tenants leave it; and pmem calibrates its spin loop once, in
// the first milliseconds of a process, while the core is still
// settling. Raw wall-clock figures of one commit therefore spread by a
// quarter from run to run, wider than any bound worth gating on.
//
// Both effects are measurable from outside. Next to every timed
// interval a probe runs two fixed pieces of work: a dependent-ALU loop,
// which gives the core's speed k in ns per iteration then, and a burst
// of fences of a known modelled latency on a scratch heap, which gives
// rho, the real ns pmem's spin loop takes per modelled ns then. k/rho
// is the speed pmem calibrated at, kCal: a constant of the process,
// estimated afresh by every probe and taken as the median of them all.
// An interval that took real ns, during which the simulator was asked
// to model m ns of NVRAM latency (counted from pmem.Stats), spent
// m*k/kCal of it in pmem's spin loop and the rest in Go code, so at
// the reference speed kRef and a true calibration it would have taken
//
//	m + (real - m*k/kCal) * kRef/k.
//
// Every timing this benchmark reports is converted that way: it is the
// time the run would have taken on the reference box at its undisturbed
// clock with a correctly calibrated simulator. Counts are untouched,
// and raw_msgs_per_s in every rep's output is the unconverted rate.
// README.md gives the measured spreads with and without the conversion.

// kRef is the probe loop's speed on the reference box (Xeon 2.1 GHz,
// 2 vCPU, go1.24) at its undisturbed clock, in ns per iteration.
const kRef = 1.45

// probeFenceNs is the modelled latency of the fences the probe times:
// long enough that the call around the spin loop does not count.
const probeFenceNs = 2000

//go:noinline
func probeKernel(n int) uint64 {
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

type refClock struct {
	scratch *pmem.Heap // its only purpose is Fence(0) at probeFenceNs
	kCals   []float64  // one estimate of kCal per probe
	k, rho  float64    // latest probe
	at      int64      // when it was taken
}

// fastest runs f four times and returns the shortest duration in ns, so
// that an interrupt in one of the runs does not count.
func fastest(f func()) float64 {
	best := int64(1 << 62)
	for i := 0; i < 4; i++ {
		t0 := now()
		f()
		best = min(best, now()-t0)
	}
	return float64(best)
}

// probe measures the core's speed and pmem's spin speed now. A reading
// less than a millisecond old is reused, so that back-to-back intervals
// share the probe between them.
func (c *refClock) probe() float64 {
	const iters, fences = 100_000, 100
	if c.k != 0 && now()-c.at < 1_000_000 {
		return c.k
	}
	c.k = fastest(func() {
		if probeKernel(iters) == 0 {
			panic("benchmark: xorshift64 reached zero")
		}
	}) / iters
	c.rho = fastest(func() {
		for i := 0; i < fences; i++ {
			c.scratch.Fence(0)
		}
	}) / (fences * probeFenceNs)
	c.kCals = append(c.kCals, c.k/c.rho)
	c.at = now()
	return c.k
}

// fresh drops the cached reading, so that the next probe measures.
func (c *refClock) fresh() float64 {
	c.k = 0
	return c.probe()
}

// newRefClock lets the core settle, triggers pmem's spin calibration
// and takes the first probe. It returns the spin calibration ratio too
// (measured over modelled fence latency), which the noise guard checks.
func newRefClock() (*refClock, float64) {
	probeKernel(20_000_000) // ~30 ms: a process's first milliseconds run slow
	c := &refClock{scratch: pmem.New(pmem.Config{
		Bytes: 1 << 20, MaxThreads: 1, Latency: pmem.LatencyModel{FenceNs: probeFenceNs},
	})}
	c.scratch.Fence(0) // pmem calibrates here
	c.probe()
	return c, c.rho
}

// reading is one timed interval: its wall-clock duration, the NVRAM
// latency modelled inside it, and the core's speed around it.
type reading struct {
	raw, modelled, k float64
}

// ref converts a reading to reference-speed ns, with the best estimate
// of kCal the process has so far; the reductions at the end of a run
// call it, when that estimate rests on every probe of the run.
func (c *refClock) ref(r reading) float64 {
	goNs := r.raw - r.modelled*r.k/median(c.kCals)
	if goNs < 0 {
		goNs = 0
	}
	return r.modelled + goNs*kRef/r.k
}

// modelledNs prices counted events by the latency model. Residual
// write-pending-queue drain is not countable and stays with the Go
// share, where it is converted like everything else.
func modelledNs(d pmem.Stats) float64 {
	lat := pmem.DefaultLatency()
	return float64(d.Fences)*float64(lat.FenceNs) + float64(d.Flushes)*float64(lat.FlushNs) +
		float64(d.NTStores)*float64(lat.NTStoreNs) + float64(d.PostFlushAccesses)*float64(lat.NVMReadNs)
}

// interval is one timed stretch under the reference clock.
type interval struct {
	c     *refClock
	stats func() pmem.Stats
	k0    float64
	st0   pmem.Stats
	t0    int64
}

// start opens an interval; stats counts the events of the heaps the
// interval runs on, and may be nil when there are none.
func (c *refClock) start(stats func() pmem.Stats) interval {
	iv := interval{c: c, stats: stats, k0: c.probe()}
	if stats != nil {
		iv.st0 = stats()
	}
	iv.t0 = now()
	return iv
}

// stop closes the interval.
func (iv interval) stop() reading {
	r := reading{raw: float64(now() - iv.t0)}
	if iv.stats != nil {
		r.modelled = modelledNs(iv.stats().Sub(iv.st0))
	}
	r.k = (iv.k0 + iv.c.fresh()) / 2
	return r
}
