package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"

	"repro/internal/pmem"
)

// repResult is what one measuring process reports to its parent.
type repResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Scale    float64 `json:"scale"`
	Traced   bool    `json:"traced"`
	// Attempted and Failed count messages: a refused publish fails its
	// whole batch, an audit violation fails one, and a caught
	// out-of-memory panic fails everything the run still had to do.
	Attempted  int64    `json:"attempted"`
	Failed     int64    `json:"failed"`
	Violations []string `json:"violations,omitempty"`
	// Values holds per-process medians of timings and exact counts;
	// Samples the number of calls behind each percentile.
	Values  map[string]float64 `json:"values"`
	Samples map[string]int64   `json:"samples"`
	// RoundIQR and SpinRatio feed the parent's noise guard. The rest is
	// there for whoever wonders what the conversion in refclock.go did:
	// msgs/s of every measured round at reference speed, the median
	// rate as the wall clock saw it, and the core speed (median over
	// rounds) and calibration speed it was converted with, in ns per
	// probe iteration.
	RoundIQR   float64   `json:"round_iqr"`
	SpinRatio  float64   `json:"spin_ratio"`
	RoundRates []float64 `json:"round_rates"`
	RawRate    float64   `json:"raw_msgs_per_s"`
	CoreSpeed  float64   `json:"core_ns_per_iter"`
	CalSpeed   float64   `json:"calibrated_ns_per_iter"`
}

type childConfig struct {
	workload string
	seed     int64
	scale    float64
	traced   bool
}

// Verb classes: which latency distribution a call's duration joins.
const (
	clsNone = iota
	clsPub
	clsDel
)

// roundStat is one measured round. The percentiles are as the wall
// clock saw them; the reductions convert them, and the round's
// duration, to reference speed.
type roundStat struct {
	t          reading
	msgs       int
	pub, del   [3]float64 // p50, p99, p999 in ns
	nPub, nDel int
}

// bench is the state of one measuring process: the seeded input
// generator, the reference clock, the latency samples, the optional
// tracer and the audit tally.
type bench struct {
	cfg   childConfig
	rng   *rand.Rand
	clock *refClock
	tr    *tracer // nil on the untraced pass
	hs    *pmem.HeapSet

	pub, del []uint32 // call latencies of the round in progress, raw ns
	rounds   []roundStat
	gcNs     int64 // time spent in the collections between rounds

	guardNs int64   // what the first probe took: not part of set-up
	setup   reading // process start to first measured call

	attempted, failed int64
	violations        []string
	oom               bool

	res repResult
}

func newBench(cfg childConfig) *bench {
	b := &bench{cfg: cfg, rng: rand.New(rand.NewSource(cfg.seed))}
	b.res = repResult{
		Workload: cfg.workload, Seed: cfg.seed, Scale: cfg.scale, Traced: cfg.traced,
		Values: map[string]float64{}, Samples: map[string]int64{},
	}
	t0 := now()
	b.clock, b.res.SpinRatio = newRefClock()
	b.guardNs, b.setup.k = now()-t0, b.clock.k
	return b
}

// scaled shrinks a round (or cycle) count by -scale, never below min.
func (b *bench) scaled(n, min int) int {
	n = int(float64(n)*b.cfg.scale + 0.5)
	if n < min {
		n = min
	}
	return n
}

// violate records one audit violation.
func (b *bench) violate(format string, args ...any) {
	b.failed++
	if len(b.violations) < 8 {
		b.violations = append(b.violations, fmt.Sprintf(format, args...))
	}
}

// call runs one set-up step and, on the traced pass, records its span.
func (b *bench) call(name spanName, f func()) {
	t0 := now()
	f()
	if b.tr != nil {
		b.tr.leaf(name, t0, now(), 0)
	}
}

// lap closes the call that began at start: it reads the clock once,
// files the duration under the verb class and, on the traced pass,
// records the span. The returned reading is the next call's start, so
// a chain of calls costs one clock read each and the few nanoseconds
// the benchmark spends between calls (stamping payloads, checking
// deliveries) land in the following sample.
func (b *bench) lap(name spanName, cls int, start int64, msgs int) int64 {
	end := now()
	switch cls {
	case clsPub:
		b.pub = append(b.pub, uint32(end-start))
	case clsDel:
		if msgs > 0 { // an empty poll is not a delivery
			b.del = append(b.del, uint32(end-start))
		}
	}
	if b.tr != nil {
		b.tr.leaf(name, start, end, msgs)
	}
	return end
}

// sample files a delivery that spans several traced calls (poll+ack).
func (b *bench) sample(ns int64) { b.del = append(b.del, uint32(ns)) }

func percentiles(s []uint32) [3]float64 {
	slices.Sort(s)
	return [3]float64{rankOf(s, 0.50), rankOf(s, 0.99), rankOf(s, 0.999)}
}

// runRound times one round against stats (the heaps it runs on) and
// reduces its latency samples. Every duration of the round is
// converted to reference speed by the round's own factor. A panic from
// the simulated heap running out is caught here and turns the rest of
// the run into failed operations; any other panic is a bug and
// propagates.
//
// One collection runs after every round, outside the timed window, so
// that every round starts from the same Go heap. The simulated NVRAM
// is two pointer-free slices on that heap: at the default GOGC the
// collector would wait for as much garbage again (1.5 GiB), the run
// would mostly time the kernel faulting fresh pages in, and the few
// rounds a collection did land in would be a different population.
// broker.gc_share reports what this leaves out.
func (b *bench) runRound(stats func() pmem.Stats, round func() int, measured bool, planned int) {
	b.pub, b.del = b.pub[:0], b.del[:0]
	var id int32
	if b.tr != nil {
		id = b.tr.begin(spRound)
	}
	iv := b.clock.start(stats)
	msgs := 0
	func() {
		defer func() {
			if r := recover(); r != nil {
				if s, ok := r.(string); ok && strings.Contains(s, "out of simulated persistent memory") {
					b.oom = true
					b.violations = append(b.violations, s)
					return
				}
				panic(r)
			}
		}()
		msgs = round()
	}()
	t := iv.stop()
	if b.tr != nil {
		b.tr.end(id, msgs)
	}
	t0 := now()
	runtime.GC()
	b.gcNs += now() - t0
	if b.oom {
		b.attempted += int64(planned)
		b.failed += int64(planned)
		return
	}
	if !measured {
		return
	}
	b.rounds = append(b.rounds, roundStat{
		t: t, msgs: msgs, nPub: len(b.pub), nDel: len(b.del),
		pub: percentiles(b.pub), del: percentiles(b.del),
	})
}

// counters brackets the measured rounds: pmem events, heap break and
// Go allocations.
type counters struct {
	stats pmem.StatsDelta
	brk   uint64
	mem   runtime.MemStats
	gcNs  int64
}

func heapBreak(hs *pmem.HeapSet) uint64 {
	var sum uint64
	for _, h := range hs.Heaps() {
		sum += h.RawMem(8) // word 1 of every heap is its persistent break
	}
	return sum
}

// endSetup marks the first measured call. setup_s runs from process
// start to here, less the noise-guard rung; modelled is the NVRAM
// latency the simulator was asked to model on the way.
func (b *bench) endSetup(modelled float64) {
	b.setup = reading{raw: float64(now() - b.guardNs), modelled: modelled, k: (b.setup.k + b.clock.fresh()) / 2}
}

func (b *bench) startCounters() *counters {
	c := &counters{stats: b.hs.TotalDelta(), brk: heapBreak(b.hs), gcNs: b.gcNs}
	runtime.ReadMemStats(&c.mem)
	return c
}

// finishCounters turns the bracket into the per-message count metrics;
// rounds are the measured rounds the bracket covers.
func (b *bench) finishCounters(c *counters, rounds []roundStat) {
	d := c.stats.Delta()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	var msgs int
	var raw float64
	for _, r := range rounds {
		msgs += r.msgs
		raw += r.t.raw
	}
	if msgs == 0 {
		return
	}
	n := float64(msgs)
	v := b.res.Values
	v["fences_per_msg"] = float64(d.Fences) / n
	v["pflush_per_msg"] = float64(d.PostFlushAccesses) / n
	v["nvram_bytes_per_msg"] = float64(heapBreak(b.hs)-c.brk) / n
	v["pmem.flushes_per_msg"] = float64(d.Flushes) / n
	v["pmem.ntstores_per_msg"] = float64(d.NTStores) / n
	v["pmem.modelled_ns_per_msg"] = modelledNs(d) / n
	v["broker.allocs_per_msg"] = float64(mem.Mallocs-c.mem.Mallocs) / n
	v["broker.alloc_bytes_per_msg"] = float64(mem.TotalAlloc-c.mem.TotalAlloc) / n
	gc := float64(b.gcNs - c.gcNs)
	v["broker.gc_share"] = gc / (gc + raw)
}

// column extracts one figure from every round.
func column(rounds []roundStat, f func(roundStat) float64) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = f(r)
	}
	return out
}

// A process's figure for a timing metric is the undisturbed quartile
// of its rounds: the upper quartile of their rates, the lower quartile
// of their latency percentiles. On a shared box a disturbance (a
// neighbour on the sibling thread or in the cache, a page fault storm)
// only ever slows a round down, so the rounds' figures have a sharp
// fast edge, which is the program's speed, and a tail, which is the
// neighbours'. Over ten reps of fifo-batch8 the quartile spread by 2.6 %
// (IQR/median) where the median of the same rounds spread by 4.6 %.
const (
	fastRate    = 0.75
	fastLatency = 0.25
)

// reduceRate turns measured rounds into the throughput metrics.
func (b *bench) reduceRate(rounds []roundStat) {
	if len(rounds) == 0 {
		return
	}
	rate := column(rounds, func(r roundStat) float64 { return float64(r.msgs) / (b.clock.ref(r.t) / 1e9) })
	wall := column(rounds, func(r roundStat) float64 { return b.clock.ref(r.t) })
	v := b.res.Values
	v["msgs_per_s"] = quantile(rate, fastRate)
	v["broker.round_stall_ratio"] = slices.Max(wall) / median(wall)
	if m := v["pmem.modelled_ns_per_msg"]; m > 0 {
		v["pmem.modelled_share"] = m * v["msgs_per_s"] / 1e9
	}
	b.res.RoundIQR, b.res.RoundRates = iqrShare(rate), rate
	b.res.RawRate = median(column(rounds, func(r roundStat) float64 { return float64(r.msgs) / (r.t.raw / 1e9) }))
	b.res.CoreSpeed = median(column(rounds, func(r roundStat) float64 { return r.t.k }))
	b.res.CalSpeed = median(b.clock.kCals)
}

// reduceLatency turns measured rounds into the call-latency metrics:
// the undisturbed quartile over rounds of each round's percentile, with
// the number of calls behind it.
func (b *bench) reduceLatency(rounds []roundStat) {
	if len(rounds) == 0 {
		return
	}
	v, s := b.res.Values, b.res.Samples
	var nPub, nDel int64
	for _, r := range rounds {
		nPub += int64(r.nPub)
		nDel += int64(r.nDel)
	}
	for i, name := range []string{"publish_us_p50", "broker.publish_us_p99", "broker.publish_us_p999"} {
		v[name] = quantile(column(rounds, func(r roundStat) float64 { return r.pub[i] * b.clock.ref(r.t) / r.t.raw }), fastLatency) / 1e3
		s[name] = nPub
	}
	for i, name := range []string{"deliver_us_p50", "broker.deliver_us_p99", "broker.deliver_us_p999"} {
		v[name] = quantile(column(rounds, func(r roundStat) float64 { return r.del[i] * b.clock.ref(r.t) / r.t.raw }), fastLatency) / 1e3
		s[name] = nDel
	}
}

// measure is the run structure every round-based workload shares: two
// warm-up rounds (part of set-up), then the measured rounds inside one
// counter bracket.
func (b *bench) measure(rounds, msgsPerRound int, round func() int) {
	const warmup = 2
	if b.cfg.traced && rounds > tracedRounds {
		rounds = tracedRounds
	}
	for i := 0; i < warmup && !b.oom; i++ {
		b.runRound(b.hs.TotalStats, round, false, msgsPerRound*(rounds+warmup-i))
	}
	b.endSetup(modelledNs(b.hs.TotalStats()))
	c := b.startCounters()
	for i := 0; i < rounds && !b.oom; i++ {
		b.runRound(b.hs.TotalStats, round, true, msgsPerRound*(rounds-i))
	}
	b.finishCounters(c, b.rounds)
	b.reduceRate(b.rounds)
	b.reduceLatency(b.rounds)
}

// finish fills in what every workload reports the same way.
func (b *bench) finish() repResult {
	v := b.res.Values
	v["setup_s"] = b.clock.ref(b.setup) / 1e9
	v["peak_rss_mb"] = peakRSSMB()
	if b.attempted == 0 {
		b.attempted = 1
	}
	v["failed_ops_share"] = float64(b.failed) / float64(b.attempted)
	b.res.Attempted, b.res.Failed, b.res.Violations = b.attempted, b.failed, b.violations
	return b.res
}
