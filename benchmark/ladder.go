package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/batch"
	"repro/internal/blobq"
	"repro/internal/broker"
	"repro/internal/dheap"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/queues"
	"repro/internal/ssmem"
)

// The ladder is the set of micro-rungs run once per traced pass, in a
// process of its own: one or more per layer, each timing calls into the
// layer's public functions from outside, at reference speed (see
// refclock.go). Read it bottom-up: a rung's cost is its lower
// neighbour's plus its own layer's, so a regression names the lowest
// rung that moved. Nothing here is gated.
//
// All ModePerf rungs share one 1 GiB heap and all queue-level recovery
// rungs one ModeCrash heap, each structure in its own root-slot view:
// on the reference box memory a process has given back costs seconds
// per GiB to take again (the host backs every page anew), so a rung
// that allocated its own heap would time that.

type ladder struct {
	v     map[string]float64
	rng   *rand.Rand
	scale float64
	c     *refClock
	h     *pmem.Heap // the shared ModePerf heap, DefaultLatency
	slot  int        // next free root slot of h
}

// n scales an iteration count down for smoke runs, never below 64.
func (l *ladder) n(full int) int {
	return max(int(float64(full)*min(l.scale, 1)), 64)
}

// view hands out the next queue-sized window of the shared heap.
func (l *ladder) view() *pmem.Heap {
	l.slot += 8
	return l.h.View(l.slot-8, 8)
}

// loops runs body, which makes iters calls on heap h (nil when it uses
// none), reps times and returns the median reference-speed ns per call.
func (l *ladder) loops(h *pmem.Heap, reps, iters int, body func()) float64 {
	d := make([]float64, reps)
	for i := range d {
		d[i] = l.ms(h, body) * 1e6 / float64(iters)
	}
	return median(d)
}

// ms times one call on heap h in reference-speed milliseconds.
func (l *ladder) ms(h *pmem.Heap, f func()) float64 {
	var stats func() pmem.Stats
	if h != nil {
		stats = h.TotalStats
	}
	iv := l.c.start(stats)
	f()
	return l.c.ref(iv.stop()) / 1e6
}

func medianOf3(f func() float64) float64 {
	return median([]float64{f(), f(), f()})
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func runLadder(seed int64, scale float64) map[string]float64 {
	l := &ladder{v: map[string]float64{}, rng: rand.New(rand.NewSource(seed)), scale: scale, slot: 8}
	l.c, l.v["pmem.spin_calibration_ratio"] = newRefClock()
	// The first heap of the process: what pmem.New costs before any
	// memory has been touched, which is what set-up pays.
	l.v["pmem.new_ms_per_gib"] = l.ms(nil, func() {
		l.h = pmem.New(pmem.Config{Bytes: 1 << 30, MaxThreads: threads, Latency: pmem.DefaultLatency()})
	})
	l.pmemRungs()
	l.ssmemRungs()
	l.queueRungs()
	l.blobqRungs()
	l.dheapRungs()
	l.batchRungs()
	l.recoveryRungs()
	l.brokerRungs()
	l.obsRungs()
	l.harnessRungs()
	return l.v
}

func (l *ladder) pmemRungs() {
	h := l.h
	a := h.AllocRaw(0, 64, 64)
	n := l.n(20_000)
	l.v["pmem.store_flush_fence_ns"] = l.loops(h, 5, n, func() {
		for i := 0; i < n; i++ {
			h.ClearLineState(a) // keep the store off flushed content: that cost is load_flushed_ns
			h.Store(0, a, uint64(i))
			h.Flush(0, a)
			h.Fence(0)
		}
	})
	l.v["pmem.ntstore_fence_ns"] = l.loops(h, 5, n, func() {
		for i := 0; i < n; i++ {
			h.NTStore(0, a, uint64(i))
			h.Fence(0)
		}
	})
	h.ClearLineState(a)
	var sink uint64
	l.v["pmem.load_cached_ns"] = l.loops(h, 5, 10*n, func() {
		for i := 0; i < 10*n; i++ {
			sink += h.Load(0, a)
		}
	})
	flushLoad := l.loops(h, 5, n, func() {
		for i := 0; i < n; i++ {
			h.Flush(0, a)
			sink += h.Load(0, a)
		}
	})
	flushOnly := l.loops(h, 5, n, func() {
		for i := 0; i < n; i++ {
			h.Flush(0, a)
			h.ClearLineState(a)
		}
	})
	h.Fence(0)
	_ = sink
	l.v["pmem.load_flushed_ns"] = flushLoad - flushOnly
}

func (l *ladder) ssmemRungs() {
	h := l.view()
	p := ssmem.NewPool(h, ssmem.Config{SlotBytes: 64, Threads: threads, RootSlot: 2})
	n := l.n(100_000)
	l.v["ssmem.alloc_free_pair_ns"] = l.loops(h, 5, n, func() {
		for i := 0; i < n; i++ {
			p.FreeImmediate(0, p.Alloc(0))
		}
	})
	// The allocation that finds its area exhausted opens a new one: a
	// raw allocation, 4096 lines zeroed and registered, three fences.
	const slotsPerArea, areas = 4096, 8
	var grow []float64
	first := make([]pmem.Addr, 0, slotsPerArea*areas)
	p.Alloc(0) // hand the slot recycled above back out first
	for i := 0; i < slotsPerArea*areas; i++ {
		if i%slotsPerArea == slotsPerArea-1 {
			var a pmem.Addr
			grow = append(grow, l.ms(h, func() { a = p.Alloc(0) })*1e3)
			first = append(first, a)
			continue
		}
		first = append(first, p.Alloc(0))
	}
	l.v["ssmem.area_grow_us"] = median(grow)
	// Slots retired by tid 1 land on tid 1's free list; count how many
	// of tid 0's next allocations reuse them.
	top := slices.Max(first)
	for _, a := range first {
		p.Enter(1)
		p.Retire(1, a)
		p.Exit(1)
	}
	reused := 0
	for range first {
		if p.Alloc(0) <= top {
			reused++
		}
	}
	l.v["ssmem.cross_tid_reuse_share"] = float64(reused) / float64(len(first))
}

func (l *ladder) queueRungs() {
	n := l.n(50_000)
	pair := func(name string) (ns, allocs float64) {
		info, _ := harness.LookupQueue(name)
		h := l.view()
		q := info.New(h, 1)
		for i := 0; i < pairsInitialSize; i++ {
			q.Enqueue(0, uint64(i))
		}
		m0 := mallocs()
		ns = l.loops(h, 5, n, func() {
			for i := 0; i < n; i++ {
				q.Enqueue(0, uint64(i))
				q.Dequeue(0)
			}
		})
		return ns, float64(mallocs()-m0) / float64(5*n)
	}
	l.v["queues.pair_ns"], l.v["queues.pair_allocs"] = pair("opt-unlinked")
	l.v["queues.msq_pair_ns"], _ = pair("durable-msq")

	steps := l.n(2048)
	vs := make([]uint64, batchN)
	h := l.view()
	q := queues.NewOptUnlinkedQ(h, threads)
	l.v["queues.enqueue_batch8_ns_per_msg"], l.v["queues.dequeue_batch8_ns_per_msg"] = replay(l.c, h, steps, batchN,
		func() { q.EnqueueBatch(tidProd, vs) },
		func() {
			if _, dirty := q.DequeueBatchUnfenced(tidCons, batchN); dirty {
				h.Fence(tidCons)
				q.CompleteBatch(tidCons)
			}
		})
	ha := l.view()
	qa := queues.NewOptUnlinkedQAcked(ha, threads)
	_, l.v["queues.leased_ack_batch8_ns_per_msg"] = replay(l.c, ha, steps, batchN,
		func() { qa.EnqueueBatch(tidProd, vs) },
		func() {
			if _, idxs := qa.DequeueLeased(tidCons, batchN); len(idxs) > 0 {
				qa.AckTo(tidCons, idxs[len(idxs)-1])
			}
		})
}

func (l *ladder) blobqRungs() {
	steps := l.n(1024)
	for _, sz := range []struct {
		tag   string
		bytes int
	}{{"64b", 64}, {"1k", 1024}} {
		ps := make([][]byte, batchN)
		for i := range ps {
			ps[i] = make([]byte, sz.bytes)
			l.rng.Read(ps[i])
		}
		h := l.view()
		q := blobq.New(h, blobq.Config{Threads: threads, MaxPayload: sz.bytes})
		m0 := mallocs()
		enq, deq := replay(l.c, h, steps, batchN,
			func() { q.EnqueueBatch(tidProd, ps) },
			func() { q.DequeueBatch(tidCons, batchN) })
		l.v["blobq.enqueue_batch8_ns_per_msg."+sz.tag] = enq
		l.v["blobq.dequeue_batch8_ns_per_msg."+sz.tag] = deq
		if sz.bytes == 1024 {
			l.v["blobq.allocs_per_msg"] = float64(mallocs()-m0) / float64(replayRounds*steps*batchN)
			ha := l.view()
			qa := blobq.New(ha, blobq.Config{Threads: threads, MaxPayload: sz.bytes, Acked: true})
			_, l.v["blobq.leased_ack_batch8_ns_per_msg.1k"] = replay(l.c, ha, steps, batchN,
				func() { qa.EnqueueBatch(tidProd, ps) },
				func() {
					if _, idxs := qa.DequeueLeased(tidCons, batchN); len(idxs) > 0 {
						qa.AckTo(tidCons, idxs[len(idxs)-1])
					}
				})
		}
	}
}

// fillDheap pushes resident entries with seeded keys.
func (l *ladder) fillDheap(q *dheap.Q, resident int, keys []uint64, ps [][]byte) {
	for i := 0; i < resident; i += batchN {
		for k := range keys {
			keys[k] = l.rng.Uint64() >> 1
		}
		if err := q.PushBatch(tidProd, keys, ps); err != nil {
			panic(err)
		}
	}
}

func (l *ladder) dheapRungs() {
	steps := l.n(2048)
	keys := make([]uint64, batchN)
	ps := make([][]byte, batchN)
	for i := range ps {
		ps[i] = make([]byte, 8)
	}
	for _, sz := range []struct {
		tag      string
		resident int
	}{{"1e3", 1000}, {"1e5", 100_000}} {
		h := l.view()
		var q *dheap.Q
		ms := l.ms(h, func() { q = dheap.New(h, dheap.Config{Threads: threads, Capacity: sz.resident + 1024}) })
		if sz.resident == 1000 {
			l.v["dheap.new_ms"] = ms // about the broker's arena: 1024 entries per thread
		}
		l.h.SetLatency(pmem.ZeroLatency())
		l.fillDheap(q, sz.resident, keys, ps)
		l.h.SetLatency(pmem.DefaultLatency())
		l.v["dheap.push_batch8_ns_per_msg."+sz.tag], l.v["dheap.pop_batch8_ns_per_msg."+sz.tag] = replay(l.c, h, steps, batchN,
			func() {
				for k := range keys {
					keys[k] = l.rng.Uint64() >> 1
				}
				if err := q.PushBatch(tidProd, keys, ps); err != nil {
					panic(err)
				}
			},
			func() { q.PopReadyBatch(tidCons, ^uint64(0), batchN) })
	}
}

func (l *ladder) batchRungs() {
	a := batch.NewAIMD(1, 64)
	n := l.n(1_000_000)
	sink := 0
	l.v["batch.aimd_step_ns"] = l.loops(nil, 5, n, func() {
		for i := 0; i < n; i++ {
			s := a.Size()
			a.Observe(s - i&1) // full and short windows alternate
			sink += s
		}
	})
	_ = sink
}

// recoveryRungs builds a queue, a blob queue and a durable heap on one
// ModeCrash heap at full speed, cuts the power once, reboots, switches
// the latency model on and times each recovery procedure alone.
func (l *ladder) recoveryRungs() {
	const bytes = 128 << 20
	backlog := l.n(100_000)
	h := pmem.New(pmem.Config{Bytes: bytes, Mode: pmem.ModeCrash, MaxThreads: threads})
	qv, bv, dv := h.View(8, 8), h.View(16, 8), h.View(24, 8)
	vs := make([]uint64, batchN)
	keys := make([]uint64, batchN)
	ps := make([][]byte, batchN)
	for i := range ps {
		ps[i] = make([]byte, 64)
	}
	bcfg := blobq.Config{Threads: threads, MaxPayload: 64}
	q, bq := queues.NewOptUnlinkedQ(qv, threads), blobq.New(bv, bcfg)
	dq := dheap.New(dv, dheap.Config{Threads: threads, MaxPayload: 64, Capacity: backlog + 1024})
	for i := 0; i < backlog; i += batchN {
		q.EnqueueBatch(tidProd, vs)
		bq.EnqueueBatch(tidProd, ps)
	}
	l.fillDheap(dq, backlog, keys, ps)
	h.CrashNow()
	h.FinalizeCrash(l.rng)
	l.v["pmem.restart_ms_per_gib"] = medianOf3(func() float64 {
		return l.ms(nil, h.Restart) * float64(1<<30) / bytes
	})
	h.SetLatency(pmem.DefaultLatency())
	// Restart forgot the views; recovery re-derives the same windows.
	qv, bv, dv = h.View(8, 8), h.View(16, 8), h.View(24, 8)
	per100k := 100_000 / float64(backlog)
	l.v["queues.recover_ms_per_100k"] = l.ms(h, func() { queues.RecoverOptUnlinkedQ(qv, threads) }) * per100k
	l.v["blobq.recover_ms_per_100k"] = l.ms(h, func() { blobq.Recover(bv, bcfg) }) * per100k
	l.v["dheap.recover_ms.1e5"] = l.ms(h, func() {
		if _, err := dheap.Recover(dv, threads); err != nil {
			panic(err)
		}
	}) * per100k
}

func (l *ladder) brokerRungs() {
	open := func(hs *pmem.HeapSet, o *obs.Observer) *broker.Broker {
		return must(broker.Open(hs, broker.Options{Threads: threads, Observer: o}))
	}
	perfSet := func(bytes int64) *pmem.HeapSet {
		return pmem.NewSet(1, pmem.Config{Bytes: bytes, MaxThreads: threads, Latency: pmem.DefaultLatency()})
	}
	l.v["broker.open_empty_ms"] = medianOf3(func() float64 {
		hs := perfSet(32 << 20)
		return l.ms(hs.Heap(0), func() { open(hs, nil) })
	})
	hs := perfSet(128 << 20)
	brk := open(hs, nil)
	create := func(tag string, tc broker.TopicConfig) {
		i := 0
		l.v["broker.create_topic_ms."+tag] = medianOf3(func() float64 {
			tc.Name = fmt.Sprintf("%s-%d", tag, i)
			i++
			return l.ms(hs.Heap(0), func() { must(brk.CreateTopic(0, tc)) })
		})
	}
	create("fifo", broker.TopicConfig{Shards: shards})
	create("blob", broker.TopicConfig{Shards: shards, MaxPayload: 1024})
	create("delay", broker.TopicConfig{Shards: 1, Kind: broker.KindDelay})

	// An idle consumer: every shard empty at an already-persisted head.
	t := brk.Topic("fifo-0")
	c := must(brk.NewGroup([]string{"fifo-0"}, 1)).Consumer(0)
	for i := 0; i < 2*shards; i++ {
		if err := t.Publish(tidProd, broker.U64(uint64(i))); err != nil {
			panic(err)
		}
	}
	for len(c.PollBatch(tidCons, batchN)) > 0 {
	}
	n := l.n(200_000)
	l.v["broker.empty_poll_ns"] = l.loops(hs.Heap(0), 5, n, func() {
		for i := 0; i < n; i++ {
			c.PollBatch(tidCons, batchN)
		}
	})

	// Whole-broker recovery as a function of backlog.
	backlog := l.n(100_000)
	cs := pmem.NewSet(1, pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: threads})
	ft := must(open(cs, nil).CreateTopic(0, broker.TopicConfig{Name: "backlog", Shards: shards}))
	ps := make([][]byte, batchN)
	for i := range ps {
		ps[i] = broker.U64(uint64(i))
	}
	for i := 0; i < backlog; i += batchN {
		if err := ft.PublishBatch(tidProd, ps); err != nil {
			panic(err)
		}
	}
	cs.CrashNow()
	cs.FinalizeCrash(l.rng)
	cs.Restart()
	cs.Heap(0).SetLatency(pmem.DefaultLatency())
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ms := l.ms(cs.Heap(0), func() { open(cs, nil) })
	runtime.ReadMemStats(&m1)
	l.v["broker.open_ms_per_100k"] = ms * 100_000 / float64(backlog)
	l.v["broker.open_alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) * 100_000 / float64(backlog)
}

// obsRungs prices the observer: the same Publish+Poll rounds on two
// brokers, one observed, alternating so that drift cancels.
func (l *ladder) obsRungs() {
	type side struct {
		h *pmem.Heap
		t *broker.Topic
		c *broker.Consumer
	}
	mk := func(o *obs.Observer) side {
		hs := pmem.NewSet(1, pmem.Config{Bytes: 64 << 20, MaxThreads: threads, Latency: pmem.DefaultLatency()})
		brk := must(broker.Open(hs, broker.Options{Threads: threads, Observer: o}))
		t := must(brk.CreateTopic(0, broker.TopicConfig{Name: "obs", Shards: shards}))
		return side{hs.Heap(0), t, must(brk.NewGroup([]string{"obs"}, 1)).Consumer(0)}
	}
	off, on := mk(nil), mk(obs.New(obs.Config{Threads: threads}))
	n := l.n(16_384)
	p := broker.U64(1)
	round := func(s side) float64 {
		return l.ms(s.h, func() {
			for i := 0; i < n; i++ {
				if err := s.t.Publish(tidProd, p); err != nil {
					panic(err)
				}
				s.c.Poll(tidCons)
			}
		})
	}
	round(off)
	round(on)
	var ratio []float64
	for i := 0; i < 9; i++ {
		a, b := round(off), round(on)
		ratio = append(ratio, a/b)
	}
	l.v["obs.observer_overhead_share"] = 1 - median(ratio)
}

// harnessRungs records why concurrency is not gated here: three
// identical 1 s one-producer one-consumer cells, as RunBroker reports
// them (wall clock: its timing is its own).
func (l *ladder) harnessRungs() {
	var mops []float64
	for i := 0; i < 3; i++ {
		r, err := harness.RunBroker(harness.BrokerConfig{
			Topics: 1, Shards: shards, Heaps: 1, Producers: 1, Consumers: 1,
			Batch: batchN, DequeueBatch: batchN,
			Duration:  time.Duration(float64(time.Second) * min(l.scale, 1)),
			HeapBytes: 384 << 20, Latency: pmem.DefaultLatency(),
		})
		if err != nil {
			panic(err)
		}
		mops = append(mops, r.Mops())
	}
	l.v["harness.p1c1_mmsgs_per_s"] = median(mops)
	l.v["harness.p1c1_spread"] = (slices.Max(mops) - slices.Min(mops)) / median(mops)
}
